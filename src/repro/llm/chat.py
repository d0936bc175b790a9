"""Concrete chat-prompt rendering and tool-call parsing.

The behavioural engine accounts tokens without materialising prompt
text; this module provides the concrete counterpart — an Ollama-style
chat template renderer and a tolerant parser for tool-call JSON — used
by debugging tools, the examples and anyone extending the simulator
toward real checkpoints.  ``estimate_tokens(render_...)`` agrees with
the engine's budget model to within the scaffolding constants.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from repro.llm.tokens import estimate_tokens
from repro.tools.schema import ToolCall, ToolSpec

AGENT_SYSTEM_PROMPT = """\
You are a function-calling assistant running on an edge device.
You are given a set of tools as JSON schemas. Decide which single tool to
call next to make progress on the user's task, and respond with exactly
one JSON object of the form {"name": <tool>, "arguments": {...}} and no
other text. Use only tools from the provided list and argument values of
the declared types. If, after retrying, no tool can make progress,
respond with {"error": "<short reason>"} instead so the runtime can fall
back to the full tool set.
"""

RECOMMENDER_SYSTEM_PROMPT = """\
You are planning a tool-augmented task. No tools are attached. Read the
user's request and describe the ideal tools you would need to complete
it: respond with a JSON list of short functional descriptions, one per
distinct tool, most important first. Do not invent tool names; describe
functionality only.
"""


@dataclass(frozen=True)
class ChatTurn:
    """One rendered message of a conversation."""

    role: str
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant", "tool"):
            raise ValueError(f"unknown role {self.role!r}")


@dataclass
class ChatTranscript:
    """An ordered conversation with token accounting."""

    turns: list[ChatTurn] = field(default_factory=list)

    def add(self, role: str, content: str) -> None:
        self.turns.append(ChatTurn(role, content))

    def render(self) -> str:
        """Ollama/ChatML-style flat rendering."""
        blocks = [f"<|{turn.role}|>\n{turn.content}" for turn in self.turns]
        return "\n".join(blocks) + "\n<|assistant|>\n"

    @property
    def prompt_tokens(self) -> int:
        return estimate_tokens(self.render())


def render_agent_prompt(query_text: str, tools: list[ToolSpec],
                        history: list[tuple[ToolCall, str]] = ()) -> ChatTranscript:
    """Build the full agent conversation for one function-calling turn.

    ``history`` carries prior (call, result-summary) pairs of a chain.
    """
    transcript = ChatTranscript()
    tool_block = "\n".join(tool.json_text() for tool in tools)
    transcript.add("system", f"{AGENT_SYSTEM_PROMPT}\nTOOLS:\n{tool_block}")
    transcript.add("user", query_text)
    for call, result in history:
        transcript.add("assistant", call.to_json())
        transcript.add("tool", result)
    return transcript


def render_recommender_prompt(query_text: str) -> ChatTranscript:
    """Build the zero-tool recommender conversation."""
    transcript = ChatTranscript()
    transcript.add("system", RECOMMENDER_SYSTEM_PROMPT)
    transcript.add("user", query_text)
    return transcript


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParsedResponse:
    """Outcome of parsing a model response."""

    call: ToolCall | None = None
    error_message: str | None = None
    malformed: bool = False

    @property
    def is_error_signal(self) -> bool:
        return self.error_message is not None


_JSON_BLOCK_RE = re.compile(r"\{.*\}", re.DOTALL)


def parse_tool_response(text: str) -> ParsedResponse:
    """Parse a model's tool-call response, tolerating chatter around it.

    Recognises the three outcomes the runtime distinguishes: a
    well-formed call, an explicit error signal (the paper's fallback
    trigger), or malformed output (treated as a failed call).
    """
    match = _JSON_BLOCK_RE.search(text)
    if not match:
        return ParsedResponse(malformed=True)
    try:
        payload = json.loads(match.group(0))
    except json.JSONDecodeError:
        return ParsedResponse(malformed=True)
    if not isinstance(payload, dict):
        return ParsedResponse(malformed=True)
    if "error" in payload:
        return ParsedResponse(error_message=str(payload["error"]))
    name = payload.get("name")
    arguments = payload.get("arguments", {})
    if not isinstance(name, str) or not isinstance(arguments, dict):
        return ParsedResponse(malformed=True)
    return ParsedResponse(call=ToolCall(name, arguments))
