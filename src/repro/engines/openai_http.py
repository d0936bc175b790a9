"""OpenAI-compatible chat-completions engine over the stdlib HTTP client.

Drives any server speaking the ``POST /v1/chat/completions`` wire format
— llama.cpp's ``llama-server``, vLLM, Ollama's OpenAI shim — through
:class:`~repro.serving.http.client.HTTPConnection`, the same stdlib
``http.client`` wrapper the serving edge uses, so the engine adds no
dependency.  Requests carry the tool schemas
(:meth:`~repro.tools.schema.ToolSpec.to_json_schema` already emits the
OpenAI function-calling shape); replies are mined for tool calls first
from the native ``tool_calls`` channel, then from fenced JSON in the
message content (:func:`~repro.llm.chat.parse_tool_response`), which is
how llama.cpp models without grammar-constrained tool support answer.

Transport failures (connection refused, socket timeout, 5xx/429) retry
``spec.retries`` times with exponential backoff before raising an
:class:`~repro.engines.base.EngineError` that names the endpoint, the
attempt count and the last error.  Malformed *successful* replies raise
:class:`~repro.engines.base.EngineProtocolError` immediately — a
dialect mismatch is a configuration bug retries will never fix.

The engine and its agent-facing adapter hold only the picklable
:class:`~repro.specs.EngineSpec` plus model/quant specs; a fresh
connection is opened per request, so nothing socket-shaped ever crosses
the process-pool boundary.
"""

from __future__ import annotations

import http.client
import json
import time
from urllib.parse import urlsplit

from repro.engines.base import EngineError, EngineProtocolError, EngineReply
from repro.llm.chat import parse_tool_response, render_agent_prompt, \
    render_recommender_prompt
from repro.llm.registry import get_model_spec, get_quant_spec
from repro.llm.responses import AgentTurn, RecommenderOutput, TokenUsage
from repro.llm.tokens import estimate_tokens
from repro.registry import register_engine
from repro.serving.http.client import HTTPConnection
from repro.tools.schema import ToolCall, ToolSpec

#: response statuses worth retrying: transient server trouble and
#: rate-limit pushback; any other 4xx is the client's bug and fails fast
RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})


def _messages_from_transcript(transcript) -> list[dict]:
    """Flatten a :class:`~repro.llm.chat.ChatTranscript` to wire messages."""
    return [{"role": turn.role, "content": turn.content}
            for turn in transcript.turns]


class OpenAIHttpEngine:
    """Wire-level client for one OpenAI-compatible endpoint."""

    def __init__(self, spec, wire_model: str | None = None):
        split = urlsplit(spec.base_url)
        if split.scheme not in ("http", ""):
            raise ValueError(
                f"openai_http supports plain http base URLs, got "
                f"{spec.base_url!r} (terminate TLS in front of the stdlib "
                f"client)")
        if not split.hostname:
            raise ValueError(
                f"EngineSpec.base_url must include a host, got "
                f"{spec.base_url!r}")
        self.spec = spec
        self.wire_model = wire_model or spec.wire_model or "default"
        self.host = split.hostname
        self.port = split.port if split.port is not None else 80
        self.prefix = split.path.rstrip("/")
        # injectable for tests: retry/backoff behavior without real sleeps
        self._sleep = time.sleep

    @property
    def endpoint(self) -> str:
        return (f"http://{self.host}:{self.port}"
                f"{self.prefix}/chat/completions")

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _post(self, payload: dict):
        """One request over a fresh connection (never pickled, never shared)."""
        headers = {}
        if self.spec.api_key:
            headers["Authorization"] = f"Bearer {self.spec.api_key}"
        with HTTPConnection(self.host, self.port,
                            timeout_s=self.spec.timeout_s) as conn:
            return conn.post(f"{self.prefix}/chat/completions", payload,
                             headers=headers)

    def _request(self, payload: dict) -> dict:
        """POST with the retry budget; return the decoded JSON body."""
        attempts = self.spec.retries + 1
        last_error: str | None = None
        for attempt in range(attempts):
            if attempt:
                self._sleep(self.spec.retry_backoff_ms / 1000.0
                            * 2.0 ** (attempt - 1))
            try:
                response = self._post(payload)
            except (OSError, http.client.HTTPException) as exc:
                # covers refused connections, socket timeouts
                # (TimeoutError is an OSError) and torn responses
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            if response.status in RETRYABLE_STATUS:
                last_error = f"HTTP {response.status}: {response.text[:200]}"
                continue
            if response.status != 200:
                raise EngineError(
                    f"{self.endpoint} answered HTTP {response.status} "
                    f"(not retryable): {response.text[:200]}")
            try:
                return response.json()
            except json.JSONDecodeError as exc:
                raise EngineProtocolError(
                    f"{self.endpoint} returned a non-JSON 200 body: "
                    f"{exc}") from None
        raise EngineError(
            f"engine at {self.endpoint} failed after {attempts} attempt(s) "
            f"(timeout_s={self.spec.timeout_s}, retries={self.spec.retries}); "
            f"last error: {last_error}")

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    def generate(self, messages: list[dict],
                 tools: list[ToolSpec]) -> EngineReply:
        payload = {
            "model": self.wire_model,
            "messages": messages,
            "temperature": self.spec.temperature,
            "max_tokens": self.spec.max_tokens,
        }
        if tools:
            payload["tools"] = [tool.to_json_schema() for tool in tools]
            payload["tool_choice"] = "auto"
        body = self._request(payload)
        try:
            choice = body["choices"][0]
            message = choice["message"]
        except (KeyError, IndexError, TypeError):
            raise EngineProtocolError(
                f"{self.endpoint} 200 body has no choices[0].message; "
                f"got keys {sorted(body) if isinstance(body, dict) else type(body).__name__}"
            ) from None
        usage = _parse_usage(body.get("usage"))
        text = message.get("content") or ""
        calls = self.extract_tool_calls(message)
        error_signal = None
        if not calls and text:
            parsed = parse_tool_response(text)
            if parsed.call is not None:
                calls = (parsed.call,)
            elif parsed.is_error_signal:
                error_signal = parsed.error_message
        return EngineReply(
            text=text,
            tool_calls=calls,
            usage=usage,
            finish_reason=choice.get("finish_reason") or "stop",
            error_signal=error_signal,
        )

    def extract_tool_calls(self, message: dict) -> tuple[ToolCall, ...]:
        """Native ``tool_calls`` entries → :class:`ToolCall` tuples.

        Arguments arrive as a JSON-encoded string per the OpenAI wire
        format; a backend that emits undecodable argument text gets an
        :class:`EngineProtocolError` naming the offending snippet.
        """
        calls = []
        for entry in message.get("tool_calls") or ():
            function = entry.get("function") or {}
            name = function.get("name")
            raw_arguments = function.get("arguments", "{}")
            if isinstance(raw_arguments, dict):
                arguments = raw_arguments
            else:
                try:
                    arguments = json.loads(raw_arguments or "{}")
                except json.JSONDecodeError as exc:
                    raise EngineProtocolError(
                        f"{self.endpoint} sent tool_calls arguments that "
                        f"are not valid JSON ({exc}): {raw_arguments!r:.200}"
                    ) from None
            if not isinstance(name, str) or not isinstance(arguments, dict):
                raise EngineProtocolError(
                    f"{self.endpoint} sent a malformed tool_calls entry: "
                    f"{entry!r:.200}")
            calls.append(ToolCall(name, arguments))
        return tuple(calls)


def _parse_usage(raw) -> TokenUsage | None:
    if not isinstance(raw, dict):
        return None
    try:
        return TokenUsage(
            prompt_tokens=int(raw.get("prompt_tokens", 0)),
            completion_tokens=int(raw.get("completion_tokens", 0)),
        )
    except (TypeError, ValueError):
        return None


class ChatEngineLLM:
    """Agent-facing LLM over a wire-level engine.

    Exposes the :class:`~repro.llm.engine.SimulatedLLM` surface the
    agents and baselines consume — ``model``/``quant``/``name`` for
    accounting (``model`` stays a registry :class:`ModelSpec`, so
    latency/energy bookkeeping keeps working even though generation
    happens remotely), ``recommend_tools`` and ``execute_step``.

    ``correct_tool`` is judged against the query's gold call for the
    step — the same definition the simulator uses — so real-backend
    episodes score on the paper's metrics unchanged.
    """

    def __init__(self, spec, model: str, quant: str,
                 engine: OpenAIHttpEngine | None = None):
        self.spec = spec
        self.model = get_model_spec(model)
        self.quant = get_quant_spec(quant)
        self.engine = engine if engine is not None else OpenAIHttpEngine(
            spec, wire_model=spec.wire_model or model)

    @property
    def name(self) -> str:
        return f"{self.model.name}-{self.quant.name}"

    # live sockets never persist on the instance (one connection per
    # request), so default pickling works; keep the contract visible
    def __getstate__(self) -> dict:
        return dict(self.__dict__)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # recommender
    # ------------------------------------------------------------------
    def recommend_tools(self, query, catalog=None,
                        corpus_descriptions=None) -> RecommenderOutput:
        transcript = render_recommender_prompt(query.text)
        reply = self.engine.generate(
            _messages_from_transcript(transcript), tools=[])
        descriptions = _parse_descriptions(reply.text)
        usage = reply.usage if reply.usage is not None else TokenUsage(
            prompt_tokens=transcript.prompt_tokens,
            completion_tokens=estimate_tokens(reply.text),
        )
        return RecommenderOutput(descriptions=tuple(descriptions), usage=usage)

    # ------------------------------------------------------------------
    # function-calling turn
    # ------------------------------------------------------------------
    def execute_step(self, query, step_index: int,
                     presented_tools: list[ToolSpec], context_window: int,
                     attempt: int = 0, skill_multiplier: float = 1.0,
                     arg_multiplier: float = 1.0) -> AgentTurn:
        if not presented_tools:
            raise ValueError("at least one tool must be presented")
        transcript = render_agent_prompt(query.text, presented_tools)
        reply = self.engine.generate(
            _messages_from_transcript(transcript), tools=presented_tools)
        usage = reply.usage if reply.usage is not None else TokenUsage(
            prompt_tokens=transcript.prompt_tokens,
            completion_tokens=estimate_tokens(reply.text),
        )
        tools_seen = tuple(tool.name for tool in presented_tools)
        if reply.error_signal is not None:
            return AgentTurn(call=None, usage=usage, signalled_error=True,
                             tools_seen=tools_seen)
        if not reply.tool_calls:
            # chatter with no parseable call: a failed turn, not a crash
            return AgentTurn(call=None, usage=usage, signalled_error=True,
                             tools_seen=tools_seen)
        call = reply.tool_calls[0]
        gold_call = query.gold_calls[min(step_index, query.n_steps - 1)]
        return AgentTurn(call=call, usage=usage,
                         correct_tool=call.tool == gold_call.tool,
                         tools_seen=tools_seen)


def _parse_descriptions(text: str) -> list[str]:
    """Recommender output → description list, tolerating prose replies."""
    text = text.strip()
    if not text:
        return []
    try:
        decoded = json.loads(text)
    except json.JSONDecodeError:
        decoded = None
    if isinstance(decoded, list):
        return [str(item) for item in decoded if str(item).strip()]
    lines = [line.strip(" -*\t") for line in text.splitlines()]
    return [line for line in lines if line]


@register_engine("openai_http")
def build_openai_http(spec, model: str, quant: str) -> ChatEngineLLM:
    """Build the agent-facing adapter for an OpenAI-compatible server."""
    return ChatEngineLLM(spec, model, quant)
