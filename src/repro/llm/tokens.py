"""Token accounting and prompt assembly for the simulated LLM."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from repro.tools.schema import ToolSpec

#: Average characters per token for English/JSON mixtures (GPT-style BPE).
CHARS_PER_TOKEN = 4.0

#: Fixed prompt-scaffolding budgets.  Function-calling system prompts are
#: long in practice (format contract, JSON examples, failure-signalling
#: instructions — the paper's fallback protocol also lives here).
AGENT_SYSTEM_TOKENS = 620
RECOMMENDER_SYSTEM_TOKENS = 130
HISTORY_TOKENS_PER_STEP = 85


def estimate_tokens(text: str) -> int:
    """Deterministic token estimate for a string (ceil(chars / 4))."""
    if not text:
        return 0
    return int(math.ceil(len(text) / CHARS_PER_TOKEN))


@lru_cache(maxsize=4096)
def tool_prompt_tokens(tool: ToolSpec) -> int:
    """Prompt cost of appending one tool's JSON schema.

    Real chat templates pretty-print tool JSON with indentation and add
    per-tool role glue; the +48 overhead makes the 51-tool BFCL pool
    genuinely require a 16K window, as the paper's setup does.  Cached
    per spec (specs are frozen): prompt layout and the cost ledger sum
    it over every presented set.
    """
    return estimate_tokens(tool.json_text()) + 48


@dataclass(frozen=True)
class PromptPlan:
    """Token layout of one agent call.

    ``tools_included`` is the prefix of the presented tools that fits the
    context window after reserving space for the query, history and a
    generation budget — tools beyond the window are silently dropped,
    exactly as a context-truncating runtime would.
    """

    system_tokens: int
    tool_tokens: int
    query_tokens: int
    history_tokens: int
    tools_included: tuple[str, ...]
    tools_truncated: tuple[str, ...]

    @property
    def prompt_tokens(self) -> int:
        return (self.system_tokens + self.tool_tokens + self.query_tokens
                + self.history_tokens)


@lru_cache(maxsize=256)
def _tool_layout(tools: tuple[ToolSpec, ...]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Names and running prompt-token totals of one presented tool tuple:
    the only O(n_tools) part of a layout, and a function of the tools
    alone, so the steps and retries of an episode share it.  Sized like
    the similarity memo: the presented sets of the live episodes.
    """
    return (tuple(tool.name for tool in tools),
            tuple(accumulate(tool_prompt_tokens(tool) for tool in tools)))


def plan_agent_prompt(
    query_text: str,
    tools: list[ToolSpec],
    context_window: int,
    step_index: int = 0,
    generation_reserve: int = 1024,
) -> PromptPlan:
    """Lay out an agent prompt, truncating tools that overflow the window."""
    query_tokens = estimate_tokens(query_text)
    history_tokens = HISTORY_TOKENS_PER_STEP * step_index
    budget = (context_window - generation_reserve - AGENT_SYSTEM_TOKENS
              - query_tokens - history_tokens)
    names, totals = _tool_layout(tuple(tools))
    # tools are serialized in order: the first overflow cuts off
    # everything after it (suffix truncation, like a real template), so
    # the included prefix ends where the running total passes the budget
    n_included = bisect_right(totals, budget)
    return PromptPlan(
        system_tokens=AGENT_SYSTEM_TOKENS,
        tool_tokens=totals[n_included - 1] if n_included else 0,
        query_tokens=query_tokens,
        history_tokens=history_tokens,
        tools_included=names[:n_included],
        tools_truncated=names[n_included:],
    )


def context_pressure(prompt_tokens: int, context_window: int) -> float:
    """Fraction of the window consumed by the prompt, clipped to [0, 1]."""
    if context_window <= 0:
        raise ValueError("context_window must be positive")
    return min(1.0, prompt_tokens / context_window)
