"""The engine boundary: what a pluggable LLM backend must provide.

An *engine* is the wire-level generation surface — ``generate(messages,
tools)`` returning an :class:`EngineReply` — per the ``BaseLLMEngine`` /
``PlannerLLM`` idiom: the caller hands over chat messages plus tool
schemas and gets back text, extracted tool calls and token usage.
Engines register through :data:`repro.registry.ENGINES` as factories
``f(spec, model, quant) -> llm`` returning the **agent-facing** LLM
object (the :class:`~repro.llm.engine.SimulatedLLM` surface the agents
consume: ``model``/``quant``/``name``, ``recommend_tools``,
``execute_step``) — the registry deals in agent-facing objects so the
default ``simulated`` engine stays exactly today's code path, while
wire-backed engines wrap an :class:`Engine` in an adapter.

Everything an engine needs lives in the plain-data
:class:`~repro.specs.EngineSpec`; a wire-backed engine opens its
connections from the spec, one per request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.llm.responses import TokenUsage
from repro.tools.schema import ToolCall, ToolSpec


class EngineError(RuntimeError):
    """An engine could not produce a reply (transport or server failure).

    Raised only after the configured retry budget is exhausted; the
    message names the endpoint, the attempt count and the last
    underlying error so the failure is actionable from a log line.
    """


class EngineProtocolError(EngineError):
    """The backend answered, but not in the wire format it promised.

    Distinct from :class:`EngineError` so callers can tell "the server
    is down" from "the server speaks a different dialect" — the latter
    is a configuration bug retries will never fix, so it is never
    retried.
    """


@dataclass(frozen=True)
class EngineReply:
    """One generation result at the wire level.

    ``tool_calls`` holds calls the backend emitted through the native
    ``tool_calls`` channel; adapters fall back to parsing fenced JSON
    out of ``text`` when it is empty.  ``usage`` is the backend's own
    token accounting when reported (``None`` means the adapter should
    estimate).
    """

    text: str = ""
    tool_calls: tuple[ToolCall, ...] = ()
    usage: TokenUsage | None = None
    finish_reason: str = "stop"
    error_signal: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "tool_calls", tuple(self.tool_calls))


@runtime_checkable
class Engine(Protocol):
    """Wire-level generation: messages + tool schemas in, reply out.

    ``messages`` is a list of ``{"role": ..., "content": ...}`` dicts
    (OpenAI chat shape); ``tools`` the :class:`ToolSpec` list to expose.
    ``extract_tool_calls`` is optional — adapters use it when present to
    re-parse a raw backend message dict; the default extraction path is
    the native ``tool_calls`` field, then fenced JSON in the content.
    """

    def generate(self, messages: list[dict],
                 tools: list[ToolSpec]) -> EngineReply: ...


def build_engine_llm(spec, model: str, quant: str):
    """Resolve ``spec`` through :data:`~repro.registry.ENGINES`.

    ``spec`` may be an :class:`~repro.specs.EngineSpec`, a bare engine
    name, or ``None`` (the simulated default).  Unknown engine names
    raise the registry's :class:`ValueError` listing every registered
    engine.
    """
    from repro.registry import ENGINES
    from repro.specs import EngineSpec

    if spec is None:
        spec = EngineSpec()
    elif isinstance(spec, str):
        spec = EngineSpec(spec)
    factory = ENGINES.get(spec.name)
    return factory(spec, model, quant)
