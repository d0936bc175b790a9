"""Pluggable LLM engines behind the agents.

The agents consume one surface — ``model``/``quant``/``name``,
``recommend_tools``, ``execute_step`` — and this package supplies it
from interchangeable backends registered in
:data:`repro.registry.ENGINES`:

``simulated``
    The deterministic in-process behavioral simulator (the default;
    bitwise identical to the pre-engine-boundary code path).
``openai_http``
    Any OpenAI-compatible chat-completions server (llama.cpp
    ``llama-server``, vLLM, Ollama) over the stdlib HTTP client, with
    timeout/retry knobs and tool-call extraction from both the native
    ``tool_calls`` channel and fenced JSON content.

Select an engine declaratively through
:class:`~repro.specs.EngineSpec` on an ``AgentSpec``/``TenantSpec``
(or ``repro run --engine ...``); third-party engines plug in with
:func:`~repro.registry.register_engine`.
"""

from repro.engines import openai_http as _openai_http  # noqa: F401 - registers
from repro.engines import simulated as _simulated  # noqa: F401 - registers
from repro.engines.base import (
    Engine,
    EngineError,
    EngineProtocolError,
    EngineReply,
    build_engine_llm,
)
from repro.engines.openai_http import ChatEngineLLM, OpenAIHttpEngine

__all__ = [
    "ChatEngineLLM",
    "Engine",
    "EngineError",
    "EngineProtocolError",
    "EngineReply",
    "OpenAIHttpEngine",
    "build_engine_llm",
]
