"""Baselines the paper compares against.

* :class:`DefaultAgent` — vanilla function calling: all tools, 16K
  window (the "default execution" in Figures 2/3 and Table I);
* :class:`GorillaAgent` — query-embedding similarity retrieval against
  the full tool ontology (Level-1-only search), docs-style call
  generation at an 8K window;
* :class:`ToolLLMAgent` — DFSDT-style tree search over the tool set;
  included for completeness — the paper could not fit it on the board,
  and :meth:`ToolLLMAgent.memory_requirement_gb` reproduces why.
"""

from repro.baselines.default_agent import DefaultAgent
from repro.baselines.gorilla import GorillaAgent
from repro.baselines.toolllm import ToolLLMAgent, ToolLLMMemoryError
from repro.registry import SchemeContext, register_scheme


@register_scheme("default")
def _build_default(model: str, quant: str, context: SchemeContext, **kwargs):
    llm = context.build_llm(model, quant)
    return DefaultAgent(llm=llm, suite=context.suite, **kwargs)


@register_scheme("gorilla")
def _build_gorilla(model: str, quant: str, context: SchemeContext, **kwargs):
    llm = context.build_llm(model, quant)
    return GorillaAgent(llm=llm, suite=context.suite,
                        embedder=context.embedder, **kwargs)


@register_scheme("toolllm")
def _build_toolllm(model: str, quant: str, context: SchemeContext, **kwargs):
    llm = context.build_llm(model, quant)
    return ToolLLMAgent(llm=llm, suite=context.suite,
                        embedder=context.embedder, **kwargs)


__all__ = [
    "DefaultAgent",
    "GorillaAgent",
    "ToolLLMAgent",
    "ToolLLMMemoryError",
]
