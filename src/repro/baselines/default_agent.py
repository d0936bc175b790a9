"""Vanilla function calling: every tool, default 16K context window."""

from __future__ import annotations

from repro.core.agent_base import DEFAULT_CONTEXT_WINDOW, FunctionCallingAgent, ToolPlan
from repro.suites.base import Query


class DefaultAgent(FunctionCallingAgent):
    """The paper's "default" scheme: the LLM receives the full tool pool.

    The 16K window is the minimum that fits all tools plus chat
    scaffolding for both catalogs (the paper verified larger windows add
    time without accuracy, Section IV).
    """

    scheme = "default"

    def __init__(self, llm, suite, context_window: int = DEFAULT_CONTEXT_WINDOW,
                 **kwargs):
        super().__init__(llm=llm, suite=suite, **kwargs)
        self.context_window = context_window

    def plan(self, query: Query) -> ToolPlan:
        return ToolPlan(
            tools=list(self.suite.catalog),
            context_window=self.context_window,
            level=None,
        )
