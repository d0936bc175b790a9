"""Gorilla-style baseline: query-embedding retrieval over all tools.

Gorilla (Patil et al., 2023) retrieves the most likely APIs by
similarity between the *user query* and the tool corpus, then generates
the call from the retrieved API documentation.  Two properties
distinguish it from Less-is-More and drive the paper's comparison:

* retrieval uses the raw query, not LLM-authored "ideal tool"
  descriptions — so it searches only the individual-tool space (the
  paper notes this "closely resembles running only Level 1");
* the call is generated docs-to-call rather than through the model's
  native function-calling template, which costs weakly-reasoning
  models disproportionately (paper: "Gorilla was the worst [for
  Mistral] mainly due to the limited capabilities of compressed
  Mistral").
"""

from __future__ import annotations

from repro.core.agent_base import (
    EMBEDDING_OVERHEAD_S,
    KNN_OVERHEAD_S,
    REDUCED_CONTEXT_WINDOW,
    FunctionCallingAgent,
    ToolPlan,
)
from repro.embedding.cache import CachedEmbedder, shared_embedder
from repro.suites.base import Query
from repro.vectorstore import VectorIndex

#: Exponent shaping the docs-to-call penalty: generating a call from
#: retrieved documentation (instead of a native FC template) degrades
#: weak reasoners much more than strong ones.
_DOCS_PENALTY_EXPONENT = 0.75


class GorillaAgent(FunctionCallingAgent):
    """Similarity-based retrieval baseline (Level-1-only search)."""

    scheme = "gorilla"

    def __init__(self, llm, suite, k: int = 3,
                 context_window: int = REDUCED_CONTEXT_WINDOW,
                 embedder: CachedEmbedder | None = None, **kwargs):
        penalty = llm.model.reasoning ** _DOCS_PENALTY_EXPONENT
        super().__init__(llm=llm, suite=suite,
                         skill_multiplier=penalty, **kwargs)
        self.k = k
        self.context_window = context_window
        self.embedder = embedder if embedder is not None else shared_embedder()
        self._index = VectorIndex(dim=self.embedder.dim)
        self._index.add(self.embedder.encode(suite.catalog.descriptions()))
        self._names = suite.catalog.names

    def _k_for(self, query: Query) -> int:
        """Sequential tasks need a wider net: a chain references many
        tools while the retriever only sees one query string."""
        return 2 * self.k + 4 if query.sequential else self.k

    def plan(self, query: Query) -> ToolPlan:
        return ToolPlan(
            tools=self._retrieve(query.text, self._k_for(query)),
            context_window=self.context_window,
            level=1,
            overhead_s=EMBEDDING_OVERHEAD_S + KNN_OVERHEAD_S,
        )

    def tools_for_step(self, query: Query, step_index: int, current_tools,
                       called_tools: list[str]):
        """Re-retrieve each turn using the query plus the latest results.

        Gorilla's retriever sees only surface text; chained tasks whose
        next step is implied by an intermediate *result* (not by the
        query wording) frequently miss the needed tool — the paper's
        explanation for Gorilla's weak GeoEngine numbers.
        """
        if step_index == 0 or not called_tools:
            return current_tools, 0.0
        context_parts = [query.text, "Progress so far:"]
        for name in called_tools[-2:]:
            if name in self.suite.catalog:
                context_parts.append(self.suite.catalog.get(name).description)
        tools = self._retrieve(" ".join(context_parts), self._k_for(query))
        return tools, EMBEDDING_OVERHEAD_S + KNN_OVERHEAD_S

    def _retrieve(self, text: str, k: int | None = None):
        query_vec = self.embedder.encode_one(text)
        result = self._index.search_one(query_vec, k or self.k)
        tools = [self._names[int(tool_id)] for tool_id in result.ids]
        return self.suite.catalog.select(tools)
