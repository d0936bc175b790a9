"""The Less-is-More agent: recommender -> controller -> reduced call."""

from __future__ import annotations

import numpy as np

from repro.core.agent_base import (
    DEFAULT_CONTEXT_WINDOW,
    EMBEDDING_OVERHEAD_S,
    KNN_OVERHEAD_S,
    REDUCED_CONTEXT_WINDOW,
    FunctionCallingAgent,
    ToolPlan,
)
from repro.core.controller import ToolController
from repro.core.levels import SearchLevelBuilder, SearchLevels
from repro.embedding.cache import CachedEmbedder, shared_embedder
from repro.hardware import JETSON_AGX_ORIN, DeviceProfile
from repro.llm import SimulatedLLM
from repro.registry import SchemeContext, register_scheme
from repro.suites.base import BenchmarkSuite, Query
from repro.utils.vectorops import blend_and_normalize


class LessIsMoreAgent(FunctionCallingAgent):
    """Fine-tuning-free dynamic tool selection (the paper's method).

    Per query:

    1. the deployed LLM is prompted *without tools* and emits "ideal
       tool" descriptions (Tool Recommender);
    2. the descriptions (with the query as context) are embedded with the
       MPNet-substitute and k-NN-matched against Search Levels 1 and 2;
    3. the Controller picks the level with the higher average top-k score
       (below-threshold confidence -> Level 3 / all tools) and the agent
       performs function calling with only the selected subset at an 8K
       context window;
    4. if the LLM signals failure twice, the step escalates to Level 3
       at the default 16K window (the paper's fallback).
    """

    scheme = "lis"
    fallback_to_all = True

    def __init__(
        self,
        llm: SimulatedLLM,
        suite: BenchmarkSuite,
        levels: SearchLevels,
        k: int = 3,
        confidence_threshold: float | None = None,
        context_window: int = REDUCED_CONTEXT_WINDOW,
        device: DeviceProfile = JETSON_AGX_ORIN,
        embedder: CachedEmbedder | None = None,
        force_level: int | None = None,
    ):
        super().__init__(llm=llm, suite=suite, device=device)
        self.levels = levels
        self.k = k
        self.context_window = context_window
        self.embedder = embedder if embedder is not None else shared_embedder()
        controller_kwargs = {"k": k, "force_level": force_level}
        if confidence_threshold is not None:
            controller_kwargs["confidence_threshold"] = confidence_threshold
        self.controller = ToolController(levels, **controller_kwargs)
        self._corpus = suite.catalog.descriptions()

    @classmethod
    def build(
        cls,
        model: str,
        quant: str,
        suite: BenchmarkSuite,
        k: int = 3,
        levels: SearchLevels | None = None,
        **kwargs,
    ) -> "LessIsMoreAgent":
        """Construct the full pipeline from registry names.

        ``levels`` may be passed to reuse an offline-built index across
        agents (they are model-independent).
        """
        llm = SimulatedLLM.from_registry(model, quant)
        if levels is None:
            levels = SearchLevelBuilder().build(suite)
        return cls(llm=llm, suite=suite, levels=levels, k=k, **kwargs)

    def plan(self, query: Query) -> ToolPlan:
        return self.plan_batch([query])[0]

    def plan_batch(self, queries: list[Query]) -> list[ToolPlan]:
        """Plan a micro-batch of queries through shared vectorized kernels.

        All queries' recommender descriptions are embedded in one cache
        pass, and every request's Level-1/Level-2 retrieval rides in one
        stacked multi-query search per index
        (:meth:`~repro.core.controller.ToolController.decide_batch`).
        Because both the embedder and the scoring kernels are
        batch-invariant, the returned plans are identical to per-query
        :meth:`plan` calls — this is the hot path the serving gateway's
        micro-batch scheduler amortizes across concurrent requests.
        """
        if not queries:
            return []
        recommendations = [
            self.llm.recommend_tools(
                query, self.suite.catalog, corpus_descriptions=self._corpus)
            for query in queries
        ]
        # paper Section III-B: the recommended descriptions are embedded
        # "alongside the corresponding user task" — realised as a convex
        # blend so the description still dominates the match while the
        # task context disambiguates multi-tool workflows.  Every query's
        # text and descriptions go through the cache in one batched encode.
        texts: list[str] = []
        spans: list[tuple[int, int]] = []
        for query, recommendation in zip(queries, recommendations):
            start = len(texts)
            texts.append(query.text)
            texts.extend(recommendation.descriptions)
            spans.append((start, len(texts)))
        embedded = self.embedder.encode(texts)
        # one blend pass over every request's description rows: the ops
        # are all row-wise, so the result is bitwise equal to blending
        # each request's block separately
        description_rows = np.concatenate(
            [np.arange(start + 1, end) for start, end in spans])
        context_rows = np.concatenate(
            [np.full(end - start - 1, start, dtype=np.intp) for start, end in spans])
        blended = blend_and_normalize(
            embedded[description_rows], embedded[context_rows], weight=0.75,
            rowwise_context=True,
        )
        blocks = []
        offset = 0
        for start, end in spans:
            n_rows = end - start - 1
            blocks.append(blended[offset:offset + n_rows])
            offset += n_rows
        decisions = self.controller.decide_batch(blocks)

        plans: list[ToolPlan] = []
        for recommendation, decision in zip(recommendations, decisions):
            window = (self.context_window if decision.level in (1, 2)
                      else DEFAULT_CONTEXT_WINDOW)
            overhead = (EMBEDDING_OVERHEAD_S * len(recommendation.descriptions)
                        + 2 * KNN_OVERHEAD_S)
            plans.append(ToolPlan(
                tools=self.suite.catalog.select(decision.tools),
                context_window=window,
                level=decision.level,
                overhead_s=overhead,
                pre_usages=[recommendation.usage],
            ))
        return plans


@register_scheme("lis")
def _build_lis(model: str, quant: str, context: SchemeContext,
               k: int = 3, **kwargs):
    """Scheme-registry factory for the Less-is-More pipeline.

    Search Levels and the embedder come from the context, so agents
    built through a shared runner/session reuse one offline index across
    the whole grid (the paper's one-time offline step).
    """
    llm = context.build_llm(model, quant)
    embedder = context.embedder if context.embedder is not None else shared_embedder()
    return LessIsMoreAgent(llm=llm, suite=context.suite, levels=context.levels,
                           k=k, embedder=embedder, **kwargs)
