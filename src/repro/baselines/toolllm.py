"""ToolLLM-style baseline: DFSDT tree search over the tool hierarchy.

ToolLLM (Qin et al., 2024) navigates a tool-category tree with
depth-first search, issuing an LLM call per expansion to decide which
branch holds the needed API.  The paper tried to compare against it and
reports it "could not fit on the board": the search keeps multiple
decoding branches (and their KV caches) alive simultaneously.

This implementation reproduces both facets:

* :meth:`memory_requirement_gb` gives the footprint of the configured
  search (weights + one KV allocation per live branch), and
  :meth:`fits_device` checks it against the board;
* :meth:`run` raises :class:`ToolLLMMemoryError` when the footprint
  exceeds the device budget (the paper's outcome on the 32 GB Orin with
  the default branching), or executes the tree search when a reduced
  configuration fits — used by the ablation benchmarks.

The tree itself is built offline by agglomerative clustering of tool
descriptions, mirroring ToolLLM's category/tool hierarchy.
"""

from __future__ import annotations

import math

import numpy as np

from repro.clustering import AgglomerativeClustering
from repro.core.agent_base import (
    DEFAULT_CONTEXT_WINDOW,
    FunctionCallingAgent,
    ToolPlan,
)
from repro.embedding.cache import CachedEmbedder, shared_embedder
from repro.hardware.memory import fits_on_device, footprint_gb
from repro.llm.responses import TokenUsage
from repro.llm.tokens import estimate_tokens
from repro.suites.base import Query

#: tools per leaf group of the offline tool tree
GROUP_SIZE = 6


class ToolLLMMemoryError(RuntimeError):
    """The configured tree search does not fit in device memory."""


class ToolLLMAgent(FunctionCallingAgent):
    """Tree-search baseline with an explicit device-memory gate."""

    scheme = "toolllm"

    def __init__(self, llm, suite, n_branches: int = 12,
                 context_window: int = DEFAULT_CONTEXT_WINDOW,
                 embedder: CachedEmbedder | None = None,
                 enforce_memory: bool = True, **kwargs):
        super().__init__(llm=llm, suite=suite, **kwargs)
        self.n_branches = n_branches
        self.context_window = context_window
        self.enforce_memory = enforce_memory
        self.embedder = embedder if embedder is not None else shared_embedder()
        self._groups = self._build_tree()

    # ------------------------------------------------------------------
    # memory gate
    # ------------------------------------------------------------------
    def memory_requirement_gb(self) -> float:
        """Weights + one KV cache per live search branch."""
        return footprint_gb(
            self.llm.model.params_b,
            self.llm.quant.bits_per_weight,
            self.context_window,
            n_parallel_contexts=self.n_branches,
        )

    def fits_device(self) -> bool:
        """Whether the configured search fits the device DRAM."""
        return fits_on_device(self.memory_requirement_gb(), self.device.memory_gb)

    # ------------------------------------------------------------------
    # offline tool tree
    # ------------------------------------------------------------------
    def _build_tree(self) -> list[tuple[str, ...]]:
        """Cluster tools into leaf groups of ~:data:`GROUP_SIZE`."""
        descriptions = self.suite.catalog.descriptions()
        vectors = self.embedder.encode(descriptions)
        n_groups = max(2, math.ceil(len(descriptions) / GROUP_SIZE))
        labels = AgglomerativeClustering(
            n_clusters=n_groups, linkage="average", metric="cosine",
        ).fit_predict(vectors)
        names = self.suite.catalog.names
        groups: list[tuple[str, ...]] = []
        for group_id in range(int(labels.max()) + 1):
            members = tuple(names[i] for i in np.nonzero(labels == group_id)[0])
            if members:
                groups.append(members)
        return groups

    # ------------------------------------------------------------------
    # agent interface
    # ------------------------------------------------------------------
    def run(self, query: Query):
        if self.enforce_memory and not self.fits_device():
            raise ToolLLMMemoryError(
                f"DFSDT with {self.n_branches} branches at "
                f"{self.context_window}-token windows needs "
                f"{self.memory_requirement_gb():.1f} GB "
                f"> {self.device.memory_gb:.1f} GB on {self.device.name}"
            )
        return super().run(query)

    def plan(self, query: Query) -> ToolPlan:
        """DFS the tool tree: score each leaf group, expand the best.

        Every group evaluation is an extra LLM call (the expense the
        paper highlights); the final function call then runs over the
        selected group's tools.
        """
        query_vec = self.embedder.encode_one(query.text)
        scores = []
        pre_usages = []
        for group in self._groups:
            group_text = " ".join(
                self.suite.catalog.get(name).description for name in group
            )
            group_vec = self.embedder.encode_one(group_text)
            scores.append(float(np.dot(query_vec, group_vec)))
            # one short LLM call per expanded node
            pre_usages.append(TokenUsage(
                prompt_tokens=220 + estimate_tokens(group_text) // 2,
                completion_tokens=24,
            ))
        order = np.argsort(scores)[::-1]
        chosen: list[str] = []
        for group_id in order[: max(1, self.n_branches // 4)]:
            chosen.extend(self._groups[int(group_id)])
        return ToolPlan(
            tools=self.suite.catalog.select(dict.fromkeys(chosen)),
            context_window=self.context_window,
            level=None,
            overhead_s=0.02,
            pre_usages=pre_usages,
        )
