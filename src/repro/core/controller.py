"""The Tool Controller: level arbitration + tool subset selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.levels import SearchLevels

#: Paper Section III-C: "if both average top-k scores are below 0.5 ...
#: we default to presenting all tools (Level 3)".  The 0.5 value is on
#: MPNet's cosine scale, where unrelated sentence pairs still score
#: ~0.3-0.5; our lexical-semantic embedder is colder (unrelated pairs
#: score near 0), so the equivalent low-confidence cutoff is ~0.30.
DEFAULT_CONFIDENCE_THRESHOLD = 0.30
#: Paper Section III-C intuition: "LLM recommendations involving
#: multiple tools are more likely to match a tool cluster" — when the
#: recommender emitted several tool needs, Level 2 wins as long as its
#: score is within this fraction of Level 1's.
MULTI_NEED_MARGIN = 0.85


@dataclass(frozen=True)
class ControllerDecision:
    """Outcome of one controller invocation.

    ``level`` is 1, 2 or 3; ``tools`` is the subset to present (for
    Level 3 it is the full pool).  The two scores are the average top-k
    similarities the arbitration compared.
    """

    level: int
    tools: tuple[str, ...]
    level1_score: float
    level2_score: float


class ToolController:
    """k-NN search over the Search Levels with the paper's arbitration.

    For every recommender embedding the controller retrieves the top-k
    individual tools (Level 1) and top-k clusters (Level 2), compares the
    average top-k scores, and presents the union of the winning level's
    retrievals; Level 2 unions the member tools of at most ``k``
    clusters, the paper's "top-k ... clusters".  Confidence below
    ``threshold`` on both levels falls back to the entire tool set
    (Level 3).
    """

    def __init__(
        self,
        levels: SearchLevels,
        k: int = 3,
        confidence_threshold: float = DEFAULT_CONFIDENCE_THRESHOLD,
        force_level: int | None = None,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if force_level not in (None, 1, 2, 3):
            raise ValueError(f"force_level must be 1, 2, 3 or None, got {force_level}")
        self.levels = levels
        self.k = k
        self.confidence_threshold = confidence_threshold
        # ablation hook: bypass arbitration and always use one level
        self.force_level = force_level

    def decide_batch(self, vector_blocks: list[np.ndarray]) -> list[ControllerDecision]:
        """Arbitrate many requests' recommendation blocks in one search pass.

        ``vector_blocks`` holds one ``(n_i, dim)`` embedding matrix per
        request.  All blocks are stacked into a single multi-query search
        per index and the arbitration runs on each request's score slice.
        The scoring kernels are batch-invariant (see
        :func:`repro.vectorstore.base.batch_invariant_matmul`), so every
        decision is bitwise identical to deciding that block alone — the
        contract the serving gateway's micro-batcher relies on.
        """
        blocks = [np.atleast_2d(np.asarray(block, dtype=float))
                  for block in vector_blocks]
        searchable = [i for i, block in enumerate(blocks) if block.shape[0] > 0]
        decisions: list[ControllerDecision | None] = [None] * len(blocks)
        if len(self.levels.tool_index) == 0 or not searchable:
            return [self._level3(0.0, 0.0) for _ in blocks]
        for i, block in enumerate(blocks):
            if block.shape[0] == 0:
                decisions[i] = self._level3(0.0, 0.0)

        stacked = (blocks[searchable[0]] if len(searchable) == 1
                   else np.vstack([blocks[i] for i in searchable]))
        level1_scores, level1_ids = self.levels.tool_index.search_arrays(stacked, self.k)
        has_level2 = len(self.levels.cluster_index) > 0
        if has_level2:
            level2_scores, level2_ids = self.levels.cluster_index.search_arrays(
                stacked, self.k)

        row = 0
        for i in searchable:
            n_rows = blocks[i].shape[0]
            rows = slice(row, row + n_rows)
            row += n_rows
            decisions[i] = self._arbitrate(
                n_rows,
                level1_scores[rows], level1_ids[rows],
                level2_scores[rows] if has_level2 else None,
                level2_ids[rows] if has_level2 else None,
            )
        return decisions

    def _arbitrate(
        self,
        n_vectors: int,
        level1_scores: np.ndarray,
        level1_ids: np.ndarray,
        level2_scores: np.ndarray | None,
        level2_ids: np.ndarray | None,
    ) -> ControllerDecision:
        """The paper's level arbitration over one request's top-k scores."""
        level1_score = float(level1_scores.mean())
        level1_top1 = float(level1_scores[:, 0].max())

        has_level2 = level2_scores is not None
        if has_level2:
            level2_score = float(level2_scores.mean())
            level2_top1 = float(level2_scores[:, 0].max())
        else:
            level2_score = 0.0
            level2_top1 = 0.0

        if self.force_level == 3:
            return self._level3(level1_score, level2_score)

        # low-confidence fallback: judged on the best top-1 match (robust
        # to k, unlike the mean which shrinks as k grows), arbitration
        # between levels on the average top-k score as in the paper
        if (self.force_level is None
                and max(level1_top1, level2_top1) < self.confidence_threshold):
            return self._level3(level1_score, level2_score)

        multi_need = n_vectors >= 2
        # has_level2 guards both disjuncts: an empty cluster index must
        # never win arbitration (its 0.0 score can exceed a negative
        # Level-1 mean, which would present an empty tool set)
        level2_preferred = has_level2 and (
            level2_score > level1_score
            or (multi_need
                and level2_score >= MULTI_NEED_MARGIN * level1_score)
        )
        if self.force_level is not None:
            level2_preferred = self.force_level == 2 and has_level2
        if not level2_preferred:
            tools: dict[str, None] = {}
            for tool_id in level1_ids.ravel():
                tools.setdefault(self.levels.tool_names[int(tool_id)], None)
            return ControllerDecision(1, tuple(tools), level1_score, level2_score)

        # Level 2: rank clusters by their best score over recommendations,
        # union the member tools of the strongest clusters.
        cluster_scores: dict[int, float] = {}
        for score, cluster_id in zip(level2_scores.ravel(), level2_ids.ravel()):
            cluster_id = int(cluster_id)
            cluster_scores[cluster_id] = max(cluster_scores.get(cluster_id, -np.inf),
                                             float(score))
        ranked = sorted(cluster_scores, key=lambda cid: cluster_scores[cid], reverse=True)
        tools = {}
        for cluster_id in ranked[: self.k]:
            for tool in self.levels.tools_of_cluster(cluster_id):
                tools.setdefault(tool, None)
        return ControllerDecision(2, tuple(tools), level1_score, level2_score)

    def _level3(self, level1_score: float, level2_score: float) -> ControllerDecision:
        return ControllerDecision(3, tuple(self.levels.all_tools),
                                  level1_score, level2_score)
