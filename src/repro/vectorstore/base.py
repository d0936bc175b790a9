"""Common interface for vector indexes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.vectorstore.metrics import Metric, get_metric


@dataclass
class SearchResult:
    """Top-k result for one query: parallel score/id arrays, best first."""

    scores: np.ndarray
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def top(self) -> tuple[float, int]:
        """Return the single best ``(score, id)`` pair."""
        if len(self.ids) == 0:
            raise ValueError("empty search result")
        return float(self.scores[0]), int(self.ids[0])

    def mean_score(self) -> float:
        """Average score of the retrieved neighbours (0.0 when empty).

        This is the quantity the paper's Tool Controller compares across
        Search Levels ("average top-k score", Section III-C).
        """
        if len(self.scores) == 0:
            return 0.0
        return float(np.mean(self.scores))


@dataclass
class VectorIndex:
    """Base class: id-addressed vector storage with exact k-NN search."""

    dim: int
    metric: Metric = field(default_factory=lambda: get_metric("cosine"))

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        self.metric = get_metric(self.metric)
        self._vectors = np.zeros((0, self.dim))
        self._ids = np.zeros(0, dtype=np.int64)
        # hoisted 0..n-1 row ids, maintained on add (not per search call)
        self._rows = np.zeros(0, dtype=np.intp)
        self._refresh_operand()

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._vectors.shape[0])

    @property
    def ids(self) -> np.ndarray:
        """Stored ids, in insertion order."""
        return self._ids.copy()

    def add(self, vectors: np.ndarray, ids: list[int] | np.ndarray | None = None) -> None:
        """Append ``vectors`` with the given integer ids (default: 0..n-1 continuation)."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        if vectors.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {vectors.shape[1]}")
        if ids is None:
            start = len(self)
            ids = np.arange(start, start + vectors.shape[0], dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape[0] != vectors.shape[0]:
                raise ValueError("ids and vectors length mismatch")
            duplicate = np.intersect1d(ids, self._ids)
            if duplicate.size or len(set(ids.tolist())) != ids.shape[0]:
                raise ValueError("duplicate ids are not allowed")
        self._vectors = np.vstack([self._vectors, vectors])
        self._ids = np.concatenate([self._ids, ids])
        self._rows = np.arange(self._vectors.shape[0], dtype=np.intp)
        self._refresh_operand()

    def reconstruct(self, vector_id: int) -> np.ndarray:
        """Return the stored vector for ``vector_id``."""
        matches = np.nonzero(self._ids == vector_id)[0]
        if matches.size == 0:
            raise KeyError(f"id {vector_id} not in index")
        return self._vectors[matches[0]].copy()

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(self, queries: np.ndarray, k: int) -> list[SearchResult]:
        """Return the top-``k`` neighbours for each query row."""
        scores, ids = self._search_checked(queries, k)
        return [SearchResult(scores=row_scores, ids=row_ids)
                for row_scores, row_ids in zip(scores, ids)]

    def search_one(self, query: np.ndarray, k: int) -> SearchResult:
        """Convenience: top-``k`` neighbours of a single vector."""
        return self.search(np.atleast_2d(query), k)[0]

    def search_arrays(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Batched top-k as ``(scores, ids)`` matrices of shape ``(q, k')``.

        ``k'`` is ``k`` clamped to the index size.
        """
        return self._search_checked(queries, k)

    def _search_checked(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Validate the call, then rank: what both public forms share."""
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        if queries.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {queries.shape[1]}")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if len(self) == 0:
            n_queries = queries.shape[0]
            return (np.zeros((n_queries, 0)),
                    np.zeros((n_queries, 0), dtype=np.int64))
        return self._search_arrays_impl(queries, min(k, len(self)))

    # pickling ----------------------------------------------------------
    def __getstate__(self) -> dict:
        # the operand is a function of the stored vectors: rebuilt on the
        # receiving side, never shipped
        state = self.__dict__.copy()
        state.pop("_operand", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._refresh_operand()

    # hooks -------------------------------------------------------------
    def _refresh_operand(self) -> None:
        """Recompute what search needs of the stored vectors.

        Called whenever they change (construction, ``add``, unpickling),
        so a search never re-derives anything from data that did not
        change since the last one.
        """
        self._operand = self.metric.prepare(self._vectors)

    def _search_arrays_impl(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Rank validated ``queries`` against a non-empty index.

        Returns ``(scores, ids)``: ``(q, k')`` matrices, best first.  The
        one hook behind both :meth:`search` and :meth:`search_arrays`;
        subclasses override this, never the public methods.
        """
        raise NotImplementedError

    # shared helpers -----------------------------------------------------
    def _rank_batch(self, score_matrix: np.ndarray, candidate_rows: np.ndarray,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ``(scores, ids)`` of every score row in one pass.

        ``score_matrix`` is ``(q, c)`` over the shared ``candidate_rows``.
        When ``k`` is a strict subset, an ``argpartition`` pass selects
        the top block before only that block is sorted — O(c + k log k)
        per query instead of O(c log c).
        """
        # argsort/argpartition pick minima; negate similarities so "best"
        # is always the smallest key
        keys = -score_matrix if self.metric.higher_is_better else score_matrix
        n_candidates = score_matrix.shape[1]
        if k < n_candidates:
            block = np.argpartition(keys, k - 1, axis=1)[:, :k]
            block_keys = np.take_along_axis(keys, block, axis=1)
            order = np.argsort(block_keys, axis=1, kind="stable")
            top = np.take_along_axis(block, order, axis=1)
        else:
            top = np.argsort(keys, axis=1, kind="stable")
        return (np.take_along_axis(score_matrix, top, axis=1),
                self._ids[candidate_rows[top]])
