"""The exact cosine k-NN index and its batch-invariant gemm."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.vectorops import normalize_rows

#: Row-block size of the fixed-shape gemm.  Every block is padded to
#: exactly this many rows, so each query row is computed by an
#: identical-shape kernel regardless of batch composition.  8 balances
#: the padding waste a single-query search pays (8x rows) against the
#: Python-level block loop a large stacked batch pays (n/8 gemm calls);
#: both ends measured within ~25% of their unpadded cost.
QUERY_BLOCK = 8


def batch_invariant_matmul(queries: np.ndarray, vectors_t: np.ndarray) -> np.ndarray:
    """``queries @ vectors_t`` with batch-composition-invariant rows.

    BLAS picks different blocking (and therefore a different float
    summation order) depending on the matrix shapes, so a plain
    ``queries @ vectors.T`` gives *bitwise different* scores for the
    same query depending on how many other queries share the batch.
    Here the query rows are processed in blocks of exactly
    :data:`QUERY_BLOCK` rows (zero-padded), so the per-row result is
    bitwise identical whether a query is scored alone or stacked with
    hundreds of others — the property the micro-batching scheduler
    relies on for served results to equal sequential ones.
    """
    n_queries = queries.shape[0]
    padded = np.zeros((-(-n_queries // QUERY_BLOCK) * QUERY_BLOCK, queries.shape[1]))
    padded[:n_queries] = queries
    scores = np.empty((len(padded), vectors_t.shape[1]))
    for start in range(0, len(padded), QUERY_BLOCK):
        block = slice(start, start + QUERY_BLOCK)
        np.matmul(padded[block], vectors_t, out=scores[block])
    return scores[:n_queries]


@dataclass
class SearchResult:
    """Top-k result for one query: parallel score/id arrays, best first."""

    scores: np.ndarray
    ids: np.ndarray

    def top(self) -> tuple[float, int]:
        """Return the single best ``(score, id)`` pair."""
        if len(self.ids) == 0:
            raise ValueError("empty search result")
        return float(self.scores[0]), int(self.ids[0])


@dataclass
class VectorIndex:
    """Id-addressed vector storage with exact cosine k-NN search.

    The FAISS ``IndexFlatIP`` over unit-norm vectors that the
    Less-is-More Tool Controller searches: tool pools are tiny (tens of
    tools), so exact search is both the fastest and the most faithful
    reproduction of the paper's FAISS usage.

    Search is fully batched: one gemm against the row-normalised stored
    vectors produces the whole ``(q, n)`` score matrix and one
    vectorized selection pass ranks every query — no per-query Python
    loop, nothing recomputed from the stored side per call.
    """

    dim: int

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        self._vectors = np.zeros((0, self.dim))
        self._ids = np.zeros(0, dtype=np.int64)
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
        # an empty index ranks (q, 0) scores into (q, 0) results
        return self._rank_batch(
            batch_invariant_matmul(normalize_rows(queries), self._operand.T),
            min(k, len(self)))

    def _refresh_operand(self) -> None:
        """Row-normalise the stored vectors for the gemm.

        Called whenever they change (construction, ``add``), so a
        search never re-derives anything from data that did not change
        since the last one.
        """
        self._operand = normalize_rows(self._vectors)

    def _rank_batch(self, score_matrix: np.ndarray,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ``(scores, ids)`` of every score row in one pass.

        When ``k`` is a strict subset, an ``argpartition`` pass selects
        the top block before only that block is sorted — O(n + k log k)
        per query instead of O(n log n).  The sorts are stable: exact
        ties keep ``argpartition``'s order within a top block, and stored
        order when every row is ranked.
        """
        # argsort/argpartition pick minima; negate the similarities so
        # "best" is the smallest key
        keys = -score_matrix
        at = np.arange(score_matrix.shape[0])[:, None]
        if k < score_matrix.shape[1]:
            block = keys.argpartition(k - 1, axis=1)[:, :k]
            top = block[at, keys[at, block].argsort(axis=1, kind="stable")]
        else:
            top = keys.argsort(axis=1, kind="stable")
        return score_matrix[at, top], self._ids[top]
