"""Exact (brute-force) k-NN index — the FAISS ``IndexFlat*`` equivalent."""

from __future__ import annotations

import numpy as np

from repro.vectorstore.base import VectorIndex


class FlatIndex(VectorIndex):
    """Exact nearest-neighbour search over all stored vectors.

    This is the index used by the Less-is-More Tool Controller: tool
    pools are tiny (tens of tools), so exact search is both the fastest
    and the most faithful reproduction of the paper's FAISS usage.

    Search is fully batched: one metric evaluation against the prepared
    stored vectors produces the whole ``(q, n)`` score matrix and one
    vectorized selection pass ranks every query — no per-query Python
    loop, nothing recomputed from the stored side per call.
    """

    def _search_arrays_impl(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        score_matrix = self.metric.score_prepared(queries, self._operand)
        return self._rank_batch(score_matrix, self._rows, k)
