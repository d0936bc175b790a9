"""Inverted-file index with a k-means coarse quantizer (``IndexIVFFlat``)."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import derive_rng
from repro.vectorstore.base import Ranked, VectorIndex
from repro.vectorstore.metrics import get_metric


def kmeans(
    vectors: np.ndarray,
    n_clusters: int,
    n_iters: int = 25,
    seed_stream: str = "ivf-kmeans",
) -> tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd's k-means; returns ``(centroids, assignments)``.

    Deterministic: initial centroids are sampled from a named RNG stream.
    Empty clusters are re-seeded to the point farthest from its centroid.
    """
    vectors = np.asarray(vectors, dtype=float)
    n = vectors.shape[0]
    if n_clusters <= 0:
        raise ValueError(f"n_clusters must be positive, got {n_clusters}")
    n_clusters = min(n_clusters, n)
    rng = derive_rng(seed_stream, n, n_clusters)
    centroids = vectors[rng.choice(n, size=n_clusters, replace=False)].copy()
    l2 = get_metric("l2")
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(n_iters):
        dists = l2.score(vectors, centroids)
        new_assignments = np.argmin(dists, axis=1)
        if np.array_equal(new_assignments, assignments) and _ > 0:
            break
        assignments = new_assignments
        for cluster in range(n_clusters):
            members = vectors[assignments == cluster]
            if members.shape[0] == 0:
                worst = int(np.argmax(np.min(dists, axis=1)))
                centroids[cluster] = vectors[worst]
            else:
                centroids[cluster] = members.mean(axis=0)
    return centroids, assignments


class IVFIndex(VectorIndex):
    """Approximate k-NN: search only the ``nprobe`` nearest centroid lists.

    Mirrors ``faiss.IndexIVFFlat``.  The index must be trained (or will
    self-train on first search using the stored vectors).
    """

    def __init__(self, dim: int, metric="cosine", n_lists: int = 8, nprobe: int = 2):
        super().__init__(dim=dim, metric=metric)
        if n_lists <= 0:
            raise ValueError(f"n_lists must be positive, got {n_lists}")
        if nprobe <= 0:
            raise ValueError(f"nprobe must be positive, got {nprobe}")
        self.n_lists = int(n_lists)
        self.nprobe = int(nprobe)
        self._centroids: np.ndarray | None = None
        self._assignments: np.ndarray | None = None
        #: per-centroid member rows (sorted), rebuilt by :meth:`_reassign`
        self._list_rows: list[np.ndarray] = []

    @property
    def is_trained(self) -> bool:
        """Whether the coarse quantizer has been fitted."""
        return self._centroids is not None

    def train(self, vectors: np.ndarray | None = None) -> None:
        """Fit the coarse quantizer on ``vectors`` (default: stored data)."""
        data = self._vectors if vectors is None else np.atleast_2d(np.asarray(vectors, dtype=float))
        if data.shape[0] == 0:
            raise ValueError("cannot train IVF index without vectors")
        self._centroids, _ = kmeans(data, self.n_lists)
        self._reassign()

    def _reassign(self) -> None:
        if self._centroids is None or len(self) == 0:
            self._assignments = np.zeros(0, dtype=np.int64)
            self._list_rows = []
            return
        l2 = get_metric("l2")
        dists = l2.score(self._vectors, self._centroids)
        self._assignments = np.argmin(dists, axis=1).astype(np.int64)
        self._list_rows = [np.flatnonzero(self._assignments == cluster)
                           for cluster in range(self._centroids.shape[0])]

    def _on_add(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        if self.is_trained:
            self._reassign()

    def _search_arrays_impl(self, queries: np.ndarray, k: int) -> Ranked:
        if not self.is_trained:
            self.train()
        assert self._centroids is not None and self._assignments is not None
        l2 = get_metric("l2")
        centroid_dists = l2.score(queries, self._centroids)
        nprobe = min(self.nprobe, self._centroids.shape[0])
        # every query's probe set in one vectorized selection, then group
        # queries sharing a candidate list so each group is scored and
        # ranked with a single batched metric call
        probe_lists = np.argsort(centroid_dists, axis=1, kind="stable")[:, :nprobe]
        probe_sets, group_of = np.unique(np.sort(probe_lists, axis=1),
                                         axis=0, return_inverse=True)
        n_queries = queries.shape[0]
        scores = np.zeros((n_queries, k))
        ids = np.zeros((n_queries, k), dtype=np.int64)
        lengths = np.zeros(n_queries, dtype=np.intp)
        for group, probes in enumerate(probe_sets):
            members = np.flatnonzero(group_of == group)
            candidate_rows = np.sort(np.concatenate(
                [self._list_rows[int(cluster)] for cluster in probes]))
            if candidate_rows.size == 0:
                candidate_rows = self._rows
            # rows gathered *from* the prepared operand: preparation is
            # row-wise, so this equals preparing the gathered rows
            group_scores = self.metric.score_prepared(
                queries[members], self._operand.take(candidate_rows))
            width = min(k, candidate_rows.size)
            scores[members, :width], ids[members, :width] = self._rank_batch(
                group_scores, candidate_rows, width)
            lengths[members] = width
        width = int(lengths.max())
        if (lengths == width).all():
            return scores[:, :width], ids[:, :width], None
        return scores, ids, lengths
