"""Agglomerative clustering via the Lance-Williams recurrence.

Starts from singleton clusters and repeatedly merges the closest pair,
updating inter-cluster distances with the Lance-Williams formula so all
four classic linkages share one O(n^2)-memory implementation.  Each of
the n-1 merges does O(n^2) work (the argmin over the distance matrix,
then one row update), and all of it is numpy: the live slots are a
boolean mask and the cluster sizes a per-slot array, so no Python loop
runs over the slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clustering.distances import pairwise_distances

_LINKAGES = ("single", "complete", "average", "ward")


@dataclass(frozen=True)
class Merge:
    """One dendrogram merge: clusters ``left`` and ``right`` at ``distance``."""

    left: int
    right: int
    distance: float
    size: int


@dataclass
class Dendrogram:
    """Full merge history over ``n_points`` leaves.

    Cluster ids follow scipy convention: leaves are ``0..n-1``, the merge
    recorded at position ``i`` creates cluster ``n + i``.
    """

    n_points: int
    merges: list[Merge] = field(default_factory=list)

    def cut(self, n_clusters: int | None = None, distance_threshold: float | None = None) -> np.ndarray:
        """Return flat labels, cutting by cluster count or distance.

        Exactly one of ``n_clusters`` / ``distance_threshold`` must be
        given.  Labels are relabelled to ``0..k-1`` in order of first
        appearance.
        """
        if (n_clusters is None) == (distance_threshold is None):
            raise ValueError("specify exactly one of n_clusters or distance_threshold")
        if n_clusters is not None:
            if not 1 <= n_clusters <= self.n_points:
                raise ValueError(f"n_clusters must be in [1, {self.n_points}], got {n_clusters}")
            n_merges = self.n_points - n_clusters
        else:
            n_merges = sum(1 for merge in self.merges if merge.distance <= distance_threshold)

        parent = list(range(self.n_points + len(self.merges)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, merge in enumerate(self.merges[:n_merges]):
            new_id = self.n_points + i
            parent[find(merge.left)] = new_id
            parent[find(merge.right)] = new_id

        roots: dict[int, int] = {}
        labels = np.zeros(self.n_points, dtype=np.int64)
        for point in range(self.n_points):
            root = find(point)
            if root not in roots:
                roots[root] = len(roots)
            labels[point] = roots[root]
        return labels


def _lance_williams(linkage: str, d_ik: np.ndarray, d_jk: np.ndarray,
                    d_ij: float, n_i: int, n_j: int, n_k: np.ndarray) -> np.ndarray:
    """Distance from merged cluster (i∪j) to every other cluster k."""
    if linkage == "single":
        return np.minimum(d_ik, d_jk)
    if linkage == "complete":
        return np.maximum(d_ik, d_jk)
    if linkage == "average":
        total = n_i + n_j
        return (n_i * d_ik + n_j * d_jk) / total
    # ward (on squared euclidean distances, sqrt applied by caller)
    total = n_i + n_j + n_k
    return np.sqrt(
        ((n_i + n_k) * d_ik**2 + (n_j + n_k) * d_jk**2 - n_k * d_ij**2) / total
    )


class AgglomerativeClustering:
    """Bottom-up hierarchical clustering.

    Parameters
    ----------
    n_clusters:
        Number of flat clusters to cut (mutually exclusive with
        ``distance_threshold``).
    linkage:
        ``single`` | ``complete`` | ``average`` | ``ward``.  Ward requires
        the euclidean metric (as in scikit-learn).
    metric:
        ``euclidean`` or ``cosine`` (see :func:`pairwise_distances`).
    """

    def __init__(
        self,
        n_clusters: int | None = None,
        distance_threshold: float | None = None,
        linkage: str = "average",
        metric: str = "euclidean",
    ):
        if linkage not in _LINKAGES:
            raise ValueError(f"unknown linkage {linkage!r}; choose from {_LINKAGES}")
        if linkage == "ward" and metric != "euclidean":
            raise ValueError("ward linkage requires the euclidean metric")
        if (n_clusters is None) == (distance_threshold is None):
            raise ValueError("specify exactly one of n_clusters or distance_threshold")
        self.n_clusters = n_clusters
        self.distance_threshold = distance_threshold
        self.linkage = linkage
        self.metric = metric
        self.dendrogram_: Dendrogram | None = None
        self.labels_: np.ndarray | None = None

    def build_dendrogram(self, vectors: np.ndarray) -> Dendrogram:
        """Run the full merge sequence and return the dendrogram."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        n = vectors.shape[0]
        if n == 0:
            raise ValueError("cannot cluster an empty dataset")
        dist = pairwise_distances(vectors, metric=self.metric)
        dendrogram = Dendrogram(n_points=n)
        # the distance matrix is indexed by row slots; a merge keeps the
        # lower slot for the new cluster and retires the higher one
        live = np.ones(n, dtype=bool)
        sizes = np.ones(n)  # slot -> cluster size
        cluster_of = list(range(n))  # slot -> cluster id
        np.fill_diagonal(dist, np.inf)

        for next_id in range(n, 2 * n - 1):
            row, col = divmod(int(np.argmin(dist)), n)
            if row > col:
                row, col = col, row
            d_ij = float(dist[row, col])
            left_id, right_id = cluster_of[row], cluster_of[col]
            n_i, n_j = int(sizes[row]), int(sizes[col])

            live[row] = live[col] = False
            other_idx = np.flatnonzero(live)
            live[row] = True  # slot `row` now holds the merged cluster
            if other_idx.size:
                merged = _lance_williams(
                    self.linkage, dist[row, other_idx], dist[col, other_idx],
                    d_ij, n_i, n_j, sizes[other_idx],
                )
                dist[row, other_idx] = merged
                dist[other_idx, row] = merged
            # retire slot `col`
            dist[col, :] = np.inf
            dist[:, col] = np.inf
            dist[row, row] = np.inf
            cluster_of[row] = next_id
            sizes[row] = n_i + n_j
            dendrogram.merges.append(Merge(left_id, right_id, d_ij, n_i + n_j))
        return dendrogram

    def fit(self, vectors: np.ndarray) -> "AgglomerativeClustering":
        """Cluster ``vectors``; labels land in :attr:`labels_`."""
        self.dendrogram_ = self.build_dendrogram(vectors)
        n = self.dendrogram_.n_points
        if self.n_clusters is not None:
            self.labels_ = self.dendrogram_.cut(n_clusters=min(self.n_clusters, n))
        else:
            self.labels_ = self.dendrogram_.cut(distance_threshold=self.distance_threshold)
        return self

    def fit_predict(self, vectors: np.ndarray) -> np.ndarray:
        """Cluster ``vectors`` and return the flat labels."""
        self.fit(vectors)
        assert self.labels_ is not None
        return self.labels_
