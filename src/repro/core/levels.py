"""Offline construction of the three Search Levels (paper Section III-A)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clustering import AgglomerativeClustering
from repro.embedding.cache import CachedEmbedder, shared_embedder
from repro.suites.augmentation import AugmentationEngine
from repro.suites.base import BenchmarkSuite
from repro.utils.vectorops import normalize_rows
from repro.vectorstore import FlatIndex


@dataclass(frozen=True)
class ToolCluster:
    """One Level-2 cluster: a synergy group of tools with a centroid."""

    cluster_id: int
    tools: tuple[str, ...]
    n_samples: int


@dataclass
class SearchLevels:
    """The populated latent spaces the Tool Controller searches.

    Attributes
    ----------
    tool_index:
        Level 1 — FAISS-style flat index of per-tool description
        embeddings; ids are positions in ``tool_names``.
    cluster_index:
        Level 2 — flat index of cluster centroids over the augmented
        query space; ids index ``clusters``.
    tool_names / clusters:
        Id-resolution tables for the two indexes.
    """

    suite_name: str
    tool_names: list[str]
    tool_index: FlatIndex
    clusters: list[ToolCluster]
    cluster_index: FlatIndex
    all_tools: list[str] = field(default_factory=list)

    def tools_of_cluster(self, cluster_id: int) -> tuple[str, ...]:
        """Member tools of one Level-2 cluster."""
        return self.clusters[cluster_id].tools

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


class SearchLevelBuilder:
    """Builds :class:`SearchLevels` for a suite (one-time offline step).

    Parameters
    ----------
    embedder:
        Shared cached embedder (the "pretrained MPNet tokenizer").
    n_clusters:
        Level-2 cluster count; default scales with the tool pool so
        clusters stay small enough that the top-k union is a genuine
        reduction (paper Table II passes 19 of 46 tools).
    linkage:
        Agglomerative linkage for the augmented space (paper uses
        scikit-learn's agglomerative clustering; average linkage on
        cosine distance suits unit-norm sentence embeddings).
    """

    def __init__(
        self,
        embedder: CachedEmbedder | None = None,
        n_clusters: int | str | None = None,
        linkage: str = "ward",
        augmentation_seed: int = 0,
    ):
        if isinstance(n_clusters, str) and n_clusters != "auto":
            raise ValueError(f"n_clusters must be an int, 'auto' or None, got {n_clusters!r}")
        self.embedder = embedder if embedder is not None else shared_embedder()
        self.n_clusters = n_clusters
        self.linkage = linkage
        self.augmentation_seed = augmentation_seed

    def build(self, suite: BenchmarkSuite) -> SearchLevels:
        """Populate all search levels for ``suite``."""
        tool_names = suite.catalog.names
        tool_index = self._build_level1(suite)
        clusters, cluster_index = self._build_level2(suite)
        return SearchLevels(
            suite_name=suite.name,
            tool_names=tool_names,
            tool_index=tool_index,
            clusters=clusters,
            cluster_index=cluster_index,
            all_tools=list(tool_names),
        )

    # ------------------------------------------------------------------
    # Level 1: individual tool embeddings
    # ------------------------------------------------------------------
    def _build_level1(self, suite: BenchmarkSuite) -> FlatIndex:
        vectors = self.embedder.encode(suite.catalog.descriptions())
        index = FlatIndex(dim=self.embedder.dim, metric="cosine")
        index.add(vectors)
        return index

    # ------------------------------------------------------------------
    # Level 2: clusters over the augmented query space
    # ------------------------------------------------------------------
    def _build_level2(self, suite: BenchmarkSuite) -> tuple[list[ToolCluster], FlatIndex]:
        samples = AugmentationEngine(suite, seed=self.augmentation_seed).generate()
        index = FlatIndex(dim=self.embedder.dim, metric="cosine")
        if not samples:
            return [], index

        vectors = self.embedder.encode([sample.text for sample in samples])
        # ward needs euclidean, which is monotonic in cosine on unit-norm
        # sentence embeddings, so both linkages cluster the same geometry
        metric = "euclidean" if self.linkage == "ward" else "cosine"
        if self.n_clusters == "auto":
            from repro.clustering.model_selection import select_n_clusters

            n_clusters, _ = select_n_clusters(
                vectors, k_min=max(4, suite.n_tools // 6),
                k_max=max(6, suite.n_tools // 2),
                linkage=self.linkage, metric=metric,
            )
        else:
            n_clusters = self.n_clusters or self._default_cluster_count(suite)
        n_clusters = min(n_clusters, len(samples))
        labels = AgglomerativeClustering(
            n_clusters=n_clusters, linkage=self.linkage, metric=metric,
        ).fit_predict(vectors)

        clusters: list[ToolCluster] = []
        centroids: list[np.ndarray] = []
        for cluster_id in range(int(labels.max()) + 1):
            member_rows = np.nonzero(labels == cluster_id)[0]
            tools: dict[str, None] = {}
            for row in member_rows:
                for tool in samples[int(row)].tools:
                    tools.setdefault(tool, None)
            clusters.append(ToolCluster(
                cluster_id=len(clusters),
                tools=tuple(tools),
                n_samples=int(member_rows.size),
            ))
            centroids.append(self._cluster_centroid(suite, tuple(tools)))
        index.add(np.stack(centroids))
        return clusters, index

    def _cluster_centroid(self, suite: BenchmarkSuite, tools: tuple[str, ...]) -> np.ndarray:
        """Centroid of a cluster in the *tool description* space.

        Grouping comes from the augmented query space (co-usage), but the
        centroid is represented over the member tools' descriptions so it
        is directly comparable with the recommender's tool-shaped
        descriptions at query time (the same space Level 1 lives in).
        """
        descriptions = [suite.catalog.get(name).description for name in tools]
        vectors = self.embedder.encode(descriptions)
        return normalize_rows(vectors.mean(axis=0, keepdims=True))[0]

    @staticmethod
    def _default_cluster_count(suite: BenchmarkSuite) -> int:
        """Aim for clusters of ~3-5 tools.

        Small clusters keep centroids crisp (better arbitration) and
        keep top-k unions a genuine reduction: the paper's Table II
        example passes 19 of GeoEngine's 46 tools.
        """
        return max(4, suite.n_tools // 3)
