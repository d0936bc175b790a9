"""Tests for repro.core.levels: offline Search Level construction."""

import numpy as np
import pytest

from repro.core.levels import SearchLevelBuilder
from repro.embedding.cache import shared_embedder
from repro.suites.bfcl import build_bfcl_suite
from repro.suites.geoengine import build_geoengine_suite


@pytest.fixture(scope="module")
def geo_suite():
    return build_geoengine_suite(n_queries=20, n_train=60)


@pytest.fixture(scope="module")
def geo_levels(geo_suite):
    return SearchLevelBuilder(embedder=shared_embedder()).build(geo_suite)


class TestLevel1:
    def test_one_vector_per_tool(self, geo_suite, geo_levels):
        assert len(geo_levels.tool_index) == geo_suite.n_tools
        assert geo_levels.tool_names == geo_suite.catalog.names

    def test_tool_lookup_by_own_description(self, geo_suite, geo_levels):
        embedder = shared_embedder()
        hits = 0
        for row, name in enumerate(geo_levels.tool_names[:20]):
            description = geo_suite.catalog.get(name).description
            result = geo_levels.tool_index.search_one(embedder.encode_one(description), 1)
            hits += int(result.top()[1] == row)
        assert hits >= 19  # exact self-retrieval on the tool corpus


class TestLevel2:
    def test_clusters_nonempty(self, geo_levels):
        assert geo_levels.n_clusters >= 4
        for cluster in geo_levels.clusters:
            assert cluster.tools
            assert cluster.n_samples >= 1

    def test_cluster_index_matches_cluster_list(self, geo_levels):
        assert len(geo_levels.cluster_index) == geo_levels.n_clusters

    def test_clusters_capture_co_usage(self, geo_suite, geo_levels):
        # load_dataset is chained with region filtering in every workflow:
        # some cluster must contain both (the synergy Level 2 exists for)
        assert any(
            "load_dataset" in cluster.tools and "filter_images_by_region" in cluster.tools
            for cluster in geo_levels.clusters
        )

    def test_tools_of_cluster(self, geo_levels):
        first = geo_levels.clusters[0]
        assert geo_levels.tools_of_cluster(0) == first.tools

    def test_centroids_unit_norm(self, geo_levels):
        for cluster in geo_levels.clusters:
            centroid = geo_levels.cluster_index.reconstruct(cluster.cluster_id)
            assert np.linalg.norm(centroid) == pytest.approx(1.0, abs=1e-6)

    def test_cluster_sizes_are_reductions(self, geo_suite, geo_levels):
        # every cluster must be a strict subset of the pool (paper: the
        # whole point is presenting fewer tools)
        for cluster in geo_levels.clusters:
            assert len(cluster.tools) < geo_suite.n_tools


class TestBuilderOptions:
    def test_explicit_cluster_count(self, geo_suite):
        levels = SearchLevelBuilder(embedder=shared_embedder(), n_clusters=5).build(geo_suite)
        assert levels.n_clusters == 5

    def test_deterministic_build(self, geo_suite):
        a = SearchLevelBuilder(embedder=shared_embedder()).build(geo_suite)
        b = SearchLevelBuilder(embedder=shared_embedder()).build(geo_suite)
        assert [c.tools for c in a.clusters] == [c.tools for c in b.clusters]

    def test_works_on_bfcl(self):
        suite = build_bfcl_suite(n_queries=10, n_train=60)
        levels = SearchLevelBuilder(embedder=shared_embedder()).build(suite)
        assert len(levels.tool_index) == 51
        assert levels.n_clusters >= 4
