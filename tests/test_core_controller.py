"""Tests for repro.core.controller: level arbitration + fallbacks."""

import numpy as np
import pytest

from repro.core.controller import ToolController
from repro.core.levels import SearchLevelBuilder
from repro.embedding.cache import shared_embedder
from repro.suites.bfcl import build_bfcl_suite
from repro.suites.geoengine import build_geoengine_suite


@pytest.fixture(scope="module")
def embedder():
    return shared_embedder()


@pytest.fixture(scope="module")
def bfcl_levels(embedder):
    return SearchLevelBuilder(embedder=embedder).build(build_bfcl_suite(n_queries=10, n_train=60))


@pytest.fixture(scope="module")
def geo_levels(embedder):
    return SearchLevelBuilder(embedder=embedder).build(
        build_geoengine_suite(n_queries=10, n_train=60))


class TestArbitration:
    def test_single_tool_query_selects_level1(self, embedder, bfcl_levels):
        controller = ToolController(bfcl_levels, k=3)
        vec = embedder.encode_one(
            "Get the current weather conditions and temperature for a city.")
        decision = controller.decide_batch([vec[None, :]])[0]
        assert decision.level == 1
        assert "get_current_weather" in decision.tools
        assert len(decision.tools) <= 3

    def test_multi_tool_needs_prefer_level2(self, embedder, geo_levels):
        texts = [
            "Load a satellite imagery archive and filter scenes by country region.",
            "Generate captions for the scenes and plot them on a map viewer.",
        ]
        decision = ToolController(geo_levels, k=3).decide_batch([embedder.encode(texts)])[0]
        assert decision.level == 2
        assert len(decision.tools) > 3  # cluster union, not single tools

    def test_gibberish_falls_back_to_level3(self, embedder, bfcl_levels):
        controller = ToolController(bfcl_levels, k=3)
        vec = embedder.encode_one("zz qq xx yy www vv")
        decision = controller.decide_batch([vec[None, :]])[0]
        assert decision.level == 3
        assert len(decision.tools) == len(bfcl_levels.all_tools)

    def test_empty_recommendations_level3(self, bfcl_levels):
        decision = ToolController(bfcl_levels, k=3).decide_batch([np.zeros((0, 768))])[0]
        assert decision.level == 3

    def test_zero_vector_level3(self, bfcl_levels):
        decision = ToolController(bfcl_levels, k=3).decide_batch([np.zeros((1, 768))])[0]
        assert decision.level == 3

    def test_scores_reported(self, embedder, bfcl_levels):
        vec = embedder.encode_one("Translate text into another language.")
        decision = ToolController(bfcl_levels, k=3).decide_batch([vec[None, :]])[0]
        assert decision.level1_score > 0.3
        assert decision.level2_score >= 0.0

    def test_empty_cluster_index_never_wins_arbitration(self, embedder, bfcl_levels):
        """A negative Level-1 mean must not lose to an empty Level 2."""
        from dataclasses import replace

        from repro.vectorstore import VectorIndex

        no_clusters = replace(bfcl_levels, clusters=[],
                              cluster_index=VectorIndex(dim=768))
        # a vector anti-correlated with the corpus: confident top-1 but
        # negative mean top-k
        anchor = embedder.encode_one(
            "Get the current weather conditions and temperature for a city.")
        controller = ToolController(no_clusters, k=len(no_clusters.all_tools),
                                    confidence_threshold=-2.0)
        decision = controller.decide_batch([-anchor[None, :]])[0]
        assert decision.level in (1, 3)
        assert len(decision.tools) > 0


class TestConfiguration:
    def test_invalid_k(self, bfcl_levels):
        with pytest.raises(ValueError):
            ToolController(bfcl_levels, k=0)

    def test_k_bounds_level1_tools(self, embedder, bfcl_levels):
        vec = embedder.encode_one("Evaluate a mathematical expression and return the value.")
        for k in (1, 2, 5):
            decision = ToolController(bfcl_levels, k=k).decide_batch([vec[None, :]])[0]
            if decision.level == 1:
                assert len(decision.tools) <= k

    def test_threshold_one_forces_level3(self, embedder, bfcl_levels):
        controller = ToolController(bfcl_levels, k=3, confidence_threshold=1.01)
        vec = embedder.encode_one("Get the weather forecast for a city.")
        assert controller.decide_batch([vec[None, :]])[0].level == 3

    def test_threshold_zero_never_level3(self, embedder, bfcl_levels):
        controller = ToolController(bfcl_levels, k=3, confidence_threshold=0.0)
        vec = embedder.encode_one("Translate a short sentence.")
        assert controller.decide_batch([vec[None, :]])[0].level in (1, 2)

    def test_max_level2_clusters_caps_union(self, embedder, geo_levels):
        texts = [
            "Load a satellite imagery archive and filter scenes by country region.",
            "Generate captions for the scenes and plot them on a map viewer.",
        ]
        small, large = (
            ToolController(geo_levels, k=k, force_level=2).decide_batch([
                embedder.encode(texts)])[0]
            for k in (1, 3))
        assert small.level == large.level == 2
        # k=1 presents the one best cluster, which leads the k=3 union
        assert small.tools in {cluster.tools for cluster in geo_levels.clusters}
        assert large.tools[:len(small.tools)] == small.tools
        assert len(small.tools) < len(large.tools)

    def test_decision_tools_unique(self, embedder, geo_levels):
        texts = ["Detect ships in coastal imagery and count them per scene."]
        decision = ToolController(geo_levels, k=5).decide_batch([embedder.encode(texts)])[0]
        assert len(decision.tools) == len(set(decision.tools))
