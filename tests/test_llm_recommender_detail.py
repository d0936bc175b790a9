"""Focused tests on the recommender's degradation channels."""

import numpy as np
import pytest

from repro.embedding.cache import shared_embedder
from repro.llm import SimulatedLLM
from repro.llm.engine import _GENERIC_WORDS
from repro.suites.bfcl import build_bfcl_suite
from repro.suites.geoengine import build_geoengine_suite
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module")
def bfcl():
    return build_bfcl_suite(n_queries=30)


@pytest.fixture(scope="module")
def geo():
    return build_geoengine_suite(n_queries=30)


def retrieval_quality(llm, suite, n=20):
    """Mean cosine of the first recommendation to its gold description."""
    embedder = shared_embedder()
    sims = []
    for query in suite.queries[:n]:
        output = llm.recommend_tools(query, suite.catalog)
        gold = suite.catalog.get(query.gold_tools[0]).description
        sims.append(float(np.dot(embedder.encode_one(output.descriptions[0]),
                                 embedder.encode_one(gold))))
    return float(np.mean(sims))


class TestQualityScalesWithReasoning:
    def test_strong_beats_weak(self, bfcl):
        strong = SimulatedLLM.from_registry("hermes2-pro-8b", "full")
        weak = SimulatedLLM.from_registry("mistral-8b", "q4_0")
        assert retrieval_quality(strong, bfcl) > retrieval_quality(weak, bfcl) + 0.1

    def test_quantization_degrades_same_model(self, bfcl):
        # use a strong reasoner: its quantization delta (0.80 -> 0.57
        # effective quality) dwarfs paraphrase sampling noise
        full = SimulatedLLM.from_registry("llama3.1-8b", "full")
        q4 = SimulatedLLM.from_registry("llama3.1-8b", "q4_0")
        assert retrieval_quality(full, bfcl, n=30) > retrieval_quality(q4, bfcl, n=30)

    def test_weak_models_emit_generic_filler(self, bfcl):
        weak = SimulatedLLM.from_registry("mistral-8b", "q4_0")
        generic_hits = 0
        for query in bfcl.queries[:20]:
            output = weak.recommend_tools(query, bfcl.catalog)
            words = set(" ".join(output.descriptions).split())
            generic_hits += int(bool(words & set(_GENERIC_WORDS)))
        assert generic_hits >= 5  # genericisation is the weak-model signature


class TestMergingBehaviour:
    def test_sequential_tasks_get_merged_descriptions(self, geo):
        llm = SimulatedLLM.from_registry("hermes2-pro-8b", "full")
        merged = 0
        for query in geo.queries:
            output = llm.recommend_tools(query, geo.catalog)
            if len(output.descriptions) < len(set(query.gold_tools)):
                merged += 1
        # most multi-tool chains blend at least two needs into one text
        assert merged > len(geo.queries) / 2

    def test_single_tool_queries_never_merge(self, bfcl):
        llm = SimulatedLLM.from_registry("hermes2-pro-8b", "full")
        for query in bfcl.queries[:15]:
            output = llm.recommend_tools(query, bfcl.catalog)
            # one gold tool -> at least one description, possibly plus a
            # spurious extra, never zero
            assert 1 <= len(output.descriptions) <= 2

    def test_merge_helper_respects_probability(self):
        llm = SimulatedLLM.from_registry("hermes2-pro-8b", "full")
        texts = ["First tool description.", "Second tool description.",
                 "Third tool description."]
        never = llm._merge_related_needs(list(texts), derive_rng("m0"), merge_p=0.0)
        always = llm._merge_related_needs(list(texts), derive_rng("m1"), merge_p=1.0)
        assert never == texts
        assert len(always) == 2  # adjacent pairs fuse, odd one remains


class TestUsageAccounting:
    def test_completion_scales_with_description_count(self, geo, bfcl):
        llm = SimulatedLLM.from_registry("hermes2-pro-8b", "full")
        geo_usage = np.mean([
            llm.recommend_tools(q, geo.catalog).usage.completion_tokens
            for q in geo.queries[:10]
        ])
        bfcl_usage = np.mean([
            llm.recommend_tools(q, bfcl.catalog).usage.completion_tokens
            for q in bfcl.queries[:10]
        ])
        assert geo_usage > bfcl_usage  # chains describe more tools

    def test_recommender_usage_is_small_vs_agent_call(self, bfcl):
        # paper Section III-B: "negligible overhead compared to the
        # subsequent function calling"
        llm = SimulatedLLM.from_registry("llama3.1-8b", "q4_K_M")
        query = bfcl.queries[0]
        rec_usage = llm.recommend_tools(query, bfcl.catalog).usage
        turn = llm.execute_step(query, 0, list(bfcl.catalog), 16384)
        assert rec_usage.prompt_tokens < 0.1 * turn.usage.prompt_tokens
