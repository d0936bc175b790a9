"""Tests for repro.suites.augmentation."""

import pytest

from repro.suites.augmentation import AugmentationEngine
from repro.suites.bfcl import build_bfcl_suite
from repro.suites.geoengine import build_geoengine_suite
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module")
def geo_suite():
    return build_geoengine_suite(n_queries=40, n_train=60)


@pytest.fixture(scope="module")
def geo_samples(geo_suite):
    return AugmentationEngine(geo_suite).generate()


class TestAugmentationEngine:
    def test_produces_samples(self, geo_samples):
        assert len(geo_samples) >= 30

    def test_deterministic(self, geo_suite):
        a = AugmentationEngine(geo_suite).generate()
        b = AugmentationEngine(geo_suite).generate()
        assert [s.text for s in a] == [s.text for s in b]

    def test_all_kinds_present(self, geo_samples):
        kinds = {sample.kind for sample in geo_samples}
        assert kinds == {"paraphrase", "permutation", "combination"}

    def test_tools_are_valid(self, geo_suite, geo_samples):
        for sample in geo_samples:
            assert sample.tools, sample.text
            for tool in sample.tools:
                assert tool in geo_suite.catalog

    def test_rouge_band_enforced(self, geo_samples):
        for sample in geo_samples:
            assert 0.05 <= sample.rouge_to_source <= 0.95

    def test_combination_unions_tools(self, geo_samples):
        combos = [s for s in geo_samples if s.kind == "combination"]
        assert combos
        # at least one combination must span more tools than a single chain
        assert any(len(sample.tools) >= 5 for sample in combos)

    def test_permutation_changes_one_tool(self, geo_suite, geo_samples):
        by_qid = {q.qid: q for q in geo_suite.train_queries}
        perms = [s for s in geo_samples if s.kind == "permutation"]
        assert perms
        for sample in perms:
            source = by_qid[sample.source_qids[0]]
            original = set(dict.fromkeys(source.gold_tools))
            swapped = set(sample.tools)
            assert len(original ^ swapped) == 2  # exactly one out, one in

    def test_works_on_bfcl_too(self):
        suite = build_bfcl_suite(n_queries=20, n_train=60)
        samples = AugmentationEngine(suite).generate()
        assert len(samples) >= 30

    def test_paraphrase_changes_wording(self, geo_suite):
        engine = AugmentationEngine(geo_suite)
        rng = derive_rng("test-paraphrase")
        text = "plot the weather forecast for the region"
        paraphrase = engine.paraphrase_text(text, rng, substitution_rate=1.0)
        assert paraphrase != text

    def test_zero_rate_is_identity(self, geo_suite):
        engine = AugmentationEngine(geo_suite)
        rng = derive_rng("test-paraphrase-0")
        text = "plot the weather forecast"
        assert engine.paraphrase_text(text, rng, substitution_rate=0.0) == text
