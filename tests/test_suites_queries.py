"""Tests for the suite query generators."""

import pytest

from repro.suites import load_suite
from repro.suites.base import BenchmarkSuite, Query
from repro.suites.bfcl import build_bfcl_suite, generate_bfcl_queries
from repro.suites.geoengine import build_geoengine_suite, generate_geoengine_queries
from repro.tools.schema import ToolCall


class TestLoadSuite:
    def test_names(self):
        assert load_suite("bfcl", n_queries=5).name == "bfcl"
        assert load_suite("GEOENGINE", n_queries=5).name == "geoengine"

    def test_unknown(self):
        with pytest.raises(ValueError):
            load_suite("toolbench")

    def test_default_batch_is_paper_230(self):
        assert len(load_suite("bfcl").queries) == 230


class TestQueryDataclass:
    def test_empty_gold_calls_rejected(self):
        with pytest.raises(ValueError):
            Query(qid="q", text="t", category="c", gold_calls=())

    def test_gold_tools_order(self):
        query = Query("q", "t", "c", (ToolCall("a"), ToolCall("b")))
        assert query.gold_tools == ("a", "b")
        assert query.n_steps == 2


class TestBfclSuite:
    @pytest.fixture(scope="class")
    def suite(self):
        return build_bfcl_suite(n_queries=120)

    def test_single_call_queries(self, suite):
        assert all(query.n_steps == 1 for query in suite.queries)
        assert not suite.sequential

    def test_gold_tools_exist_in_registry(self, suite):
        for query in suite.queries:
            assert query.gold_tools[0] in suite.catalog

    def test_gold_arguments_validate(self, suite):
        for query in suite.queries:
            spec = suite.catalog.get(query.gold_tools[0])
            assert spec.validate_arguments(query.gold_calls[0].arguments) == [], query.qid

    def test_deterministic_generation(self):
        a = generate_bfcl_queries(40, seed=0, split="eval")
        b = generate_bfcl_queries(40, seed=0, split="eval")
        assert [q.text for q in a] == [q.text for q in b]

    def test_train_eval_disjoint_texts(self, suite):
        eval_texts = {q.text for q in suite.queries}
        train_texts = {q.text for q in suite.train_queries}
        # different RNG streams: overlap should be rare, not total
        assert len(eval_texts & train_texts) < min(len(eval_texts), len(train_texts)) / 2

    def test_broad_tool_coverage(self, suite):
        used = {query.gold_tools[0] for query in suite.queries}
        assert len(used) >= 40  # 120 queries cycle through 51 templates

    def test_qids_unique(self, suite):
        qids = [query.qid for query in suite.queries]
        assert len(qids) == len(set(qids))


class TestGeoEngineSuite:
    @pytest.fixture(scope="class")
    def suite(self):
        return build_geoengine_suite(n_queries=64)

    def test_sequential_chains(self, suite):
        assert suite.sequential
        assert all(query.n_steps >= 3 for query in suite.queries)

    def test_gold_arguments_validate(self, suite):
        for query in suite.queries:
            for call in query.gold_calls:
                spec = suite.catalog.get(call.tool)
                assert spec.validate_arguments(call.arguments) == [], (query.qid, call.tool)

    def test_chains_start_with_data_access(self, suite):
        for query in suite.queries:
            first_tool = suite.catalog.get(query.gold_tools[0])
            assert first_tool.category == "data_access"

    def test_season_consistency(self, suite):
        # a query mentioning fall must filter on the fall season
        for query in suite.queries:
            for call in query.gold_calls:
                if call.tool == "filter_images_by_season":
                    assert call.arguments["season"] in query.text.lower()

    def test_deterministic_generation(self):
        a = generate_geoengine_queries(30, seed=1, split="eval")
        b = generate_geoengine_queries(30, seed=1, split="eval")
        assert [q.text for q in a] == [q.text for q in b]

    def test_category_labels(self, suite):
        assert ({query.category for query in suite.queries}
                <= {"vqa_mapping", "detection", "analytics", "reporting"})


class TestSuiteValidation:
    def test_unknown_gold_tool_rejected(self):
        good = build_bfcl_suite(n_queries=2)
        bad_query = Query("x", "text", "cat", (ToolCall("not_a_tool"),))
        with pytest.raises(ValueError):
            BenchmarkSuite("broken", good.catalog, [bad_query])

    def test_queries_by_category_split(self):
        suite = build_bfcl_suite(n_queries=60)
        for category in {query.category for query in suite.queries}:
            for query in suite.queries_by_category(category):
                assert query.category == category
