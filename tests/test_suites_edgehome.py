"""Tests for the edgehome generalization suite."""

import pytest

from repro.suites import load_suite
from repro.suites.edgehome import build_edgehome_suite
from repro.tools import load_catalog


@pytest.fixture(scope="module")
def suite():
    return build_edgehome_suite(n_queries=60)


class TestRegistry:
    def test_32_tools(self):
        assert len(load_catalog("edgehome")) == 32

    def test_three_domains(self):
        assert set(load_catalog("edgehome").categories) == {"home", "assistant", "media"}

    def test_no_collision_with_other_catalogs(self):
        edge = set(load_catalog("edgehome").names)
        assert not edge & set(load_catalog("geoengine").names)
        # a couple of generic assistant verbs may overlap with BFCL by
        # design (create_calendar_event vs create_event must NOT collide)
        assert not edge & set(load_catalog("bfcl").names)


class TestQueries:
    def test_loadable_by_name(self):
        assert load_suite("edgehome", n_queries=5).name == "edgehome"

    def test_mixed_single_and_sequential(self, suite):
        singles = [q for q in suite.queries if not q.sequential]
        chains = [q for q in suite.queries if q.sequential]
        assert singles and chains
        assert all(q.n_steps == 1 for q in singles)
        assert all(2 <= q.n_steps <= 3 for q in chains)

    def test_gold_arguments_validate(self, suite):
        for query in suite.queries:
            for call in query.gold_calls:
                spec = suite.catalog.get(call.tool)
                assert spec.validate_arguments(call.arguments) == [], query.qid

    def test_deterministic(self):
        a = build_edgehome_suite(n_queries=20)
        b = build_edgehome_suite(n_queries=20)
        assert [q.text for q in a.queries] == [q.text for q in b.queries]


class TestPipelineGeneralization:
    """The paper's adaptation claim: the unchanged pipeline works here."""

    def test_lis_runs_and_beats_default(self, suite):
        from repro.evaluation.runner import ExperimentRunner

        runner = ExperimentRunner(suite)
        default = runner.run("default", "qwen2-1.5b", "q4_K_M")
        lis = runner.run("lis-k3", "qwen2-1.5b", "q4_K_M")
        assert lis.summary.success_rate >= default.summary.success_rate
        assert lis.summary.mean_time_s < default.summary.mean_time_s
        assert lis.summary.mean_tools_presented < suite.n_tools / 2

    def test_level2_used_for_routines(self, suite):
        from repro.evaluation.runner import ExperimentRunner

        runner = ExperimentRunner(suite)
        run = runner.run("lis-k3", "hermes2-pro-8b", "q4_K_M")
        routine_episodes = [
            episode for episode, query in zip(run.episodes, suite.queries)
            if query.sequential
        ]
        # at least some multi-step routines route through cluster search
        assert any(episode.selected_level == 2 for episode in routine_episodes)
