"""Tests for the Less-is-More agent pipeline end-to-end."""

import pytest

from repro import AgentSpec, open_session
from repro.core import LessIsMoreAgent
from repro.core.levels import SearchLevelBuilder
from repro.embedding.cache import shared_embedder
from repro.suites.bfcl import build_bfcl_suite
from repro.suites.geoengine import build_geoengine_suite


@pytest.fixture(scope="module")
def bfcl():
    return build_bfcl_suite(n_queries=40, n_train=60)


@pytest.fixture(scope="module")
def geo():
    return build_geoengine_suite(n_queries=30, n_train=60)


@pytest.fixture(scope="module")
def bfcl_levels(bfcl):
    return SearchLevelBuilder(embedder=shared_embedder()).build(bfcl)


@pytest.fixture(scope="module")
def geo_levels(geo):
    return SearchLevelBuilder(embedder=shared_embedder()).build(geo)


def make_agent(suite, levels, model="hermes2-pro-8b", quant="q4_K_M", **kwargs):
    from repro.llm import SimulatedLLM

    return LessIsMoreAgent(llm=SimulatedLLM.from_registry(model, quant),
                           suite=suite, levels=levels,
                           embedder=shared_embedder(), **kwargs)


class TestEpisodeStructure:
    def test_episode_fields(self, bfcl, bfcl_levels):
        agent = make_agent(bfcl, bfcl_levels)
        episode = agent.run(bfcl.queries[0])
        assert episode.scheme == "lis"
        assert episode.model == "hermes2-pro-8b"
        assert episode.quant == "q4_K_M"
        assert episode.selected_level in (1, 2, 3)
        assert len(episode.steps) == 1
        assert episode.time_s > 0
        assert episode.energy_j > 0
        assert episode.n_llm_calls >= 2  # recommender + agent call

    def test_deterministic_episode(self, bfcl, bfcl_levels):
        a = make_agent(bfcl, bfcl_levels).run(bfcl.queries[1])
        b = make_agent(bfcl, bfcl_levels).run(bfcl.queries[1])
        assert a.success == b.success
        assert a.time_s == b.time_s
        assert a.selected_level == b.selected_level

    def test_sequential_episode_has_chain_steps(self, geo, geo_levels):
        agent = make_agent(geo, geo_levels)
        query = geo.queries[0]
        episode = agent.run(query)
        assert len(episode.steps) == query.n_steps

    def test_success_implies_tool_accuracy(self, bfcl, bfcl_levels):
        agent = make_agent(bfcl, bfcl_levels)
        for query in bfcl.queries[:20]:
            episode = agent.run(query)
            if episode.success:
                assert episode.tool_accuracy

    def test_build_classmethod(self, bfcl):
        agent = open_session(suite=bfcl).build_agent(
            AgentSpec("lis", "qwen2-7b", "q8_0", k=5))
        assert isinstance(agent, LessIsMoreAgent)
        assert agent.k == 5
        episode = agent.run(bfcl.queries[0])
        assert episode.steps


class TestPaperProperties:
    def test_lis_beats_default_on_success(self, bfcl, bfcl_levels):
        from repro.baselines import DefaultAgent
        from repro.llm import SimulatedLLM

        llm = SimulatedLLM.from_registry("llama3.1-8b", "q4_K_M")
        default = DefaultAgent(llm=llm, suite=bfcl)
        lis = make_agent(bfcl, bfcl_levels, model="llama3.1-8b")
        default_success = sum(default.run(q).success for q in bfcl.queries)
        lis_success = sum(lis.run(q).success for q in bfcl.queries)
        assert lis_success > default_success

    def test_lis_reduces_time_and_power(self, bfcl, bfcl_levels):
        from repro.baselines import DefaultAgent
        from repro.llm import SimulatedLLM

        llm = SimulatedLLM.from_registry("hermes2-pro-8b", "q4_K_M")
        default = DefaultAgent(llm=llm, suite=bfcl)
        lis = make_agent(bfcl, bfcl_levels)
        queries = bfcl.queries[:20]
        default_time = sum(default.run(q).time_s for q in queries)
        lis_time = sum(lis.run(q).time_s for q in queries)
        # paper: execution time reduced by up to 80% on BFCL
        assert lis_time < 0.6 * default_time

    def test_lis_presents_fewer_tools(self, bfcl, bfcl_levels):
        agent = make_agent(bfcl, bfcl_levels)
        for query in bfcl.queries[:10]:
            episode = agent.run(query)
            if episode.selected_level in (1, 2):
                assert episode.mean_tools_presented < bfcl.n_tools

    def test_level1_dominates_bfcl(self, bfcl, bfcl_levels):
        # paper Section IV: "in BFCL Search Level 1 yields higher
        # tool-matching scores"
        agent = make_agent(bfcl, bfcl_levels)
        levels = [agent.run(q).selected_level for q in bfcl.queries]
        assert levels.count(1) > len(levels) / 2

    def test_level2_share_higher_on_geoengine(self, bfcl, geo, bfcl_levels, geo_levels):
        # paper Section IV: "for GeoEngine it is Search Level 2"
        bfcl_agent = make_agent(bfcl, bfcl_levels)
        geo_agent = make_agent(geo, geo_levels)
        bfcl_l2 = sum(bfcl_agent.run(q).selected_level == 2 for q in bfcl.queries[:25])
        geo_l2 = sum(geo_agent.run(q).selected_level == 2 for q in geo.queries[:25])
        assert geo_l2 > bfcl_l2

    def test_reduced_window_used_on_levels_1_2(self, bfcl, bfcl_levels):
        agent = make_agent(bfcl, bfcl_levels)
        plan = agent.plan(bfcl.queries[0])
        if plan.level in (1, 2):
            assert plan.context_window == 8192
