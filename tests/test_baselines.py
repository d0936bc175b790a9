"""Tests for the baseline agents."""

import pytest

from repro import AgentSpec, open_session
from repro.baselines import (
    DefaultAgent,
    GorillaAgent,
    ToolLLMAgent,
    ToolLLMMemoryError,
)
from repro.llm import SimulatedLLM
from repro.suites.bfcl import build_bfcl_suite
from repro.suites.geoengine import build_geoengine_suite


@pytest.fixture(scope="module")
def bfcl():
    return build_bfcl_suite(n_queries=30, n_train=40)


@pytest.fixture(scope="module")
def geo():
    return build_geoengine_suite(n_queries=20, n_train=40)


@pytest.fixture(scope="module")
def llm():
    return SimulatedLLM.from_registry("hermes2-pro-8b", "q4_K_M")


class TestBuildBaseline:
    """Baselines are built by scheme name through the session."""

    def test_schemes(self, bfcl):
        session = open_session(suite=bfcl)
        for scheme, cls in (("default", DefaultAgent), ("gorilla", GorillaAgent),
                            ("toolllm", ToolLLMAgent)):
            agent = session.build_agent(AgentSpec(scheme, "qwen2-7b", "q4_0"))
            assert isinstance(agent, cls)

    def test_unknown_scheme(self, bfcl):
        with pytest.raises(ValueError):
            open_session(suite=bfcl).build_agent(
                AgentSpec("react", "qwen2-7b", "q4_0"))


class TestDefaultAgent:
    def test_presents_all_tools_at_16k(self, llm, bfcl):
        agent = DefaultAgent(llm=llm, suite=bfcl)
        plan = agent.plan(bfcl.queries[0])
        assert len(plan.tools) == bfcl.n_tools
        assert plan.context_window == 16384

    def test_runs_episode(self, llm, bfcl):
        episode = DefaultAgent(llm=llm, suite=bfcl).run(bfcl.queries[0])
        assert episode.scheme == "default"
        assert episode.steps


class TestGorillaAgent:
    def test_retrieves_k_tools(self, llm, bfcl):
        agent = GorillaAgent(llm=llm, suite=bfcl, k=3)
        plan = agent.plan(bfcl.queries[0])
        assert len(plan.tools) == 3
        assert plan.context_window == 8192

    def test_docs_penalty_applied(self, bfcl):
        strong = GorillaAgent(llm=SimulatedLLM.from_registry("hermes2-pro-8b", "full"),
                              suite=bfcl)
        weak = GorillaAgent(llm=SimulatedLLM.from_registry("mistral-8b", "q4_0"),
                            suite=bfcl)
        assert strong.skill_multiplier > weak.skill_multiplier

    def test_sequential_retrieval_wider_and_dynamic(self, llm, geo):
        agent = GorillaAgent(llm=llm, suite=geo, k=3)
        query = geo.queries[0]
        plan = agent.plan(query)
        assert len(plan.tools) == 2 * 3 + 4
        retooled, overhead = agent.tools_for_step(query, 1, plan.tools, ["load_dataset"])
        assert overhead > 0
        assert retooled  # re-retrieval happened

    def test_gorilla_weak_on_sequential_chains(self, llm, geo):
        # the paper's headline Gorilla observation
        agent = GorillaAgent(llm=llm, suite=geo)
        accuracy = sum(agent.run(q).tool_accuracy for q in geo.queries) / len(geo.queries)
        assert accuracy < 0.3

    def test_gorilla_improves_bfcl_over_default(self, llm, bfcl):
        gorilla = GorillaAgent(llm=llm, suite=bfcl)
        default = DefaultAgent(llm=llm, suite=bfcl)
        g_acc = sum(gorilla.run(q).tool_accuracy for q in bfcl.queries)
        d_acc = sum(default.run(q).tool_accuracy for q in bfcl.queries)
        assert g_acc >= d_acc


class TestToolLLMAgent:
    def test_default_config_exceeds_orin_memory(self, llm, bfcl):
        # paper: "its tree-based exploration could not fit on the board"
        agent = ToolLLMAgent(llm=llm, suite=bfcl)
        assert not agent.fits_device()
        with pytest.raises(ToolLLMMemoryError):
            agent.run(bfcl.queries[0])

    def test_reduced_config_fits_and_runs(self, llm, bfcl):
        agent = ToolLLMAgent(llm=llm, suite=bfcl, n_branches=2, context_window=4096)
        assert agent.fits_device()
        episode = agent.run(bfcl.queries[0])
        assert episode.scheme == "toolllm"
        # tree search spends extra LLM calls on node expansions
        assert episode.n_llm_calls > 2

    def test_memory_enforcement_can_be_disabled(self, llm, bfcl):
        agent = ToolLLMAgent(llm=llm, suite=bfcl, enforce_memory=False)
        episode = agent.run(bfcl.queries[0])
        assert episode.steps

    def test_memory_grows_with_branches(self, llm, bfcl):
        narrow = ToolLLMAgent(llm=llm, suite=bfcl, n_branches=2)
        wide = ToolLLMAgent(llm=llm, suite=bfcl, n_branches=16)
        assert wide.memory_requirement_gb() > narrow.memory_requirement_gb()
