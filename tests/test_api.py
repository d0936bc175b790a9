"""Tests for the top-level convenience API (repro.api)."""

import pytest

import repro
from repro import AgentSpec, load_model, load_suite, open_session


class TestLoadSuite:
    def test_bfcl(self):
        suite = load_suite("bfcl", n_queries=4)
        assert suite.n_tools == 51
        assert len(suite.queries) == 4

    def test_seed_changes_queries(self):
        a = load_suite("bfcl", n_queries=6, seed=1)
        b = load_suite("bfcl", n_queries=6, seed=2)
        assert [q.text for q in a.queries] != [q.text for q in b.queries]


class TestLoadModel:
    def test_default_quant(self):
        llm = load_model("hermes2-pro-8b")
        assert llm.quant.name == "q4_K_M"

    def test_explicit_quant(self):
        assert load_model("qwen2-7b", "q8_0").quant.name == "q8_0"


class TestBuildAgents:
    """Agents are built through ``open_session(...).build_agent``."""

    @pytest.fixture(scope="class")
    def session(self):
        return open_session(suite=load_suite("bfcl", n_queries=4))

    def test_build_lis_with_explicit_k(self, session):
        agent = session.build_agent(
            AgentSpec("lis", "llama3.1-8b", "q4_0", k=5))
        assert agent.scheme == "lis"
        assert agent.k == 5

    def test_build_agent_schemes(self, session):
        for scheme in ("default", "gorilla", "toolllm", "lis"):
            agent = session.build_agent(AgentSpec(scheme, "qwen2-7b", "q4_0"))
            assert agent.scheme == scheme

    def test_build_agent_unknown(self, session):
        with pytest.raises(ValueError, match="registered schemes"):
            session.build_agent(AgentSpec("react", "qwen2-7b", "q4_0"))

    def test_episode_round_trip(self, session):
        agent = session.build_agent(AgentSpec("lis", "qwen2-7b", "q4_K_M"))
        query = session.suite.queries[0]
        assert agent.run(query).qid == query.qid


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
