"""Tests for the shared agent loop: fallbacks, retries, accounting."""

import pytest

from repro.core.agent_base import DEFAULT_CONTEXT_WINDOW, FunctionCallingAgent, ToolPlan
from repro.core.levels import SearchLevelBuilder
from repro.core.pipeline import LessIsMoreAgent
from repro.embedding.cache import shared_embedder
from repro.llm import SimulatedLLM
from repro.llm.behavior import BehaviorCalibration
from repro.suites.bfcl import build_bfcl_suite
from repro.suites.geoengine import build_geoengine_suite


@pytest.fixture(scope="module")
def bfcl():
    return build_bfcl_suite(n_queries=20, n_train=40)


@pytest.fixture(scope="module")
def geo():
    return build_geoengine_suite(n_queries=12, n_train=40)


class FixedPlanAgent(FunctionCallingAgent):
    """Minimal concrete agent for exercising the base loop."""

    scheme = "fixed"

    def plan(self, query):
        return ToolPlan(tools=list(self.suite.catalog),
                        context_window=DEFAULT_CONTEXT_WINDOW)


class TestBaseLoop:
    def test_base_plan_is_abstract(self, bfcl):
        agent = FunctionCallingAgent(
            llm=SimulatedLLM.from_registry("qwen2-7b", "q4_0"), suite=bfcl)
        with pytest.raises(NotImplementedError):
            agent.plan(bfcl.queries[0])

    def test_token_accounting_accumulates(self, bfcl):
        agent = FixedPlanAgent(
            llm=SimulatedLLM.from_registry("qwen2-7b", "q4_K_M"), suite=bfcl)
        episode = agent.run(bfcl.queries[0])
        assert episode.prompt_tokens > 1000  # 51 tool schemas
        assert episode.completion_tokens > 0
        assert episode.n_llm_calls >= 1

    def test_step_records_one_per_gold_call(self, geo):
        agent = FixedPlanAgent(
            llm=SimulatedLLM.from_registry("hermes2-pro-8b", "full"), suite=geo)
        for query in geo.queries[:4]:
            episode = agent.run(query)
            assert len(episode.steps) == query.n_steps

    def test_energy_time_power_consistency(self, bfcl):
        agent = FixedPlanAgent(
            llm=SimulatedLLM.from_registry("qwen2-7b", "q4_K_M"), suite=bfcl)
        episode = agent.run(bfcl.queries[1])
        assert episode.avg_power_w == pytest.approx(
            episode.energy_j / episode.time_s, rel=1e-6)


class TestFallbackMechanics:
    @pytest.fixture(scope="class")
    def error_prone_agent(self, geo):
        """An LLM tuned to signal errors constantly, forcing the fallback."""
        calibration = BehaviorCalibration(error_signal_base=5.0)
        llm = SimulatedLLM.from_registry("qwen2-1.5b", "q4_0")
        llm.calibration = calibration
        levels = SearchLevelBuilder(embedder=shared_embedder()).build(geo)
        return LessIsMoreAgent(llm=llm, suite=geo, levels=levels, k=3,
                               embedder=shared_embedder())

    def test_repeated_errors_trigger_level3_fallback(self, geo, error_prone_agent):
        episodes = [error_prone_agent.run(q) for q in geo.queries[:6]]
        assert any(episode.fallback_used for episode in episodes)

    def test_fallback_presents_all_tools(self, geo, error_prone_agent):
        for query in geo.queries[:6]:
            episode = error_prone_agent.run(query)
            if episode.fallback_used:
                assert episode.steps[-1].n_tools_presented == geo.n_tools
                break
        else:
            pytest.fail("no fallback episode found")

    def test_baselines_do_not_fall_back(self, geo):
        from repro.baselines import DefaultAgent

        calibration = BehaviorCalibration(error_signal_base=5.0)
        llm = SimulatedLLM.from_registry("qwen2-1.5b", "q4_0")
        llm.calibration = calibration
        agent = DefaultAgent(llm=llm, suite=geo)
        episodes = [agent.run(q) for q in geo.queries[:4]]
        assert not any(episode.fallback_used for episode in episodes)

    def test_error_steps_recorded_as_failures(self, geo):
        calibration = BehaviorCalibration(error_signal_base=5.0)
        llm = SimulatedLLM.from_registry("qwen2-1.5b", "q4_0")
        llm.calibration = calibration
        from repro.baselines import DefaultAgent

        agent = DefaultAgent(llm=llm, suite=geo)
        episodes = [agent.run(query) for query in geo.queries]
        error_steps = [step for episode in episodes for step in episode.steps
                       if step.tool_called is None]
        assert error_steps  # persistent error signalling leaves failed steps
        for episode in episodes:
            if any(step.tool_called is None for step in episode.steps):
                assert not episode.success


class TestRetrySemantics:
    def test_sequential_validation_errors_retried(self, geo):
        # count retried steps across a batch: chains see API feedback
        agent = FixedPlanAgent(
            llm=SimulatedLLM.from_registry("llama3.1-8b", "q4_0"), suite=geo)
        episodes = [agent.run(q) for q in geo.queries]
        assert any(step.retried for episode in episodes for step in episode.steps)

    def test_single_shot_not_retried_on_bad_args(self, bfcl):
        # BFCL grades the first call; a validation failure is terminal
        agent = FixedPlanAgent(
            llm=SimulatedLLM.from_registry("llama3.1-8b", "q4_0"), suite=bfcl)
        for query in bfcl.queries:
            episode = agent.run(query)
            for step in episode.steps:
                if step.correct_tool and not step.execution_ok:
                    assert not step.retried
                    return
