"""Tests for repro.evaluation: metrics, runner, reporting."""

import pytest

from repro.core.episode import EpisodeResult, StepRecord
from repro.evaluation.metrics import normalize, summarize
from repro.evaluation.reporting import figure_series, render_metric_table, render_series
from repro.evaluation.runner import ExperimentRunner
from repro.suites.bfcl import build_bfcl_suite


def episode(success=True, correct=True, time_s=10.0, energy_j=200.0, level=1):
    result = EpisodeResult(qid="q", scheme="lis", model="m", quant="q",
                           selected_level=level, time_s=time_s,
                           energy_j=energy_j, avg_power_w=energy_j / time_s)
    result.steps.append(StepRecord(0, "tool", correct, success and correct, 5))
    return result


class TestSummarize:
    def test_rates(self):
        summary = summarize([episode(True), episode(False), episode(False, correct=False)])
        assert summary.success_rate == pytest.approx(1 / 3)
        assert summary.tool_accuracy == pytest.approx(2 / 3)
        assert summary.n_episodes == 3

    def test_power_is_energy_weighted(self):
        fast = episode(time_s=1.0, energy_j=30.0)   # 30 W
        slow = episode(time_s=9.0, energy_j=90.0)   # 10 W
        summary = summarize([fast, slow])
        assert summary.avg_power_w == pytest.approx(120.0 / 10.0)

    def test_level_histogram(self):
        summary = summarize([episode(level=1), episode(level=1), episode(level=3)])
        assert summary.level_histogram == {1: 2, 3: 1}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestNormalize:
    def test_ratio(self):
        base = summarize([episode(time_s=10.0, energy_j=300.0)])
        cand = summarize([episode(time_s=5.0, energy_j=100.0)])
        norm = normalize(cand, base)
        assert norm.normalized_time == pytest.approx(0.5)
        assert norm.normalized_power == pytest.approx((100 / 5) / (300 / 10))

    def test_zero_baseline_rejected(self):
        base = summarize([episode(time_s=10.0, energy_j=300.0)])
        broken = summarize([episode(time_s=10.0, energy_j=300.0)])
        object.__setattr__(broken, "mean_time_s", 0.0)
        with pytest.raises(ValueError):
            normalize(base, broken)


class TestExperimentRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return ExperimentRunner(build_bfcl_suite(n_queries=12, n_train=40))

    def test_run_batch(self, runner):
        run = runner.run("default", "qwen2-7b", "q4_K_M")
        assert len(run.episodes) == 12
        assert run.key == ("default", "qwen2-7b", "q4_K_M")

    def test_n_queries_limits(self, runner):
        run = runner.run("default", "qwen2-7b", "q4_K_M", n_queries=5)
        assert len(run.episodes) == 5

    def test_lis_scheme_k_parsing(self, runner):
        agent = runner.make_agent("lis-k5", "qwen2-7b", "q4_K_M")
        assert agent.k == 5
        assert runner.make_agent("lis", "qwen2-7b", "q4_K_M").k == 3

    def test_levels_cached(self, runner):
        assert runner.levels is runner.levels

    def test_unknown_scheme(self, runner):
        with pytest.raises(ValueError):
            runner.make_agent("react", "qwen2-7b", "q4_K_M")

    def test_run_grid_keys(self, runner):
        grid = runner.run_grid(["default", "lis-k3"], ["qwen2-7b"], ["q4_0"])
        assert set(grid) == {("default", "qwen2-7b", "q4_0"), ("lis-k3", "qwen2-7b", "q4_0")}


class TestReporting:
    def test_render_metric_table(self):
        summary = summarize([episode()])
        text = render_metric_table({"conf-a": summary}, title="Table X")
        assert "Table X" in text
        assert "conf-a" in text
        assert "100.0%" in text

    def test_render_series(self):
        base = summarize([episode(time_s=10.0, energy_j=300.0)])
        cand = summarize([episode(time_s=5.0, energy_j=100.0)])
        text = render_series({"row": normalize(cand, base)})
        assert "row" in text
        assert "0.500" in text

    def test_figure_series_normalizes_per_quant(self):
        runner = ExperimentRunner(build_bfcl_suite(n_queries=6, n_train=40))
        grid = runner.run_grid(["default", "lis-k3"], ["qwen2-7b"], ["q4_K_M"])
        rows = figure_series(grid, "qwen2-7b", ["q4_K_M"], ["default", "lis-k3"])
        assert rows["qwen2-7b-q4_K_M default"].normalized_time == pytest.approx(1.0)
        assert "qwen2-7b-q4_K_M lis-k3" in rows
