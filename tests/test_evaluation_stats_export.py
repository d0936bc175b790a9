"""Tests for evaluation statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.episode import EpisodeResult, StepRecord
from repro.evaluation.stats import (
    bootstrap_ci,
    compare_runs,
    success_rate_ci,
    two_proportion_z,
)


def episode(success=True, qid="q0"):
    result = EpisodeResult(qid=qid, scheme="lis", model="m", quant="q",
                           selected_level=1, time_s=5.0, energy_j=100.0,
                           avg_power_w=20.0, n_llm_calls=2,
                           prompt_tokens=500, completion_tokens=60)
    result.steps.append(StepRecord(0, "tool_a", success, success, 5, retried=False))
    return result


class TestBootstrapCI:
    def test_contains_point(self):
        ci = bootstrap_ci([1.0, 2.0, 3.0, 4.0])
        assert ci.low <= ci.point <= ci.high
        assert ci.point == pytest.approx(2.5)

    def test_deterministic(self):
        a = bootstrap_ci([0.0, 1.0, 1.0, 0.0, 1.0])
        b = bootstrap_ci([0.0, 1.0, 1.0, 0.0, 1.0])
        assert (a.low, a.high) == (b.low, b.high)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_bad_confidence(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=0.4)

    def test_interval_narrows_with_samples(self):
        rng = np.random.default_rng(0)
        small = bootstrap_ci(rng.normal(size=20))
        large = bootstrap_ci(rng.normal(size=500))
        assert (large.high - large.low) < (small.high - small.low)

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_bounds_ordered(self, values):
        ci = bootstrap_ci(values, n_resamples=200)
        assert ci.low <= ci.high

    def test_contains_dunder(self):
        ci = bootstrap_ci([0.5] * 10)
        assert 0.5 in ci
        assert 0.9 not in ci


class TestSuccessRateCI:
    def test_metrics(self):
        episodes = [episode(True), episode(False), episode(True)]
        ci = success_rate_ci(episodes)
        assert ci.point == pytest.approx(2 / 3)
        acc_ci = success_rate_ci(episodes, metric="tool_accuracy")
        assert acc_ci.point == pytest.approx(2 / 3)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            success_rate_ci([episode()], metric="latency")


class TestTwoProportionZ:
    def test_identical_rates_p_one(self):
        assert two_proportion_z(5, 10, 5, 10) == pytest.approx(1.0)

    def test_extreme_difference_significant(self):
        assert two_proportion_z(95, 100, 5, 100) < 1e-6

    def test_symmetry(self):
        assert two_proportion_z(30, 100, 50, 100) == pytest.approx(
            two_proportion_z(50, 100, 30, 100))

    def test_validation(self):
        with pytest.raises(ValueError):
            two_proportion_z(1, 0, 1, 10)
        with pytest.raises(ValueError):
            two_proportion_z(11, 10, 1, 10)

    def test_degenerate_all_success(self):
        assert two_proportion_z(10, 10, 10, 10) == 1.0


class TestCompareRuns:
    def test_summary_keys(self):
        a = [episode(True) for _ in range(30)]
        b = [episode(False) for _ in range(30)]
        report = compare_runs(a, b)
        assert report["significant_05"]
        assert report["rate_a"].point == 1.0
        assert report["rate_b"].point == 0.0

