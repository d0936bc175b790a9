"""Estimator arithmetic on synthetic segments."""

import os

import pytest

from bench_e2e.cpus import on_cpu, pick_cpus
from bench_e2e.estimator import (
    CAL_REF_MS,
    CalibrationKernel,
    Segment,
    median_spread,
    percentile,
    speed_factor,
)


def segment(wall_s=2.0, requests=100, failed=0, cpu_s=1.0, latencies=None,
            before=CAL_REF_MS, after=CAL_REF_MS):
    return Segment(0, requests, failed, 10.0, 10.0 + wall_s, cpu_s,
                   list(latencies or [10.0] * (requests - failed)),
                   before, after)


def test_reference_machine_is_the_identity():
    seg = segment()
    assert seg.f == 1.0
    assert seg.raw_req_per_s == seg.cal_req_per_s() == 50.0
    assert seg.cal_latency_ms(50.0) == 10.0
    assert seg.cal_cpu_ms_per_req == 10.0


def test_slow_machine_is_scaled_back_to_the_reference():
    # the kernel takes twice as long: the box is half as fast, so the
    # same program would have done twice the rate in half the time
    seg = segment(before=2 * CAL_REF_MS, after=2 * CAL_REF_MS)
    assert seg.f == 2.0
    assert seg.cal_req_per_s() == 2 * seg.raw_req_per_s
    assert seg.cal_latency_ms(50.0) == 5.0
    assert seg.cal_cpu_ms_per_req == 5.0


def test_the_factor_is_the_mean_of_the_two_brackets():
    assert speed_factor(CAL_REF_MS, 3 * CAL_REF_MS) == 2.0


def test_pinned_rate_ignores_the_factor():
    seg = segment(before=2 * CAL_REF_MS, after=2 * CAL_REF_MS)
    assert seg.cal_req_per_s(pinned=True) == seg.raw_req_per_s


def test_failed_requests_do_not_count_as_completed():
    seg = segment(requests=100, failed=20)
    assert seg.completed == 80
    assert seg.raw_req_per_s == 40.0
    assert seg.cal_cpu_ms_per_req == 12.5


def test_unsteady_when_the_brackets_disagree_by_more_than_a_quarter():
    assert not segment(before=40.0, after=49.0).unsteady
    assert segment(before=40.0, after=51.0).unsteady
    assert segment(before=51.0, after=40.0).unsteady


def test_percentile_interpolates():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 90.0) == pytest.approx(4.6)
    assert percentile(values, 100.0) == 5.0
    assert percentile([], 50.0) == 0.0


def test_median_spread_is_iqr_over_median():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    median, spread = median_spread(values)
    assert median == 30.0
    assert spread == pytest.approx((45.0 - 15.0) / 30.0)
    assert median_spread([7.0]) == (7.0, 0.0)
    assert median_spread([]) == (0.0, 0.0)


def test_the_kernel_is_the_one_the_reference_was_taken_on():
    # the kernel is never edited: these are the values its timed parts
    # return, so a change to either of them fails here
    pooled, walked = CalibrationKernel().run()
    assert pooled == pytest.approx(0.3493614745711966, rel=1e-6)
    assert walked == 1_634_998
    assert CAL_REF_MS == 28.0
    assert CalibrationKernel().time_ms() > 0.0


def test_the_kernel_runs_on_its_cpu_and_leaves_the_thread_where_it_was():
    allowed = os.sched_getaffinity(0)
    generator_cpu, program_cpu = pick_cpus()
    assert {generator_cpu, program_cpu} <= allowed
    with on_cpu(program_cpu):
        assert os.sched_getaffinity(0) == {program_cpu}
        with on_cpu(None):
            assert os.sched_getaffinity(0) == {program_cpu}
    assert os.sched_getaffinity(0) == allowed
    assert CalibrationKernel(program_cpu).time_ms() > 0.0
    assert os.sched_getaffinity(0) == allowed
