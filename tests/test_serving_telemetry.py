"""Direct unit tests for serving telemetry edge cases.

Telemetry was previously exercised only through the gateway; these tests
pin down the standalone behaviors — empty rings, single-sample
percentiles, ring-buffer overwrite, histogram boundaries — that a load
test would mask.
"""

from __future__ import annotations

import pytest

from repro.serving import telemetry as telemetry_module
from repro.serving.telemetry import Telemetry, _Ring, percentile


def _telemetry(monkeypatch, max_samples: int) -> Telemetry:
    """A recorder whose sample rings hold ``max_samples`` each."""
    monkeypatch.setattr(telemetry_module, "MAX_SAMPLES", max_samples)
    return Telemetry()


# ----------------------------------------------------------------------
# percentile()
# ----------------------------------------------------------------------
def test_percentile_empty_sample_is_zero():
    assert percentile([], 50.0) == 0.0
    assert percentile([], 99.0) == 0.0


def test_percentile_single_sample_is_that_sample():
    for q in (0.0, 50.0, 95.0, 99.0, 100.0):
        assert percentile([7.25], q) == 7.25


def test_percentile_bounds_and_interpolation():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 100.0) == 4.0
    assert percentile(values, 50.0) == pytest.approx(2.5)
    # matches numpy.percentile's default linear interpolation
    np = pytest.importorskip("numpy")
    for q in (10.0, 37.5, 62.0, 95.0, 99.0):
        assert percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)))


def test_percentile_is_order_independent():
    assert percentile([9.0, 1.0, 5.0], 50.0) == 5.0


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError, match="percentile q"):
        percentile([1.0], -0.1)
    with pytest.raises(ValueError, match="percentile q"):
        percentile([1.0], 100.1)


# ----------------------------------------------------------------------
# _Ring
# ----------------------------------------------------------------------
def test_ring_below_capacity_keeps_everything():
    ring = _Ring(4)
    for value in (1.0, 2.0, 3.0):
        ring.push(value)
    assert ring.values() == [1.0, 2.0, 3.0]


def test_ring_overwrites_oldest_once_full():
    ring = _Ring(3)
    for value in (1.0, 2.0, 3.0, 4.0, 5.0):
        ring.push(value)
    # capacity bound holds and the oldest samples fell out
    assert sorted(ring.values()) == [3.0, 4.0, 5.0]
    for value in (6.0, 7.0, 8.0):
        ring.push(value)
    assert sorted(ring.values()) == [6.0, 7.0, 8.0]


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def test_empty_snapshot_is_all_zeros():
    snapshot = Telemetry().snapshot()
    assert snapshot["requests_admitted"] == 0
    assert snapshot["requests_rejected"] == 0
    assert snapshot["requests_completed"] == 0
    assert snapshot["requests_failed"] == 0
    assert snapshot["n_batches"] == 0
    assert snapshot["mean_batch_size"] == 0.0
    assert snapshot["max_batch_size"] == 0
    assert snapshot["batch_size_histogram"] == {}
    assert snapshot["queue_depth_max"] == 0.0
    assert snapshot["latency_p50_ms"] == 0.0
    assert snapshot["latency_p99_ms"] == 0.0
    assert snapshot["latency_mean_ms"] == 0.0


def test_single_completion_percentiles_collapse_to_sample():
    telemetry = Telemetry()
    telemetry.record_completion(0.050)
    snapshot = telemetry.snapshot()
    assert snapshot["latency_p50_ms"] == pytest.approx(50.0)
    assert snapshot["latency_p95_ms"] == pytest.approx(50.0)
    assert snapshot["latency_p99_ms"] == pytest.approx(50.0)
    assert snapshot["latency_mean_ms"] == pytest.approx(50.0)


def test_failed_completions_not_counted_in_latency():
    telemetry = Telemetry()
    telemetry.record_completion(0.010, ok=True)
    telemetry.record_completion(9.999, ok=False)
    snapshot = telemetry.snapshot()
    assert snapshot["requests_completed"] == 1
    assert snapshot["requests_failed"] == 1
    assert snapshot["latency_p99_ms"] == pytest.approx(10.0)


def test_batch_histogram_boundaries_and_mean():
    telemetry = Telemetry()
    for size in (1, 1, 8, 32):
        telemetry.record_flush(size)
    snapshot = telemetry.snapshot()
    assert snapshot["n_batches"] == 4
    assert snapshot["max_batch_size"] == 32
    assert snapshot["batch_size_histogram"] == {"1": 2, "8": 1, "32": 1}
    assert snapshot["mean_batch_size"] == pytest.approx((1 + 1 + 8 + 32) / 4)


def test_flush_feeds_queue_wait_percentiles_and_exact_sum(monkeypatch):
    telemetry = _telemetry(monkeypatch, 4)
    telemetry.record_flush(1)  # waits are optional: histogram-only callers
    telemetry.record_flush(2, [0.001, 0.003])
    telemetry.record_flush(4, [0.002, 0.002, 0.004, 0.008])
    snapshot = telemetry.snapshot()
    assert snapshot["n_batches"] == 3
    # the ring keeps the 4 newest waits; sum/count stay lifetime-exact
    assert snapshot["queue_wait_p50_ms"] == pytest.approx(3.0)
    assert snapshot["queue_wait_p95_ms"] == pytest.approx(7.4)
    assert snapshot["queue_wait_sum_s"] == pytest.approx(0.020)
    assert snapshot["queue_wait_count"] == 6


def test_queue_depth_tracking_and_rejections():
    telemetry = Telemetry()
    for depth in (1, 3, 2):
        telemetry.record_admission(depth)
    telemetry.record_rejection()
    snapshot = telemetry.snapshot()
    assert snapshot["requests_admitted"] == 3
    assert snapshot["requests_rejected"] == 1
    assert snapshot["queue_depth_max"] == 3.0
    assert snapshot["queue_depth_mean"] == pytest.approx(2.0)


def test_max_samples_bounds_latency_ring_but_not_counters(monkeypatch):
    telemetry = _telemetry(monkeypatch, 2)
    for i in range(5):
        telemetry.record_completion(float(i))
    snapshot = telemetry.snapshot()
    assert snapshot["requests_completed"] == 5  # counters stay exact
    # ring keeps only the 2 newest samples
    assert snapshot["latency_p50_ms"] == pytest.approx(3.5 * 1e3)


def test_snapshot_seq_and_uptime_progress():
    telemetry = Telemetry()
    first = telemetry.snapshot()
    second = telemetry.snapshot()
    assert (first["snapshot_seq"], second["snapshot_seq"]) == (1, 2)
    assert 0.0 <= first["uptime_s"] <= second["uptime_s"]
    # a fresh instance restarts the sequence (the scraper's restart signal)
    assert Telemetry().snapshot()["snapshot_seq"] == 1
