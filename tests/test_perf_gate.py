"""Unit tests for the perf gate itself.

``scripts/check_perf_regression.py`` guards every PR's throughput and
``scripts/bench_perf.py`` produces the JSON it reads — so a bug in
either silently disables the whole perf-tracking story.  These tests
exercise the comparison logic (pass, >25% regression, missing
metrics) and the bench harness's JSON-shape plumbing with stubbed-out
measurements (the real measurements live in ``make bench``).
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

check = importlib.import_module("check_perf_regression")
bench = importlib.import_module("bench_perf")


def _report(**overrides) -> dict:
    """A minimal BENCH_perf.json-shaped report with healthy numbers."""
    report = {
        "encode": {"batched_texts_per_s": 20_000.0, "speedup": 5.0},
        "search": {"flat_batched_ms": 0.5, "ivf_batched_ms": 2.0,
                   "pq_batched_ms": 1.3},
        "episode": {"episodes_per_s": 1_000.0,
                    "browser_episodes_per_s": 700.0},
        "catalog": {"build_ms": 2.0, "compressed_token_ratio": 0.92,
                    "minimal_token_ratio": 0.87},
        "grid": {"sequential_s": 0.2, "parallel_s": 0.18, "process_s": 0.5},
        "serving": {"batched_req_per_s": 2_000.0,
                    "speedup_vs_sequential": 2.2,
                    "chaos": {"success_rate": 1.0},
                    "obs": {"req_per_s_sample_1": 1_800.0},
                    "http": {"req_per_s": 800.0},
                    "engine_overhead": {"engined_episodes_per_s": 990.0},
                    "budget": {"goodput_rps": 900.0,
                               "energy_j_per_req": 210.0}},
    }
    for dotted, value in overrides.items():
        *path, metric = dotted.split(".")
        node = report
        for part in path:
            node = node[part]
        node[metric] = value
    return report


# ----------------------------------------------------------------------
# compare(): the decision core
# ----------------------------------------------------------------------
def test_identical_reports_pass():
    assert check.compare(_report(), _report(), tolerance=0.25) == []


def test_jitter_within_tolerance_passes():
    fresh = _report(**{"encode.batched_texts_per_s": 16_000.0,  # -20%
                       "search.flat_batched_ms": 0.6})           # +20%
    assert check.compare(_report(), fresh, tolerance=0.25) == []


def test_throughput_drop_beyond_tolerance_fails():
    fresh = _report(**{"encode.batched_texts_per_s": 14_000.0})  # -30%
    rows = check.compare(_report(), fresh, tolerance=0.25)
    assert [row[0] for row in rows] == ["encode.batched_texts_per_s"]
    name, base_value, fresh_value, ratio = rows[0]
    assert (base_value, fresh_value) == (20_000.0, 14_000.0)
    assert ratio == pytest.approx(0.7)


def test_latency_growth_beyond_tolerance_fails():
    fresh = _report(**{"grid.process_s": 0.7})  # +40% on a lower-is-better
    rows = check.compare(_report(), fresh, tolerance=0.25)
    assert [row[0] for row in rows] == ["grid.process_s"]


def test_latency_improvement_passes():
    fresh = _report(**{"grid.sequential_s": 0.05, "grid.process_s": 0.1})
    assert check.compare(_report(), fresh, tolerance=0.25) == []


def test_metric_missing_from_fresh_fails():
    """Deleting a bench section must not pass the gate."""
    fresh = _report()
    del fresh["serving"]["batched_req_per_s"]
    del fresh["grid"]
    rows = check.compare(_report(), fresh, tolerance=0.25)
    assert [row[0] for row in rows] == [
        "grid.sequential_s", "grid.parallel_s", "grid.process_s",
        "serving.batched_req_per_s"]
    assert all(row[2] is None and row[3] is None for row in rows)


def test_metric_missing_from_baseline_fails():
    """A tracked metric the baseline lacks is unguarded — the PR that
    starts tracking it must commit its baseline value too."""
    baseline = _report()
    del baseline["grid"]["process_s"]
    fresh = _report(**{"grid.process_s": 123.0})
    assert check.compare(baseline, fresh, tolerance=0.25) == [
        ("grid.process_s", None, 123.0, None)]


def test_main_reports_missing_metric(tmp_path, capsys):
    fresh = _report()
    del fresh["serving"]["http"]
    args = ["--baseline", _write(tmp_path, "base.json", _report()),
            "--fresh", _write(tmp_path, "fresh.json", fresh)]
    assert check.main(args) == 1
    assert ("MISSING serving.http.req_per_s: tracked metric absent from "
            "the fresh report") in capsys.readouterr().out


def test_zero_or_negative_baseline_is_skipped():
    baseline = _report(**{"episode.episodes_per_s": 0.0})
    fresh = _report(**{"episode.episodes_per_s": 1.0})
    assert check.compare(baseline, fresh, tolerance=0.25) == []


def test_tracked_metrics_all_present_in_committed_baseline():
    """The committed baseline must actually carry every guarded metric."""
    baseline = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
    for section, metric, _ in check.TRACKED_METRICS:
        assert check.lookup(baseline, section, metric) is not None, \
            f"{section}.{metric} missing from BENCH_perf.json"


def test_lookup_traverses_dotted_sections():
    report = _report()
    assert check.lookup(report, "serving.chaos", "success_rate") == 1.0
    assert check.lookup(report, "serving", "batched_req_per_s") == 2_000.0
    assert check.lookup(report, "serving.nope", "x") is None
    # a scalar in the middle of the path is not a section
    assert check.lookup(report, "serving.batched_req_per_s", "x") is None


def test_chaos_success_rate_drop_fails():
    fresh = _report(**{"serving.chaos.success_rate": 0.6})
    rows = check.compare(_report(), fresh, tolerance=0.25)
    assert [row[0] for row in rows] == ["serving.chaos.success_rate"]


# ----------------------------------------------------------------------
# main(): exit codes and file plumbing
# ----------------------------------------------------------------------
def _write(tmp_path, name, report) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


def test_main_exit_zero_on_pass(tmp_path, capsys):
    baseline = _write(tmp_path, "base.json", _report())
    fresh = _write(tmp_path, "fresh.json", _report())
    assert check.main(["--baseline", baseline, "--fresh", fresh]) == 0
    assert "OK" in capsys.readouterr().out


def test_main_exit_nonzero_on_regression(tmp_path, capsys):
    baseline = _write(tmp_path, "base.json", _report())
    fresh = _write(tmp_path, "fresh.json",
                   _report(**{"serving.batched_req_per_s": 100.0}))
    assert check.main(["--baseline", baseline, "--fresh", fresh]) == 1
    assert "REGRESSION serving.batched_req_per_s" in capsys.readouterr().out


def test_main_honors_tolerance(tmp_path):
    baseline = _write(tmp_path, "base.json", _report())
    fresh = _write(tmp_path, "fresh.json",
                   _report(**{"encode.speedup": 3.0}))  # -40%
    args = ["--baseline", baseline, "--fresh", fresh]
    assert check.main(args) == 1
    assert check.main(args + ["--tolerance", "0.5"]) == 0


# ----------------------------------------------------------------------
# bench_perf.py: JSON-shape plumbing (measurements stubbed)
# ----------------------------------------------------------------------
def test_bench_main_writes_guarded_shape(tmp_path, monkeypatch, capsys):
    """main() must emit a report carrying every guarded metric.

    The section measurements are stubbed so this is a fast, pure test of
    the collect/emit plumbing — shape drift between the harness and the
    gate (a renamed key, a dropped section) fails here instead of
    silently un-guarding a metric in CI.
    """
    stub = _report()
    stub["search"].update({"n_queries": 64, "flat_batch_speedup": 15.0})
    monkeypatch.setattr(bench, "bench_encode", lambda repeats: stub["encode"])
    monkeypatch.setattr(bench, "bench_search", lambda repeats: stub["search"])
    monkeypatch.setattr(bench, "bench_episodes", lambda repeats: stub["episode"])
    monkeypatch.setattr(bench, "bench_grid", lambda n_queries: {
        **stub["grid"],
        "cells": 6, "n_queries": n_queries, "parallel_speedup": 1.1,
        "process_workers": 2, "process_speedup": 0.4,
    })
    monkeypatch.setattr(bench, "bench_serving", lambda: {
        **{key: value for key, value in stub["serving"].items()
           if key != "chaos"},
        "batched_p95_ms": 20.0,
    })
    monkeypatch.setattr(bench, "bench_serving_chaos", lambda: {
        **stub["serving"]["chaos"],
        "faults_injected": 3, "worker_restarts": 3, "slice_retries": 4,
        "inline_fallbacks": 0, "req_per_s": 150.0, "goodput_rps": 150.0,
    })
    monkeypatch.setattr(bench, "bench_serving_http", lambda: {
        **stub["serving"]["http"],
        "p95_ms": 12.0, "mean_batch_size": 4.5,
    })
    monkeypatch.setattr(bench, "bench_engine_overhead", lambda repeats: {
        **stub["serving"]["engine_overhead"],
        "direct_episodes_per_s": 1_000.0, "overhead_frac": 0.01,
    })
    monkeypatch.setattr(bench, "bench_obs", lambda: {
        **stub["serving"]["obs"],
        "req_per_s_untraced": 2_000.0, "req_per_s_sample_0": 1_990.0,
        "req_per_s_sample_0_1": 1_950.0, "overhead_frac_sample_1": 0.1,
        "cost": {"total": {"requests": 512}, "by_tenant": {}},
    })

    output = tmp_path / "report.json"
    assert bench.main(["--output", str(output), "--repeats", "1"]) == 0
    report = json.loads(output.read_text())

    assert report["schema_version"] == 2
    assert report["machine"]["cpu_count"] is not None
    for section, metric, _ in check.TRACKED_METRICS:
        assert check.lookup(report, section, metric) is not None, \
            f"bench_perf.main() dropped guarded metric {section}.{metric}"
    # a fresh self-comparison through the real gate must pass
    assert check.compare(report, report, tolerance=0.25) == []
    assert "wrote" in capsys.readouterr().out
