"""``scripts/bench_history.py check``: the trajectory gate on synthetic lines.

The paired gate (``make bench-pair``) holds a PR against its parent only,
so a string of small losses passes it every time; ``check`` holds the
newest ``BENCH_history.jsonl`` line against the best of the last five
comparable ones.  No benchmark runs here — the lines are made up.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
history = importlib.import_module("bench_history")

BOUNDS = {"cal_req_per_s": ("higher", 0.25), "cal_latency_p50_ms": ("lower", 0.25)}


def line(sha, req_per_s, p50_ms=10.0, nproc=2, cal_ms_p50=30.0):
    return {"sha": sha, "seed": 11, "seconds": 12.0, "nproc": nproc,
            "cal_ms_p50": cal_ms_p50,
            "metrics": {"gw_closed_c32": {
                "cal_req_per_s": [req_per_s, 0.05],
                "cal_latency_p50_ms": [p50_ms, 0.05]}}}


def downhill(steps):
    """A base line, then ``steps`` lines each 8% slower than the last."""
    return [line(f"pr{step}", 800.0 * 0.92 ** step) for step in range(steps + 1)]


def test_one_small_step_passes():
    assert history.check(downhill(1), BOUNDS) == (1, [])


def test_small_steps_fail_once_they_add_up_past_the_bound():
    # every step is inside 0.25 of its predecessor; against the best of
    # the window three are -22%, four are 0.92**4 = -28%
    assert history.check(downhill(3), BOUNDS) == (3, [])
    used, failures = history.check(downhill(4), BOUNDS)
    assert used == 4
    [failure] = failures
    assert failure.startswith("gw_closed_c32 cal_req_per_s")
    assert "28% worse" in failure


def test_lower_is_better_metrics_fail_upward():
    lines = [line("a", 800.0, p50_ms=10.0), line("b", 800.0, p50_ms=12.6)]
    [failure] = history.check(lines, BOUNDS)[1]
    assert failure.startswith("gw_closed_c32 cal_latency_p50_ms")
    assert history.check([lines[0], line("b", 800.0, p50_ms=12.4)],
                         BOUNDS) == (1, [])


@pytest.mark.parametrize("other_machine", [
    {"nproc": 8},               # more cores
    {"cal_ms_p50": 20.0},       # the calibration kernel runs 1.5x faster
])
def test_lines_from_another_machine_are_skipped(other_machine):
    lines = [line("fast-box", 2000.0, **other_machine), line("here", 800.0)]
    assert history.check(lines, BOUNDS) == (0, [])
    # ... and do not push a comparable line out of the window of five
    lines = ([line("base", 1200.0)]
             + [line(f"fast-{i}", 2000.0, **other_machine) for i in range(5)]
             + [line("here", 800.0)])
    used, failures = history.check(lines, BOUNDS)
    assert used == 1 and len(failures) == 1


def test_only_the_last_five_comparable_lines_count():
    lines = ([line("long-ago", 2000.0)]
             + [line(f"pr{i}", 800.0) for i in range(5)] + [line("new", 790.0)])
    assert history.check(lines, BOUNDS) == (5, [])


def test_line_from_report_keeps_value_spread_pairs_and_refuses_failures():
    workload = {"correct": True, "failed": 0, "attempted": 10,
                "end_to_end": {"cal_req_per_s": {
                    "value": 812.3456789, "spread": 0.04567, "unit": "req/s"}},
                "per_layer": {"machine.cal_ms_p50": {"value": 29.5,
                                                     "unit": "ms"}}}
    document = {"provenance": {"git_sha": "abc1234", "seed": 11,
                               "seconds": 12.0, "nproc": 2},
                "workloads": {"gw_closed_c32": workload}}
    assert history.line_from_report(document) == {
        "sha": "abc1234", "seed": 11, "seconds": 12.0, "nproc": 2,
        "cal_ms_p50": 29.5,
        "metrics": {"gw_closed_c32": {"cal_req_per_s": [812.346, 0.0457]}}}
    assert history.line_from_report(document, sha="override")["sha"] == "override"
    workload["failed"] = 1
    with pytest.raises(SystemExit, match="failed or unverified"):
        history.line_from_report(document)

