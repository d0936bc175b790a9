"""``scripts/bench_history.py check``: the trajectory gate on synthetic lines.

The paired gate (``make bench-pair``) holds a PR against its parent only,
so a string of small losses passes it every time; ``check`` multiplies
the tree/parent ratios of the last five ``BENCH_history.jsonl`` lines
that carry them.  No benchmark runs here — the lines are made up, apart
from the committed history the replay test reads.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
history = importlib.import_module("bench_history")

BOUNDS = {"cal_req_per_s": ("higher", 0.25), "cal_latency_p50_ms": ("lower", 0.25)}


def line(sha, req_per_s, p50_ms=10.0, nproc=2, cal_ms_p50=30.0,
         ratio=1.0, p50_ratio=1.0):
    """One history line whose paired run read ``ratio`` on req/s and
    ``p50_ratio`` on p50 (``ratio=None``: a line without ratios)."""
    entry = {"sha": sha, "seed": 11, "seconds": 12.0, "nproc": nproc,
             "cal_ms_p50": cal_ms_p50,
             "metrics": {"gw_closed_c32": {
                 "cal_req_per_s": [req_per_s, 0.05],
                 "cal_latency_p50_ms": [p50_ms, 0.05]}}}
    if ratio is not None:
        entry["ratios"] = {"gw_closed_c32": {"cal_req_per_s": ratio,
                                             "cal_latency_p50_ms": p50_ratio}}
    return entry


def downhill(steps):
    """A base line, then ``steps`` lines each 8% slower than its parent."""
    return [line("base", 800.0, ratio=None)] + [
        line(f"pr{step}", 800.0 * 0.92 ** step, ratio=0.92)
        for step in range(1, steps + 1)]


def test_one_small_step_passes():
    assert history.check(downhill(1), BOUNDS) == (1, [])


def test_small_steps_fail_once_they_add_up_past_the_bound():
    # every ratio is inside 0.25; three multiply to -22%, four to
    # 0.92**4 = -28%
    assert history.check(downhill(3), BOUNDS) == (3, [])
    used, failures = history.check(downhill(4), BOUNDS)
    assert used == 4
    [failure] = failures
    assert failure.startswith("gw_closed_c32 cal_req_per_s")
    assert "28% worse" in failure


def test_lower_is_better_metrics_fail_upward():
    lines = [line("a", 800.0), line("b", 800.0, p50_ms=12.6, p50_ratio=1.26)]
    [failure] = history.check(lines, BOUNDS)[1]
    assert failure.startswith("gw_closed_c32 cal_latency_p50_ms")
    assert history.check([lines[0], line("b", 800.0, p50_ms=12.4,
                                          p50_ratio=1.24)],
                         BOUNDS) == (2, [])


@pytest.mark.parametrize("other_machine", [
    {"nproc": 8},               # more cores
    {"cal_ms_p50": 20.0},       # the calibration kernel runs 1.5x faster
])
def test_lines_from_another_machine_are_skipped(other_machine):
    """Absolute values never reach the verdict: a +30% host shift, or a
    line from another box, with every paired ratio at 1.0 passes — and
    so does the same shift downhill."""
    lines = [line("here", 800.0), line("fast-box", 1040.0, **other_machine)]
    assert history.check(lines, BOUNDS) == (2, [])
    lines = [line(f"fast-{i}", 1040.0, **other_machine) for i in range(4)]
    assert history.check(lines + [line("here", 800.0, p50_ms=13.0)],
                         BOUNDS) == (5, [])


def test_only_the_last_five_comparable_lines_count():
    lines = ([line("long-ago", 400.0, ratio=0.5)]
             + [line(f"pr{i}", 800.0) for i in range(4)]
             + [line("new", 790.0, ratio=0.99)])
    assert history.check(lines, BOUNDS) == (5, [])
    assert history.check(lines[:-1], BOUNDS)[1]


def test_committed_lines_replay_display_only():
    """The seven lines written before ratios existed judge nothing, so
    the host-day jump at ``pr25`` never becomes a best to fail against:
    a line that reproduces ``pr23`` exactly, paired at 1.0, passes."""
    committed = [json.loads(text) for text in
                 history.HISTORY.read_text().splitlines()]
    legacy = [entry for entry in committed if "ratios" not in entry]
    assert len(legacy) == 7
    assert history.check(legacy, history._bounds()) == (0, [])
    [pr23] = [entry for entry in legacy if entry["sha"].startswith("pr23")]
    replay = dict(pr23, sha="replay", ratios={
        workload: {name: 1.0 for name in metrics}
        for workload, metrics in pr23["metrics"].items()})
    assert history.check(legacy + [replay], history._bounds()) == (1, [])


def test_a_ratio_line_missing_a_workload_fails_loudly():
    lines = [line("a", 800.0), line("b", 800.0)]
    lines[1]["ratios"] = {"offline_compare": lines[1]["ratios"].pop(
        "gw_closed_c32")}
    with pytest.raises(SystemExit, match="no ratio for gw_closed_c32"):
        history.check(lines, BOUNDS)


def test_ratios_from_pair_divide_the_tree_median_by_the_ref_median():
    def run(value, p50):
        return {"metrics": {"cal_req_per_s": {"value": value},
                            "cal_latency_p50_ms": {"value": p50},
                            "embedding.encode.self_ms_per_req": {"value": 1}}}
    document = {"runs": {"gw_closed_c32": {
        "ref": [run(100.0, 10.0), run(120.0, 12.0), run(110.0, 11.0)],
        "tree": [run(99.0, 11.0), run(121.0, 13.0), run(104.5, 12.1)]}}}
    assert history.ratios_from_pair(document, BOUNDS) == {
        "gw_closed_c32": {"cal_req_per_s": 0.95, "cal_latency_p50_ms": 1.1}}


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
