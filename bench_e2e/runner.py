"""Orchestration: which rounds run, in what order, and what comes out.

An untraced run is ``ROUNDS`` rounds per workload, visited round-robin
(``w1 w2 w3 w4 w1 ...``) so a slow minute is spread over all of them; a
traced run is one untraced round followed by one traced round over the
same streams.  The full report (no ``--workload``) is an untraced run of
all four workloads plus one traced round each.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field

import numpy

from bench_e2e import metrics, workloads
from bench_e2e.cpus import pick_cpus
from bench_e2e.estimator import CAL_REF_MS, CalibrationKernel
from bench_e2e.tracing import dump_jsonl
from bench_e2e.verify import Mismatch, verify_round
from bench_e2e.workloads import WORKLOADS, RoundResult


@dataclass
class WorkloadReport:
    name: str
    untraced: list[RoundResult] = field(default_factory=list)
    traced: RoundResult | None = None
    end_to_end: dict[str, tuple[float, float]] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    verified: int = 0
    mismatch: Mismatch | None = None
    wall_s: float = 0.0

    @property
    def rounds(self) -> list[RoundResult]:
        return self.untraced + ([self.traced] if self.traced else [])

    @property
    def notes(self) -> list[str]:
        return [note for result in self.rounds for note in result.notes]

    @property
    def violations(self) -> list[str]:
        return [v for result in self.rounds for v in result.violations]

    @property
    def correct(self) -> bool:
        return self.mismatch is None and not self.violations

    def counts(self, trace: bool) -> tuple[int, int]:
        """(attempted, failed) over the rounds the reported metrics use."""
        return metrics.attempted_failed(
            self.rounds if trace else self.untraced)


def run(names: list[str], seed: int, seconds: float, *, untraced_rounds: int,
        trace: bool, quick: bool = False, trace_out: str | None = None,
        cpus: tuple[int, int] | None = None) -> dict[str, WorkloadReport]:
    """Run the planned rounds, verify the outputs, derive the metrics.

    ``cpus`` is ``(generator CPU, CPU of the program under test)``;
    ``__main__`` picks them before it pins the process.
    """
    gen_cpu, work_cpu = cpus or pick_cpus()
    reports = {name: WorkloadReport(name) for name in names}
    table = {name: WORKLOADS[name].quick() if quick else WORKLOADS[name]
             for name in names}
    # a traced-only run splits --seconds between its untraced and traced
    # round; the full report traces on top of a whole untraced run
    sharing = untraced_rounds + (1 if trace and untraced_rounds == 1 else 0)
    budget_s = seconds / sharing

    def one(name: str, round_index: int, traced: bool) -> RoundResult:
        workload = table[name]
        n_segments = (1 if quick else
                      workload.segments_per_round(seconds, sharing))
        started = time.perf_counter()
        result = workloads.run_round(workload, seed, round_index, traced,
                                     n_segments, budget_s, kernel, gen_cpu,
                                     scratch)
        reports[name].wall_s += time.perf_counter() - started
        return result

    kernel = CalibrationKernel(work_cpu)
    scratch = workloads.make_scratch()
    try:
        for round_index in range(untraced_rounds):
            for name in names:
                reports[name].untraced.append(one(name, round_index, False))
        if trace:
            for name in names:
                reports[name].traced = one(name, 0, True)
    finally:
        workloads.drop_scratch(scratch)

    for name, report in reports.items():
        started = time.perf_counter()
        for result in report.rounds:
            checked, mismatch = verify_round(result)
            report.verified += checked
            if mismatch is not None and report.mismatch is None:
                report.mismatch = mismatch
        report.end_to_end = metrics.end_to_end(report.untraced, table[name])
        if report.traced is not None:
            report.per_layer = metrics.per_layer(
                report.traced, report.untraced, table[name])
            if trace_out:
                path = f"{trace_out}.{name}.jsonl"
                dump_jsonl(report.traced.spans, path, report.traced.windows)
        report.wall_s += time.perf_counter() - started
    return reports


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def driver_line(report: WorkloadReport, trace: bool) -> str:
    """The one-line JSON result the benchmark contract asks for."""
    if trace:
        values = report.per_layer
    else:
        values = {name: value for name, (value, _) in report.end_to_end.items()}
    attempted, failed = report.counts(trace)
    return json.dumps({
        "correct": report.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    })


def print_report(report: WorkloadReport) -> None:
    attempted, failed = report.counts(report.traced is not None)
    segments = sum(len(result.segments) for result in report.untraced)
    print(f"== {report.name}: {len(report.untraced)} untraced round(s), "
          f"{segments} segments, {attempted} requests, {failed} failed, "
          f"{report.verified} outputs verified, {report.wall_s:.1f}s wall")
    for name, (value, spread) in report.end_to_end.items():
        print(f"  {name:<42} {value:>14.6g} {metrics.UNITS[name]:<7}"
              f" spread {spread:.3f}")
    for name, value in report.per_layer.items():
        print(f"  {name:<42} {value:>14.6g} {metrics.UNITS[name]}")
    for note in report.notes:
        print(f"  note: {note}")
    for violation in report.violations:
        print(f"  VIOLATION: {violation}")
    if report.mismatch is not None:
        print(f"  {report.mismatch}")


def provenance(seed: int, seconds: float, reports: dict[str, WorkloadReport],
               total_wall_s: float) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.REPO_ROOT,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cal_ref_ms": CAL_REF_MS,
        "workload_wall_s": {name: report.wall_s
                            for name, report in reports.items()},
        "total_wall_s": total_wall_s,
    }


def full_document(seed: int, seconds: float,
                  reports: dict[str, WorkloadReport],
                  total_wall_s: float) -> dict:
    """Everything the full report measured, as one JSON document."""
    document = {"provenance": provenance(seed, seconds, reports, total_wall_s),
                "workloads": {}}
    for name, report in reports.items():
        attempted, failed = report.counts(True)
        document["workloads"][name] = {
            "correct": report.correct,
            "attempted": attempted,
            "failed": failed,
            "verified": report.verified,
            "end_to_end": {
                key: {"value": value, "spread": spread,
                      "unit": metrics.UNITS[key]}
                for key, (value, spread) in report.end_to_end.items()},
            "per_layer": {key: {"value": value, "unit": metrics.UNITS[key]}
                          for key, value in report.per_layer.items()},
            "notes": report.notes,
            "violations": report.violations,
        }
    return document


def load_bounds() -> dict[str, float]:
    with open(workloads.REPO_ROOT / "BENCHMARK.json") as handle:
        return {entry["name"]: entry["bound"]
                for entry in json.load(handle)["end_to_end"]}


def print_aa(first: dict, second: dict) -> int:
    """Two full documents side by side; how many pairs broke their bound."""
    bounds = load_bounds()
    better = {name: direction for name, _, direction in metrics.END_TO_END}
    violations = 0
    print(f"{'workload':<16} {'metric':<22} {'run A':>12} {'run B':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for name, workload in first["workloads"].items():
        for key, entry in workload["end_to_end"].items():
            a = entry["value"]
            b = second["workloads"][name]["end_to_end"][key]["value"]
            # B against A, signed so that positive means B is worse
            worse = (b - a) / a if better[key] == "lower" else (a - b) / a
            broke = abs(worse) > bounds[key]
            violations += broke
            print(f"{name:<16} {key:<22} {a:>12.6g} {b:>12.6g} "
                  f"{worse:>+9.3f} {bounds[key]:>6.2f}"
                  f"{'  <-- outside bound' if broke else ''}")
    return violations
