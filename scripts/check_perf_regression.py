"""Compare a fresh BENCH_perf.json against the committed baseline.

Exits nonzero when any tracked throughput metric regressed by more than
the allowed fraction (default 25%) — or is missing from either file, so
deleting a bench section cannot pass the gate.  Latency-style metrics
(``*_ms``, ``*_s``) regress when they grow; throughput-style metrics
(``*_per_s``, ``speedup``) regress when they shrink.  Machine metadata
is reported but never compared.

Run (see also ``make bench-check``)::

    PYTHONPATH=src python scripts/bench_perf.py --output /tmp/fresh.json
    python scripts/check_perf_regression.py --fresh /tmp/fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: (section, metric, higher_is_better) triples guarded against regression.
TRACKED_METRICS = [
    ("encode", "batched_texts_per_s", True),
    ("encode", "speedup", True),
    ("search", "flat_batched_ms", False),
    ("search", "ivf_batched_ms", False),
    ("search", "pq_batched_ms", False),
    ("episode", "episodes_per_s", True),
    # the multi-turn stateful suite shares the hot path but adds
    # per-episode tool state + per-step turn attribution
    ("episode", "browser_episodes_per_s", True),
    ("catalog", "build_ms", False),
    # the variant ratios are < 1.0 by construction (shrunken variants
    # cost fewer tool_prompt_tokens than full); they regress upward
    ("catalog", "compressed_token_ratio", False),
    ("catalog", "minimal_token_ratio", False),
    ("grid", "sequential_s", False),
    ("grid", "parallel_s", False),
    ("grid", "process_s", False),
    ("serving", "batched_req_per_s", True),
    ("serving", "speedup_vs_sequential", True),
    # batched_p95_ms is reported in BENCH_perf.json but not guarded:
    # tail latency of a closed-loop load test jitters far beyond the
    # throughput tolerance on a shared machine
    # recoverability invariant: the chaos scenario's faults are all
    # recoverable, so the served fraction must not drop
    ("serving.chaos", "success_rate", True),
    # observability invariant: serving with every request traced must
    # stay within tolerance of the committed traced throughput — a
    # change that fattens the tracing hot path fails here
    ("serving.obs", "req_per_s_sample_1", True),
    # the HTTP front door over real sockets; p95_ms rides along in
    # BENCH_perf.json unguarded, same latency-jitter rationale as
    # serving.batched_p95_ms
    ("serving.http", "req_per_s", True),
    # engine-boundary invariant: simulated episodes routed through
    # repro.engines must keep pace with the direct path (bench_perf
    # additionally hard-asserts the gap below 5% while measuring)
    ("serving.engine_overhead", "engined_episodes_per_s", True),
    # carbon/power budget invariants: the controller must keep spending
    # less energy per request than uncontrolled serving while goodput
    # stays positive; served/shed counts ride along unguarded
    ("serving.budget", "goodput_rps", True),
    ("serving.budget", "energy_j_per_req", False),
]


def lookup(report: dict, section: str, metric: str):
    """Resolve a possibly dotted section path (``serving.chaos``)."""
    node = report
    for part in section.split("."):
        node = node.get(part)
        if not isinstance(node, dict):
            return None
    return node.get(metric)


def compare(baseline: dict, fresh: dict, tolerance: float) -> list[tuple]:
    """Return ``(metric, baseline, fresh, ratio)`` rows that fail the gate.

    A tracked metric absent from either report fails with ``None`` in
    the missing slot (and as the ratio): a gate that skips what it
    cannot find is passed by deleting the bench.  A zero or negative
    baseline has no meaningful ratio and is skipped.
    """
    regressions = []
    for section, metric, higher_is_better in TRACKED_METRICS:
        base_value = lookup(baseline, section, metric)
        fresh_value = lookup(fresh, section, metric)
        if base_value is None or fresh_value is None:
            regressions.append(
                (f"{section}.{metric}", base_value, fresh_value, None))
            continue
        if base_value <= 0:
            continue
        ratio = fresh_value / base_value
        regressed = (ratio < 1.0 - tolerance if higher_is_better
                     else ratio > 1.0 + tolerance)
        if regressed:
            regressions.append((f"{section}.{metric}", base_value, fresh_value, ratio))
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=str(REPO_ROOT / "BENCH_perf.json"),
                        help="committed baseline JSON")
    parser.add_argument("--fresh", required=True,
                        help="freshly generated JSON to validate")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    args = parser.parse_args(argv)

    baseline = json.loads(Path(args.baseline).read_text())
    fresh = json.loads(Path(args.fresh).read_text())

    regressions = compare(baseline, fresh, args.tolerance)
    checked = [f"{section}.{metric}" for section, metric, _ in TRACKED_METRICS
               if lookup(baseline, section, metric) is not None]
    print(f"checked {len(checked)} metrics against {args.baseline} "
          f"(tolerance {args.tolerance:.0%})")
    if not regressions:
        print("OK: no throughput regression")
        return 0
    for name, base_value, fresh_value, ratio in regressions:
        if ratio is None:
            where = "baseline" if base_value is None else "fresh report"
            print(f"MISSING {name}: tracked metric absent from the {where}")
            continue
        print(f"REGRESSION {name}: baseline {base_value:.4g} -> fresh "
              f"{fresh_value:.4g} ({ratio:.2f}x)")
    return 1


if __name__ == "__main__":
    sys.exit(main())
