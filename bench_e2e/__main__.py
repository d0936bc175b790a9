"""``python3 -m bench_e2e`` — the benchmark's one command.

With ``--workload`` it is the form ``BENCHMARK.json`` names: one
workload, ``--trace 0`` for the end-to-end metrics or ``--trace 1`` for
the per-layer ones, and the last line of stdout is one JSON object.
Without ``--workload`` it runs all four workloads, untraced then traced,
prints every metric by name with its unit, and ends with the same facts
plus a provenance block as one JSON document (``--out`` also writes it
to a file; nothing is written inside the repository otherwise).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench_e2e: no program to measure: {ROOT / 'src' / 'repro'} "
             f"is missing (run from a checkout of the repository)")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench_e2e.cpus import pick_cpus  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench_e2e",
                                     description=__doc__)
    parser.add_argument("--workload", default=None,
                        help="run one workload and end with the one-line "
                             "JSON result (default: the full report)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="measured seconds per workload (sizes the plan)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the per-layer metrics")
    parser.add_argument("--aa", action="store_true",
                        help="run the full report twice, each time in a "
                             "process of its own, and compare")
    parser.add_argument("--quick", action="store_true",
                        help="1 round x 1 tiny segment (self-tests)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the full JSON document here")
    parser.add_argument("--trace-out", default=None, metavar="PREFIX",
                        help="write spans to PREFIX.<workload>.jsonl")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if args.aa:
        return _a_a(args)

    # before numpy loads, so that OpenBLAS sizes its pool for the one CPU
    # the program under test gets (see cpus.py)
    cpus = pick_cpus()
    os.sched_setaffinity(0, {cpus[1]})
    from bench_e2e import runner
    from bench_e2e.workloads import ROUNDS, WORKLOADS

    if args.workload is not None:
        if args.workload not in WORKLOADS:
            parser.error(f"--workload: one of {', '.join(WORKLOADS)}")
        traced = bool(args.trace)
        reports = runner.run(
            [args.workload], args.seed, args.seconds,
            untraced_rounds=1 if traced or args.quick else ROUNDS,
            trace=traced, quick=args.quick, trace_out=args.trace_out,
            cpus=cpus)
        report = reports[args.workload]
        runner.print_report(report)
        print(runner.driver_line(report, traced))
        return 0 if report.correct else 1

    reports = runner.run(
        list(WORKLOADS), args.seed, args.seconds,
        untraced_rounds=1 if args.quick else ROUNDS, trace=True,
        quick=args.quick, trace_out=args.trace_out, cpus=cpus)
    for report in reports.values():
        runner.print_report(report)
    document = runner.full_document(args.seed, args.seconds, reports,
                                    time.perf_counter() - started)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=2) + "\n")
    print(json.dumps(document))
    return 0 if all(report.correct for report in reports.values()) else 1


def _a_a(args: argparse.Namespace) -> int:
    """The full report twice, then both side by side against the bounds.

    Each pass is a process of its own: in one process the second pass
    would inherit the first one's memory high-water mark and warm caches.
    """
    from bench_e2e import runner, workloads

    command = [sys.executable, "-m", "bench_e2e", "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.quick:
        command.append("--quick")
    scratch = workloads.make_scratch()
    documents, failed = [], False
    try:
        for label in "AB":
            path = scratch / f"pass-{label}.json"
            done = subprocess.run(command + ["--out", str(path)], cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True)
            # the report without its last line, the one-line document
            print(f"-- pass {label}")
            print("\n".join(done.stdout.splitlines()[:-1]))
            failed = failed or done.returncode != 0
            documents.append(json.loads(path.read_text()))
    finally:
        workloads.drop_scratch(scratch)
    outside = runner.print_aa(*documents)
    if outside:
        print(f"A/A: {outside} metric pair(s) outside their bound")
    if args.out:
        Path(args.out).write_text(json.dumps(documents, indent=2) + "\n")
    return 1 if failed or outside else 0


if __name__ == "__main__":
    sys.exit(main())
