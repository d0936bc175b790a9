"""One line per PR of the repository benchmark's end-to-end metrics.

``BENCH_history.jsonl`` keeps what a paired run against the parent cannot
see: four PRs may each lose 8% to their parent and never leave a 25% bound.
``append`` adds the line of a full report (``python3 -m bench_e2e --out
report.json``) together with the tree/parent median ratio of every
(workload, end-to-end metric) of that PR's paired run against its parent
(``scripts/bench_pair.py --ref <parent> --out pair.json``); ``trend``
prints the absolute values as a table; ``check`` fails when the product
of the last five lines' ratios is worse than a metric's ``BENCHMARK.json``
bound.  (``make bench-trend``: both.)

Only ratios are judged: both sides of one ratio ran on the same day on the
same host, so a faster or slower host day cannot move the chain.  Lines
without ratios are display-only.
"""

import argparse
import json
import math
import statistics
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
HISTORY = REPO_ROOT / "BENCH_history.jsonl"
WINDOW = 5              # ratio lines whose product is judged


def line_from_report(document: dict, sha: str | None = None) -> dict:
    """The history line of one full ``bench_e2e`` document."""
    provenance, workloads = document["provenance"], document["workloads"]
    if any(not run["correct"] or run["failed"] for run in workloads.values()):
        raise SystemExit("bench_history: failed or unverified requests")
    return {
        "sha": sha or provenance["git_sha"],
        **{key: provenance[key] for key in ("seed", "seconds", "nproc")},
        "cal_ms_p50": round(statistics.median(
            workload["per_layer"]["machine.cal_ms_p50"]["value"]
            for workload in workloads.values()), 3),
        "metrics": {name: {key: [float(f"{entry['value']:.6g}"),
                                 round(entry["spread"], 4)]
                           for key, entry in workload["end_to_end"].items()}
                    for name, workload in workloads.items()},
    }


def ratios_from_pair(document: dict, names) -> dict:
    """Tree/ref median ratio of each metric in ``names``, per workload,
    from ``bench_pair.py --out``'s raw runs."""
    ratios = {}
    for workload, sides in document["runs"].items():
        ratios[workload] = {}
        for name in names:
            ref, tree = (statistics.median(run["metrics"][name]["value"]
                                           for run in sides[side])
                         for side in ("ref", "tree"))
            ratio = tree / ref if ref else (1.0 if tree == ref else math.inf)
            ratios[workload][name] = float(f"{ratio:.6g}")
    return ratios


def check(lines: list[dict], bounds: dict) -> tuple[int, list[str]]:
    """``(ratio lines used, failures)`` for the last :data:`WINDOW` lines
    that carry ratios; ``bounds`` maps an end-to-end metric to
    ``(better, bound)``.  Every line judged must cover the same
    (workload, metric) pairs: a gap would silently shorten one chain."""
    window = [line for line in lines if "ratios" in line][-WINDOW:]
    keys = {(workload, name) for line in window
            for workload, metrics in line["ratios"].items()
            for name in metrics}
    failures = []
    for workload, name in sorted(keys):
        product = 1.0
        for line in window:
            ratio = line["ratios"].get(workload, {}).get(name)
            if ratio is None:
                raise SystemExit(f"bench_history: {line['sha']} has no ratio "
                                 f"for {workload} {name}")
            product *= ratio
        better, bound = bounds[name]
        worse = 1.0 - product if better == "higher" else product - 1.0
        if worse > bound:
            failures.append(f"{workload} {name}: the last {len(window)} "
                            f"ratios multiply to {product:.3f}, {worse:.0%} "
                            f"worse (bound {bound:.0%})")
    return len(window), failures


def _bounds() -> dict:
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: (entry["better"], entry["bound"])
            for entry in contract["end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=("append", "trend", "check"))
    parser.add_argument("report", nargs="?", help="append: the full report")
    parser.add_argument("pair", nargs="?",
                        help="append: bench_pair.py --out against the parent")
    parser.add_argument("--sha", help="append: record this, not git_sha")
    args = parser.parse_args(argv)
    if args.command == "append":
        line = line_from_report(json.loads(Path(args.report).read_text()),
                                args.sha)
        if args.pair:
            line["ratios"] = ratios_from_pair(
                json.loads(Path(args.pair).read_text()), _bounds())
        with HISTORY.open("a") as handle:
            handle.write(json.dumps(line) + "\n")
        return 0
    lines = [json.loads(line) for line in HISTORY.read_text().splitlines()]
    if args.command == "trend":
        shown = lines[-8:]
        print(f"{'':<38}" + "".join(f"{line['sha'][:7]:>11}" for line in shown))
        print(f"{'machine.cal_ms_p50 (nproc)':<38}" + "".join(
            f"{line['cal_ms_p50']:>7.1f} ({line['nproc']})" for line in shown))
        for workload, metrics in shown[-1]["metrics"].items():
            for name in metrics:
                print(f"{workload + ' ' + name:<38}" + "".join(
                    f"{line['metrics'].get(workload, {}).get(name, '-')[0]:>11.4}"
                    for line in shown))
        return 0
    used, failures = check(lines, _bounds())
    for failure in failures:
        print("REGRESSION", failure)
    print(f"bench_history check: the product of {used} ratio line(s)"
          + ("" if used else ": nothing to judge"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
