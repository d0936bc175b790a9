"""One line per PR of the repository benchmark's end-to-end metrics.

``BENCH_history.jsonl`` keeps what a paired run against the parent cannot
see: four PRs may each lose 8% to their parent and never leave a 25% bound.
``append`` adds the line of a full report (``python3 -m bench_e2e --out
report.json``); ``trend`` prints the file as a table; ``check`` fails when
an end-to-end metric of the newest line is worse than the best of the last
five comparable lines (same ``nproc``, calibration kernel within 15%) by
more than its ``BENCHMARK.json`` bound.  (``make bench-trend``: both.)
"""

import argparse
import json
import statistics
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
HISTORY = REPO_ROOT / "BENCH_history.jsonl"
WINDOW = 5              # comparable lines the newest one is held against
CAL_TOLERANCE = 0.15    # how far machine.cal_ms_p50 may differ within them


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


def check(lines: list[dict], bounds: dict) -> tuple[int, list[str]]:
    """``(comparable lines used, failures)`` for the newest of ``lines``;
    ``bounds`` maps an end-to-end metric to ``(better, bound)``."""
    *earlier, newest = lines
    window = [line for line in earlier
              if line["nproc"] == newest["nproc"]
              and abs(line["cal_ms_p50"] / newest["cal_ms_p50"] - 1.0)
              <= CAL_TOLERANCE][-WINDOW:]
    failures = []
    for workload, metrics in newest["metrics"].items():
        for name, (value, _spread) in metrics.items():
            better, bound = bounds[name]
            seen = [line["metrics"][workload][name][0] for line in window
                    if name in line["metrics"].get(workload, {})]
            best = (min if better == "lower" else max)(seen, default=value)
            worse = (value - best if better == "lower" else best - value) / best
            if worse > bound:
                failures.append(f"{workload} {name}: {value:.4g} is "
                                f"{worse:.0%} worse than the window's best "
                                f"{best:.4g} (bound {bound:.0%})")
    return len(window), failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=("append", "trend", "check"))
    parser.add_argument("report", nargs="?", help="append: the full report")
    parser.add_argument("--sha", help="append: record this, not git_sha")
    args = parser.parse_args(argv)
    if args.command == "append":
        line = line_from_report(json.loads(Path(args.report).read_text()),
                                args.sha)
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
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    used, failures = check(lines, {
        entry["name"]: (entry["better"], entry["bound"])
        for entry in contract["end_to_end"]})
    for failure in failures:
        print("REGRESSION", failure)
    print(f"bench_history check: {lines[-1]['sha'][:7]} against the best of "
          f"{used} comparable line(s)" + ("" if used else ": nothing to judge"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
