"""Paired parent-vs-working-tree runs of the repository benchmark.

The procedure every perf PR here needs (`choosing-metrics` section 8):
extract ``--ref`` into a temporary directory, run ``python3 -m bench_e2e
--workload W --seed s --seconds N --trace T`` on that copy and on the
working tree, one pair per seed, alternating which side runs first, and
print per-metric quartiles, medians and win counts.  A metric reads
``gain`` only when the tree wins at least nine tenths of the pairs (ties
count for neither side) *and* the medians differ by more than the ref's
own interquartile spread; ``REGRESSION`` when the tree's median is worse
than the ref's by more than the bound ``BENCHMARK.json`` fixes.

Each side runs the benchmark code of its own tree, so this compares a
program change only while ``bench_e2e/`` is identical on both sides (the
tool says so when it is not).  Nothing is written inside the repository
beyond what the benchmark itself leaves (git-ignored).

Without ``--workload`` every workload of ``BENCHMARK.json`` is compared,
in its order, and the exit code is non-zero when any of them reads
``REGRESSION`` or has a run whose output did not verify — the CI gate
(``bench-gate``: the merge base as ``--ref``, three pairs).

Run:  python scripts/bench_pair.py --ref <sha> [--workload http_closed_c2]
      make bench-pair REF=<sha> [WORKLOAD=http_closed_c2] [PAIRS=10]
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def extract_ref(ref: str, dest: Path) -> None:
    """Unpack the committed files of ``ref`` into ``dest`` (no git
    metadata is touched: ``git archive`` piped through ``tar``)."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref],
                             cwd=REPO_ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One benchmark run in ``tree``; returns the one-line JSON result."""
    done = subprocess.run(
        [sys.executable, "-m", "bench_e2e", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"bench_pair: run in {tree} (seed {seed}) printed "
                         f"no JSON result (exit {done.returncode})")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(better: str, bound: float | None,
            ref: list[float], tree: list[float]) -> dict:
    """Quartiles, win counts and the section-8 verdict for one metric."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (t - r) > 0 for r, t in zip(ref, tree))
    losses = sum(sign * (t - r) < 0 for r, t in zip(ref, tree))
    ref_q, tree_q = quartiles(ref), quartiles(tree)
    gained = sign * (tree_q[1] - ref_q[1])      # > 0: tree's median better
    spread = ref_q[2] - ref_q[0]
    verdict = "-"
    if wins >= 0.9 * len(ref) and gained > spread:
        verdict = "gain"
    elif (bound is not None and ref_q[1] != 0
          and -gained / abs(ref_q[1]) > bound):
        verdict = "REGRESSION"
    elif losses >= 0.9 * len(ref) and -gained > spread:
        verdict = "worse (inside bound)"
    return {"ref": ref_q, "tree": tree_q, "wins": wins,
            "losses": losses, "ties": len(ref) - wins - losses,
            "delta": ((tree_q[1] - ref_q[1]) / abs(ref_q[1])
                      if ref_q[1] else 0.0),
            "verdict": verdict}


def compare_workload(workload: str, trees: dict[str, Path], seeds: list[int],
                     args: argparse.Namespace, table: dict) -> tuple[dict, bool]:
    """Run the pairs of one workload and print its table; returns every
    run's raw result and whether the workload fails the gate."""
    runs: dict[str, list[dict]] = {"ref": [], "tree": []}
    for index, seed in enumerate(seeds):
        order = ("ref", "tree") if index % 2 == 0 else ("tree", "ref")
        for side in order:
            runs[side].append(run_once(trees[side], workload, seed,
                                       args.seconds, args.trace))
        print(f"pair {index + 1}/{len(seeds)} seed {seed} "
              f"({order[0]} first): " + "  ".join(
                  f"{side} failed {runs[side][-1]['failed']}/"
                  f"{runs[side][-1]['attempted']}"
                  for side in runs), flush=True)
    names = [name for name in runs["ref"][0]["metrics"]
             if all(name in run["metrics"]
                    for side in runs.values() for run in side)]
    print(f"\n{workload}: {args.ref} (ref) vs working tree, "
          f"{len(seeds)} pairs, seeds {seeds}, --seconds {args.seconds:g} "
          f"--trace {args.trace}")
    print(f"{'metric':<44} {'ref q1 / median / q3':>32} "
          f"{'tree q1 / median / q3':>32} {'delta':>8} {'W/L/T':>8}  verdict")
    regressed = False
    for name in names:
        better, bound = table.get(name, ("lower", None))
        row = compare(better, bound,
                      [run["metrics"][name]["value"] for run in runs["ref"]],
                      [run["metrics"][name]["value"] for run in runs["tree"]])
        regressed = regressed or row["verdict"] == "REGRESSION"
        print(f"{name:<44} "
              f"{' / '.join(f'{v:.4g}' for v in row['ref']):>32} "
              f"{' / '.join(f'{v:.4g}' for v in row['tree']):>32} "
              f"{row['delta']:>+8.1%} "
              f"{row['wins']}/{row['losses']}/{row['ties']:<4} "
              f"{row['verdict']}")
    for side, results in runs.items():
        failed = sum(run["failed"] for run in results)
        attempted = sum(run["attempted"] for run in results)
        incorrect = sum(not run["correct"] for run in results)
        print(f"{side}: failed {failed}/{attempted}, "
              f"{incorrect} run(s) with unverified output")
        regressed = regressed or incorrect > 0
    return runs, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", required=True,
                        help="commit to compare the working tree against")
    parser.add_argument("--workload", default=None,
                        help="one workload (default: every workload of "
                             "BENCHMARK.json, in its order)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seeds, one per pair "
                             "(default: 1..PAIRS)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = compare the per-layer metrics instead")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write every run's raw result here (JSON)")
    args = parser.parse_args(argv)
    seeds = ([int(seed) for seed in args.seeds.split(",")] if args.seeds
             else list(range(1, args.pairs + 1)))
    if len(set(seeds)) != len(seeds):
        parser.error("--seeds must be distinct")
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    table = {entry["name"]: (entry["better"], entry.get("bound"))
             for entry in contract["end_to_end"] + contract["per_layer"]}
    workloads = ([args.workload] if args.workload
                 else [entry["name"] for entry in contract["workloads"]])

    ref_tree = Path(tempfile.mkdtemp(prefix="bench-pair-ref-"))
    runs: dict[str, dict] = {}
    failing = []
    try:
        extract_ref(args.ref, ref_tree)
        if subprocess.run(["git", "diff", "--quiet", args.ref, "--",
                           "bench_e2e", "BENCHMARK.json"],
                          cwd=REPO_ROOT).returncode != 0:
            print("note: bench_e2e/ or BENCHMARK.json differ between "
                  f"{args.ref} and the working tree — the two sides do "
                  "not run the same benchmark")
        trees = {"ref": ref_tree, "tree": REPO_ROOT}
        for workload in workloads:
            runs[workload], regressed = compare_workload(
                workload, trees, seeds, args, table)
            if regressed:
                failing.append(workload)
    finally:
        shutil.rmtree(ref_tree, ignore_errors=True)

    if args.out:
        Path(args.out).write_text(json.dumps(
            {"ref": args.ref, "seeds": seeds, "seconds": args.seconds,
             "trace": args.trace, "runs": runs}, indent=1) + "\n")
    if len(workloads) > 1:
        print(f"\nbench_pair: {len(workloads)} workloads against {args.ref}: "
              + (f"FAIL ({', '.join(failing)})" if failing else "ok"))
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())
