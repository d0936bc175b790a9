"""Generate EXPERIMENTS.md: paper-reported vs measured, every table/figure.

Run:  python scripts/make_experiments_md.py [n_queries]
"""

from __future__ import annotations

import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# make the benchmarks package importable when run as a script
sys.path.insert(0, REPO_ROOT)

from repro.evaluation.metrics import normalize
from repro.evaluation.runner import ExperimentRunner
from repro.suites import load_suite

PAPER_TABLE1 = {
    "bfcl": {"full": 63.04, "q4_0": 20.43, "q4_1": 34.35, "q4_K_M": 39.57, "q8_0": 44.35},
    "geoengine": {"full": 63.91, "q4_0": 43.04, "q4_1": 59.57, "q4_K_M": 56.96, "q8_0": 53.04},
}
# (success %, tool acc %, time cut %, power cut %) as reported in Section IV
PAPER_FIG2 = {
    "hermes2-pro-8b": ("~71", "89", "up to 80", "up to 45"),
    "llama3.1-8b": ("44.2", "93.8", "72", "30"),
    "mistral-8b": ("no gain", "no gain", "77", "18"),
    "phi3-8b": ("55", "78", "55", "20"),
    "qwen2-1.5b": ("~40", "76", "48", "20"),
    "qwen2-7b": ("68", "87", "up to 70", "27"),
}
PAPER_FIG3 = {
    "hermes2-pro-8b": ("63", "64", "15", "6"),
    "llama3.1-8b": ("56", "~56", "up to 40", "~12"),
    "mistral-8b": ("46", "47", "-10 (slower)", "9"),
    "qwen2-7b": ("35", "~35", "21", "13"),
}


def table1_section(out, n):
    out.append("## Table I — quantization ladder (Llama3.1-8b, default agent)\n")
    out.append("| suite | variant | paper success | measured success | measured acc |")
    out.append("|---|---|---|---|---|")
    for suite_name in ("bfcl", "geoengine"):
        runner = ExperimentRunner(load_suite(suite_name, n_queries=n))
        for quant in ("full", "q4_0", "q4_1", "q4_K_M", "q8_0"):
            summary = runner.run("default", "llama3.1-8b", quant).summary
            out.append(
                f"| {suite_name} | {quant} | {PAPER_TABLE1[suite_name][quant]:.1f}% "
                f"| {summary.success_rate:.1%} | {summary.tool_accuracy:.1%} |")
    out.append("")
    out.append("Shape reproduced: full precision dominates, q4_0 collapses hardest, "
               "and the GeoEngine ladder is non-monotone in bits (the q4 mid-tier "
               "beats q8_0 on sequential chains). Absolute BFCL levels sit below "
               "the paper's (our argument-error channel is harsher); the ordering "
               "and gaps carry the claim.\n")


def figure_section(out, suite_name, models, paper, n, title):
    out.append(f"## {title}\n")
    out.append("| model | metric | paper (LiS best) | measured default | "
               "measured Gorilla | measured LiS k3 | measured LiS k5 |")
    out.append("|---|---|---|---|---|---|---|")
    runner = ExperimentRunner(load_suite(suite_name, n_queries=n))
    for model in models:
        base = runner.run("default", model, "q4_K_M")
        rows = {"default": base}
        for scheme in ("gorilla", "lis-k3", "lis-k5"):
            rows[scheme] = runner.run(scheme, model, "q4_K_M")
        paper_success, paper_acc, paper_time, paper_power = paper[model]
        norm = {scheme: normalize(run.summary, base.summary)
                for scheme, run in rows.items()}
        out.append(
            f"| {model} | success | {paper_success}% | "
            + " | ".join(f"{rows[s].summary.success_rate:.1%}"
                         for s in ("default", "gorilla", "lis-k3", "lis-k5")) + " |")
        out.append(
            f"| {model} | tool acc | {paper_acc}% | "
            + " | ".join(f"{rows[s].summary.tool_accuracy:.1%}"
                         for s in ("default", "gorilla", "lis-k3", "lis-k5")) + " |")
        out.append(
            f"| {model} | time cut | {paper_time}% | — | "
            + " | ".join(f"{1 - norm[s].normalized_time:.0%}"
                         for s in ("gorilla", "lis-k3", "lis-k5")) + " |")
        out.append(
            f"| {model} | power cut | {paper_power}% | — | "
            + " | ".join(f"{1 - norm[s].normalized_power:.0%}"
                         for s in ("gorilla", "lis-k3", "lis-k5")) + " |")
    out.append("")


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 230
    start = time.time()
    out: list[str] = []
    out.append("# EXPERIMENTS — paper vs measured\n")
    out.append(f"All numbers from the seeded simulator ({n} queries per cell; "
               "regenerate with `make bench-paper` or "
               f"`python scripts/make_experiments_md.py {n}`). Our substrate is a "
               "calibrated behavioural simulator, not the authors' testbed: "
               "*shapes* (orderings, gaps, crossovers) are the reproduction "
               "target, not absolute values. Known deviations are listed at "
               "the end.\n")
    table1_section(out, n)

    out.append("## Table II — context window x tool count "
               "(Llama3.1-8b-q4_K_M, 'Plot the fmow VQA captions...')\n")
    out.append("Regenerated by `benchmarks/bench_table2.py`; measured on the "
               "template's seeded instantiations:\n")
    from benchmarks.bench_table2 import _measure, _reduced_catalog, _vqa_queries
    from repro.tools import load_catalog

    full = load_catalog("geoengine")
    queries = _vqa_queries()
    reduced = _reduced_catalog(full, queries)
    out.append("| config | paper | measured success / time / power |")
    out.append("|---|---|---|")
    paper_rows = {"16K/46": "fail, 30 s, 27 W", "16K/19": "ok, 20 s, 26 W",
                  "8K/19": "ok, 17 s, 22 W"}
    grid = {}
    for config, (catalog, window) in {
        "16K/46": (full, 16384), "16K/19": (reduced, 16384), "8K/19": (reduced, 8192),
    }.items():
        row = _measure(queries, catalog, window)
        grid[config] = row
        out.append(f"| {config} | {paper_rows[config]} | {row['success']:.0%}, "
                   f"{row['time_s']:.1f} s, {row['power_w']:.1f} W |")
    time_drop = 1 - grid["8K/19"]["time_s"] / grid["16K/46"]["time_s"]
    power_drop = 1 - grid["8K/19"]["power_w"] / grid["16K/46"]["power_w"]
    out.append(f"| max drop | -43% time, -19% power | -{time_drop:.0%} time, "
               f"-{power_drop:.0%} power |")
    out.append("")

    figure_section(out, "bfcl",
                   ["hermes2-pro-8b", "llama3.1-8b", "mistral-8b", "phi3-8b",
                    "qwen2-1.5b", "qwen2-7b"],
                   PAPER_FIG2, n, "Figure 2 — BFCL grid (q4_K_M column shown)")
    figure_section(out, "geoengine",
                   ["hermes2-pro-8b", "llama3.1-8b", "mistral-8b", "qwen2-7b"],
                   PAPER_FIG3, n, "Figure 3 — GeoEngine grid (q4_K_M column shown)")

    out.append("## Section IV — level-selection observation\n")
    runner_b = ExperimentRunner(load_suite("bfcl", n_queries=n))
    runner_g = ExperimentRunner(load_suite("geoengine", n_queries=n))
    hist_b = runner_b.run("lis-k3", "hermes2-pro-8b", "q4_K_M").summary.level_histogram
    hist_g = runner_g.run("lis-k3", "hermes2-pro-8b", "q4_K_M").summary.level_histogram
    total_b, total_g = sum(hist_b.values()), sum(hist_g.values())
    out.append(f"- BFCL: Level 1 selected {hist_b.get(1, 0) / total_b:.0%} of queries "
               f"(paper: Level 1 wins) — Level 2 {hist_b.get(2, 0) / total_b:.0%}, "
               f"Level 3 {hist_b.get(3, 0) / total_b:.0%}")
    out.append(f"- GeoEngine: Level 2 selected {hist_g.get(2, 0) / total_g:.0%} "
               f"(paper: Level 2 wins) — Level 1 {hist_g.get(1, 0) / total_g:.0%}, "
               f"Level 3 {hist_g.get(3, 0) / total_g:.0%}\n")

    out.append("## Known deviations\n")
    out.append("1. **Llama3.1 BFCL LiS success** lands ~15-25 pp above the paper's "
               "44.2%. The paper's own numbers for this cell are internally hard "
               "to reconcile (93.8% accuracy with 44.2% success next to a 39.6% "
               "default implies retrieved-set-specific argument collapse); our "
               "schema-confusion channel reproduces the direction (acc >> "
               "success) but not the full depth.")
    out.append("2. **Gorilla on GeoEngine** collapses to ~0-5% here vs 'struggled "
               "to improve' in the paper; per-turn re-retrieval was granted a "
               "wider k and result context, and chains still break. Direction "
               "matches, magnitude is more extreme.")
    out.append("3. **Mistral GeoEngine time** does not show the paper's +10% "
               "regression for some variants (our fallback rate is lower).")
    out.append("4. **Table I BFCL absolute levels** run ~10 pp under the paper; "
               "the five-variant ordering and the full-vs-q4_0 gap are "
               "reproduced.")
    out.append("5. The confidence threshold is 0.30, not the paper's 0.5 — our "
               "embedder's cosine scale is colder than MPNet's (unrelated pairs "
               "score ~0.0 vs ~0.3-0.5); see `repro/core/controller.py`.\n")
    out.append(f"_Generated in {time.time() - start:.0f}s._\n")

    with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md"), "w") as handle:
        handle.write("\n".join(out))
    print(f"wrote EXPERIMENTS.md ({time.time() - start:.0f}s)")


if __name__ == "__main__":
    main()
