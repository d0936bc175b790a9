"""Table II: context window x tool count for one GeoEngine query.

Paper measurement (Llama3.1-8b-q4_K_M on the AGX Orin, query "Plot the
fmow VQA captions in UK from Fall 2009"):

    window  #tools  success  time   power
    16K     46      no       30 s   27 W
    16K     19      yes      20 s   26 W
    8K      19      yes      17 s   22 W
    max drop                 -43%   -19%

We sweep the same three configurations over many seeded instantiations of
the paper's query template and check the two headline effects: fewer
tools lift success, and the (fewer tools, smaller window) pair cuts both
time and power, with drops in the paper's ballpark.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import attach_rows
from repro.baselines import DefaultAgent
from repro.llm import SimulatedLLM
from repro.suites.base import BenchmarkSuite
from repro.suites.geoengine import generate_geoengine_queries
from repro.tools import ToolCatalog, load_catalog


def _vqa_queries(n: int = 24):
    """Seeded instantiations of the paper's example template."""
    queries = generate_geoengine_queries(400, seed=7, split="table2")
    vqa = [q for q in queries if "VQA captions" in q.text]
    return vqa[:n]


def _reduced_catalog(full: ToolCatalog, queries, size: int = 19) -> ToolCatalog:
    """A 19-tool subset covering the gold chains (a Level-2-style union)."""
    keep: dict[str, None] = {}
    for query in queries:
        for tool in query.gold_tools:
            keep.setdefault(tool, None)
    for tool in full:
        if len(keep) >= size:
            break
        keep.setdefault(tool.name, None)
    # select, not subset: tool order is prompt order, gold chains first
    return ToolCatalog("table2", full.select(list(keep)[:size]))


def _measure(queries, catalog, window):
    suite = BenchmarkSuite("table2", catalog, list(queries), sequential=True)
    llm = SimulatedLLM.from_registry("llama3.1-8b", "q4_K_M")
    agent = DefaultAgent(llm=llm, suite=suite, context_window=window)
    episodes = [agent.run(query) for query in queries]
    return {
        "success": float(np.mean([episode.success for episode in episodes])),
        "time_s": float(np.mean([episode.time_s for episode in episodes])),
        "power_w": float(sum(e.energy_j for e in episodes)
                         / sum(e.time_s for e in episodes)),
    }


@pytest.mark.benchmark(group="table2")
def test_table2_context_and_toolcount(benchmark):
    full = load_catalog("geoengine")
    queries = _vqa_queries()
    reduced = _reduced_catalog(full, queries)
    assert len(reduced) == 19  # the paper's reduced pool size

    def run_grid():
        return {
            "16K/46": _measure(queries, full, 16384),
            "16K/19": _measure(queries, reduced, 16384),
            "8K/19": _measure(queries, reduced, 8192),
        }

    grid = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    print("\nTable II — 'Plot the fmow VQA captions in UK from Fall 2009'")
    print(f"{'config':<8} {'success':>8} {'time (s)':>9} {'power (W)':>10}   paper")
    paper = {"16K/46": ("no", 30, 27), "16K/19": ("yes", 20, 26), "8K/19": ("yes", 17, 22)}
    for config, row in grid.items():
        ref = paper[config]
        print(f"{config:<8} {row['success']:>8.1%} {row['time_s']:>9.2f} "
              f"{row['power_w']:>10.2f}   ({ref[0]}, {ref[1]} s, {ref[2]} W)")

    time_drop = 1.0 - grid["8K/19"]["time_s"] / grid["16K/46"]["time_s"]
    power_drop = 1.0 - grid["8K/19"]["power_w"] / grid["16K/46"]["power_w"]
    print(f"max drop: time -{time_drop:.0%} (paper -43%), "
          f"power -{power_drop:.0%} (paper -19%)")
    attach_rows(benchmark, {
        "time_drop": round(time_drop, 3), "power_drop": round(power_drop, 3),
        **{f"{cfg}_{key}": round(val, 3) for cfg, row in grid.items()
           for key, val in row.items()},
    })

    # fewer tools lift success (the motivating observation)
    assert grid["16K/19"]["success"] > grid["16K/46"]["success"]
    # time falls monotonically across the three configs
    assert grid["16K/46"]["time_s"] > grid["16K/19"]["time_s"] > grid["8K/19"]["time_s"]
    # power falls when the window shrinks
    assert grid["8K/19"]["power_w"] < grid["16K/19"]["power_w"]
    # headline drops in the paper's ballpark (43% / 19%)
    assert 0.25 <= time_drop <= 0.60
    assert 0.08 <= power_drop <= 0.30
