"""run_grid is the cell-by-cell loop over runner.run, bit for bit.

The grid's one referee: every cell of ``run_grid`` must equal the
``runner.run`` call of the same arguments on full :class:`EpisodeResult`
and :class:`MetricSummary` equality, in ``GridSpec.cells`` order — for a
stateless suite and for the stateful multi-turn ``browser`` suite.
"""

import pytest

from repro.embedding.cache import CachedEmbedder
from repro.evaluation.runner import ExperimentRunner
from repro.specs import GridSpec
from repro.suites import load_suite

SCHEMES = ["default", "lis-k3"]
MODELS = ["hermes2-pro-8b"]
QUANTS = ["q4_K_M", "q8_0"]
CELLS = GridSpec(schemes=SCHEMES, models=MODELS, quants=QUANTS).cells


@pytest.fixture(scope="module")
def suite():
    return load_suite("edgehome", n_queries=8)


@pytest.mark.parametrize("suite_name,n_queries", [("edgehome", 8), ("browser", 6)])
def test_grid_equals_cell_by_cell_runs(suite_name, n_queries):
    suite = load_suite(suite_name, n_queries=n_queries)
    grid = ExperimentRunner(suite, embedder=CachedEmbedder()).run_grid(
        SCHEMES, MODELS, QUANTS)
    assert tuple(grid) == CELLS  # same cells, same order
    reference = ExperimentRunner(suite, embedder=CachedEmbedder())
    for cell in CELLS:
        run = reference.run(*cell)
        # EpisodeResult equality covers steps, turn indices, level,
        # fallback, timing, energy and token floats
        assert grid[cell].episodes == run.episodes, cell
        assert grid[cell].summary == run.summary, cell


def test_grid_covers_all_cells(suite):
    results = ExperimentRunner(suite, embedder=CachedEmbedder()).run_grid(
        SCHEMES, MODELS, QUANTS)
    assert len(results) == len(SCHEMES) * len(MODELS) * len(QUANTS)
    for (scheme, model, quant), run in results.items():
        assert run.scheme == scheme
        assert run.model == model
        assert run.quant == quant
        assert len(run.episodes) == 8
