"""Process-pool run_grid must reproduce the sequential results bitwise.

The process backend crosses a serialization boundary — suite, Search
Levels and the warm embedder are pickled to workers, episode batches and
cache snapshots are pickled back — so these tests pin down both halves
of the contract: full :class:`EpisodeResult` equality against the
sequential path, and the pickling/merging machinery itself.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.embedding.cache import CachedEmbedder
from repro.evaluation.runner import ExperimentRunner
from repro.suites import load_suite
from repro.tools.executor import SimulatedToolExecutor

SCHEMES = ["default", "lis-k3"]
MODELS = ["hermes2-pro-8b"]
QUANTS = ["q4_K_M", "q8_0"]
#: CI sets this explicitly; local runs default to a 2-worker pool.
WORKERS = int(os.environ.get("REPRO_PROCESS_WORKERS", "2"))


@pytest.fixture(scope="module")
def suite():
    return load_suite("edgehome", n_queries=6)


@pytest.fixture(scope="module")
def sequential(suite):
    runner = ExperimentRunner(suite, embedder=CachedEmbedder())
    return runner.run_grid(SCHEMES, MODELS, QUANTS, backend="sequential")


def test_process_grid_bitwise_equals_sequential(suite, sequential):
    runner = ExperimentRunner(suite, embedder=CachedEmbedder())
    process = runner.run_grid(SCHEMES, MODELS, QUANTS,
                              backend="process", max_workers=WORKERS)
    assert list(process) == list(sequential)  # same cells, same order
    for cell, run in sequential.items():
        # EpisodeResult equality covers steps, level, fallback, timing,
        # energy and token floats — bitwise across the process boundary
        assert process[cell].episodes == run.episodes, cell
        assert process[cell].summary == run.summary, cell


def test_process_grid_merges_worker_caches(suite):
    reference = ExperimentRunner(suite, embedder=CachedEmbedder())
    reference.run_grid(SCHEMES, MODELS, QUANTS, backend="sequential")

    runner = ExperimentRunner(suite, embedder=CachedEmbedder())
    runner.run_grid(SCHEMES, MODELS, QUANTS,
                    backend="process", max_workers=WORKERS)
    # the parent cache ends as warm as a sequential run leaves it: every
    # text the workers embedded merged back with identical vectors
    assert set(reference.embedder.export_cache()["entries"]) <= \
        set(runner.embedder.export_cache()["entries"])
    for text, vec in reference.embedder.export_cache()["entries"].items():
        got = runner.embedder.export_cache()["entries"][text]
        np.testing.assert_array_equal(got, vec)


def test_unknown_backend_rejected(suite):
    runner = ExperimentRunner(suite, embedder=CachedEmbedder())
    with pytest.raises(ValueError, match="unknown grid backend 'gpu'.*process"):
        runner.run_grid(SCHEMES, MODELS, QUANTS, backend="gpu")


def test_single_worker_process_backend_falls_back_sequential(suite, sequential):
    """max_workers=1 short-circuits to in-process execution, same results."""
    runner = ExperimentRunner(suite, embedder=CachedEmbedder())
    results = runner.run_grid(SCHEMES, MODELS, QUANTS,
                              backend="process", max_workers=1)
    for cell, run in sequential.items():
        assert results[cell].episodes == run.episodes, cell


# ----------------------------------------------------------------------
# the serialization boundary itself
# ----------------------------------------------------------------------
def test_runner_pickle_round_trip_preserves_episodes(suite):
    runner = ExperimentRunner(suite, embedder=CachedEmbedder())
    agent = runner.make_agent("lis-k3", *MODELS, QUANTS[0])
    want = [agent.run(query) for query in suite.queries]

    clone = pickle.loads(pickle.dumps(runner))
    clone_agent = clone.make_agent("lis-k3", *MODELS, QUANTS[0])
    got = [clone_agent.run(query) for query in suite.queries]
    assert got == want


def test_direction_bank_regenerates_bitwise_on_unpickle(suite):
    embedder = CachedEmbedder()
    embedder.encode(suite.catalog.descriptions())
    bank = embedder.embedder._bank
    clone_bank = pickle.loads(pickle.dumps(bank))
    assert clone_bank.keys == bank.keys
    np.testing.assert_array_equal(clone_bank.matrix, bank.matrix)


def test_agent_pickles_with_executor_lock_recreated(suite):
    runner = ExperimentRunner(suite, embedder=CachedEmbedder())
    agent = pickle.loads(pickle.dumps(
        runner.make_agent("lis-k3", *MODELS, QUANTS[0])))
    assert isinstance(agent.executor, SimulatedToolExecutor)
    # the recreated lock must actually work (reset acquires it)
    agent.executor.reset()
    assert agent.run(suite.queries[0]).steps


def test_export_merge_skips_existing_and_respects_generation(suite):
    source = CachedEmbedder()
    source.encode(["alpha beta", "gamma delta"])
    target = CachedEmbedder()
    target.encode(["alpha beta"])

    snapshot = source.export_cache()
    assert target.merge_cache(snapshot) == 1  # only "gamma delta" is new
    np.testing.assert_array_equal(
        target.encode_one("gamma delta"), source.encode_one("gamma delta"))

    # snapshots from another projection generation are ignored wholesale
    reseeded = CachedEmbedder()
    reseeded.reseed("other-namespace")
    reseeded.encode(["epsilon"])
    assert target.merge_cache(reseeded.export_cache()) == 0
    assert "epsilon" not in target.export_cache()["entries"]


def test_export_cache_exclude_ships_only_the_delta():
    embedder = CachedEmbedder()
    embedder.encode(["inherited one", "inherited two"])
    inherited = embedder.cached_texts()
    embedder.encode(["fresh entry"])
    delta = embedder.export_cache(exclude=inherited)
    assert set(delta["entries"]) == {"fresh entry"}
    # a full export still carries everything
    assert set(embedder.export_cache()["entries"]) == \
        {"inherited one", "inherited two", "fresh entry"}


def test_merge_cache_respects_lru_bound():
    source = CachedEmbedder()
    source.encode([f"text number {i}" for i in range(8)])
    bounded = CachedEmbedder(max_entries=3)
    bounded.merge_cache(source.export_cache())
    assert len(bounded) <= 3
