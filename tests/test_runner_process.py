"""The pickling boundary the serving process backend relies on.

Process-pool workers receive the runner (suite, Search Levels, warm
embedder) and agents as pickles, so these tests pin that a round trip
changes no episode bit and that dropped members (locks, the direction
matrix) are rebuilt on the far side.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.embedding.cache import CachedEmbedder
from repro.evaluation.runner import ExperimentRunner
from repro.suites import load_suite
from repro.tools.executor import SimulatedToolExecutor

MODELS = ["hermes2-pro-8b"]
QUANTS = ["q4_K_M", "q8_0"]


@pytest.fixture(scope="module")
def suite():
    return load_suite("edgehome", n_queries=6)


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
