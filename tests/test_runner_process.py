"""The pickling boundary the serving process backend relies on.

Process-pool workers receive the runner (suite, Search Levels, warm
embedder) and agents as pickles, so these tests pin that a round trip
changes no episode bit and that dropped members (locks, the direction
matrix) are rebuilt on the far side.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.embedding import DirectionBank, SentenceEmbedder
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


def test_pickling_a_live_embedder_ships_a_consistent_snapshot(monkeypatch):
    """A pool respawn pickles the live runners while the batch worker
    encodes through them.  Hits reorder the LRU, misses intern bank rows
    and memoize words, so a snapshot copied outside the locks can raise
    mid-pickle or ship memos naming rows its bank lacks (and a bank
    whose keys outrun its size).  Every copy taken under that traffic
    must unpickle, serve its cached vectors bitwise, and encode both old
    and novel texts like the original."""
    # directions are pure functions of their key: memoizing them keeps
    # the (re)generation cost of 200 unpickled banks out of the test
    generate, directions = DirectionBank._generate, {}

    def memo_generate(bank, key):
        if key not in directions:
            directions[key] = generate(bank, key)
        return directions[key]

    monkeypatch.setattr(DirectionBank, "_generate", memo_generate)
    embedder = CachedEmbedder(SentenceEmbedder(dim=32), max_entries=64)
    probes = ["turn on the kitchen light", "weather in paris tomorrow"]
    embedder.encode(probes)

    def text(i):
        return " ".join(f"gizmo{i}x{j}" for j in range(6))

    encoded = [0]
    stop = threading.Event()

    def encode_loop():
        while not stop.is_set() and encoded[0] < 400:
            # one novel text (new rows, new memos) and one LRU hit
            embedder.encode([text(encoded[0]), probes[encoded[0] % 2]])
            encoded[0] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside __getstate__
    thread = threading.Thread(target=encode_loop)
    thread.start()
    payloads = []
    try:
        for _ in range(200):
            progress = encoded[0]
            payloads.append((progress, pickle.dumps(embedder)))
    finally:
        stop.set()
        thread.join()
        sys.setswitchinterval(interval)
    reference = embedder.embedder
    for progress, payload in payloads:
        copy = pickle.loads(payload)
        cached = list(copy._cache)
        fresh = reference.encode(cached)
        np.testing.assert_array_equal(
            np.stack([copy._cache[text] for text in cached]), fresh)
        np.testing.assert_array_equal(copy.embedder.encode(cached), fresh)
        # texts around the snapshot: memoized ones and novel ones (the
        # copy interns those in its own row order, hence float-order
        # agreement rather than bitwise)
        window = [text(i) for i in range(max(0, progress - 8), progress + 8)]
        np.testing.assert_allclose(copy.encode(window),
                                   reference.encode(window),
                                   rtol=0, atol=1e-12)
