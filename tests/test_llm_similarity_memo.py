"""The simulated LLM's per-(query, presented set) similarity memo.

``execute_step`` reads gold similarity, distractor mean and distractor
sampling weights off one memoized query-vs-descriptions vector.  These
tests pin the memo's contracts: the vector always belongs to the set
actually presented (retries, Level-3 fallback, catalog variants), it
is bounded, and concurrent episodes on one agent equal sequential ones.
Episode bits against the parent commit live in
``tests/test_golden_episodes.py``.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import AgentSpec, open_session
from repro.embedding.cache import CachedEmbedder
from repro.llm import SimulatedLLM
from repro.llm import engine as engine_module


def _expected(llm: SimulatedLLM, query_text: str, tools) -> np.ndarray:
    vectors = llm.embedder.encode(
        [query_text] + [tool.description for tool in tools])
    return vectors[1:] @ vectors[0]


def _record_similarity_calls(monkeypatch):
    """Every ``_similarities`` call as ``(query_text, names, result)``."""
    calls = []
    original = SimulatedLLM._similarities

    def recording(self, query_text, included):
        sims = original(self, query_text, included)
        calls.append((query_text, tuple(tool.name for tool in included), sims))
        return sims

    monkeypatch.setattr(SimulatedLLM, "_similarities", recording)
    return calls


@pytest.fixture(scope="module")
def weak_geo():
    """The golden fixture's weak-deployment cell: it takes fallbacks."""
    session = open_session("geoengine", n_queries=400, seed=1507,
                           embedder=CachedEmbedder())
    return session, session.build_agent(
        AgentSpec("lis-k3", "qwen2-1.5b", "q4_0"))


def test_retry_reuses_the_episodes_table(monkeypatch, weak_geo):
    session, agent = weak_geo
    calls = _record_similarity_calls(monkeypatch)
    for query in session.suite.queries:
        del calls[:]
        episode = agent.run(query)
        n_sets = len({names for _, names, _ in calls})
        if (not episode.fallback_used and len(calls) > n_sets
                and any(step.retried for step in episode.steps)):
            break
    else:
        pytest.fail("no retried episode in the pool")
    # more look-ups than distinct presented sets: the rest were memo hits
    # that handed back the very same (read-only) vector
    by_set = {}
    for _, names, sims in calls:
        assert by_set.setdefault(names, sims) is sims
        assert not sims.flags.writeable
    for text, names, sims in calls:
        tools = [session.suite.catalog.get(name) for name in names]
        np.testing.assert_array_equal(sims, _expected(agent.llm, text, tools))


def test_fallback_switches_to_the_full_sets_table(monkeypatch, weak_geo):
    session, agent = weak_geo
    query = next(q for q in session.suite.queries if q.qid == "geo-eval-0145")
    calls = _record_similarity_calls(monkeypatch)
    episode = agent.run(query)
    assert episode.fallback_used
    presented = [step.n_tools_presented for step in episode.steps]
    assert len(set(presented)) == 2       # the set changed mid-episode
    sizes = {len(names) for _, names, _ in calls}
    assert sizes == set(presented)
    for text, names, sims in calls:
        assert sims.shape == (len(names),)
        tools = [session.suite.catalog.get(name) for name in names]
        np.testing.assert_array_equal(sims, _expected(agent.llm, text, tools))


def test_catalog_variants_never_share_an_entry():
    session = open_session("edgehome", n_queries=4, embedder=CachedEmbedder())
    llm = SimulatedLLM.from_registry("hermes2-pro-8b", "q4_K_M",
                                     embedder=CachedEmbedder())
    tools = list(session.suite.catalog)[:6]
    text = session.suite.queries[0].text
    tables, texts = {}, set()
    for variant in ("full", "compressed", "minimal"):
        presented = [tool.at_variant(variant) for tool in tools]
        assert [tool.name for tool in presented] == [tool.name for tool in tools]
        texts.add(tuple(tool.description for tool in presented))
        tables[variant] = llm._similarities(text, presented)
        np.testing.assert_array_equal(tables[variant],
                                      _expected(llm, text, presented))
    # one entry per distinct description corpus, whatever the names
    assert len(llm._similarity_memo) == len(texts) >= 2
    assert not np.array_equal(tables["full"], tables["minimal"])


def test_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(engine_module, "_SIMILARITY_MEMO_ENTRIES", 4)
    session = open_session("edgehome", n_queries=12,
                           embedder=CachedEmbedder())
    llm = SimulatedLLM.from_registry("hermes2-pro-8b", "q4_K_M",
                                     embedder=CachedEmbedder())
    tools = list(session.suite.catalog)[:5]
    for query in session.suite.queries:
        llm._similarities(query.text, tools)
        assert len(llm._similarity_memo) <= 4
    # oldest out: the last four queries are the ones still held
    held = {key[0] for key in llm._similarity_memo}
    assert held == {query.text for query in session.suite.queries[-4:]}


def test_eight_threads_on_one_agent_equal_sequential(monkeypatch):
    # a cap below the working set, so stores, evictions and re-computes
    # of the same keys all interleave
    monkeypatch.setattr(engine_module, "_SIMILARITY_MEMO_ENTRIES", 8)
    session = open_session("geoengine", n_queries=24,
                           embedder=CachedEmbedder())
    queries = session.suite.queries
    reference = session.build_agent(
        AgentSpec("lis-k3", "hermes2-pro-8b", "q4_K_M"))
    plans = reference.plan_batch(queries)
    expected = [reference.run_planned(query, plan).to_dict()
                for query, plan in zip(queries, plans)]

    agent = session.build_agent(AgentSpec("lis-k3", "hermes2-pro-8b", "q4_K_M"))
    n_threads = 8
    results: list[list | None] = [None] * n_threads
    barrier = threading.Barrier(n_threads)

    def worker(slot: int) -> None:
        barrier.wait(timeout=30)
        # every thread runs every episode, each starting somewhere else,
        # so the same memo keys are looked up and stored concurrently
        order = queries[slot:] + queries[:slot]
        done = {query.qid: agent.run_planned(query, plans[queries.index(query)])
                for query in order}
        results[slot] = [done[query.qid].to_dict() for query in queries]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result == expected for result in results)
    assert len(agent.llm._similarity_memo) <= 8
