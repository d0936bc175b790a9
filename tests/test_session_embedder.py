"""One embedder per session.

An agent built from a session opened with ``embedder=E`` plans, builds
its Search Levels and runs its simulated LLM's similarity vectors on
``E`` alone, with the engine left implicit or named ``simulated``, and
behind the serving gateway.  The process-wide ``shared_embedder()`` is
the default only when no embedder is passed, so running such a session
leaves it exactly as it was.  Every embedder is an LRU under one default
bound, and a served session whose embedder evicts on every batch still
serves what the sequential runner returns.
"""

import asyncio

import pytest

from repro import AgentSpec, ServingSpec, SuiteSpec, TenantSpec, open_session
from repro.core.pipeline import LessIsMoreAgent
from repro.embedding.cache import CachedEmbedder, shared_embedder
from repro.evaluation.runner import ExperimentRunner
from repro.serving.gateway import Gateway
from repro.serving.session import SessionManager
from repro.specs import EngineSpec
from repro.suites import load_suite

SCHEMES = ("default", "gorilla", "toolllm", "lis-k3")
MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"


def _shared_state():
    shared = shared_embedder()
    return shared.cache_info(), shared.embedder.direction_count


@pytest.mark.parametrize("engine", [None, EngineSpec("simulated")],
                         ids=["engine-none", "engine-simulated"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_session_agents_encode_only_on_the_session_embedder(scheme, engine):
    before = _shared_state()
    session = open_session("edgehome", n_queries=6, seed=29,
                           embedder=CachedEmbedder())
    agent = session.build_agent(AgentSpec(scheme, MODEL, QUANT, engine=engine))
    assert agent.llm.embedder is session.embedder
    assert getattr(agent, "embedder", session.embedder) is session.embedder
    for query in session.suite.queries:
        agent.run_planned(query, agent.plan(query))
    assert _shared_state() == before


def test_served_tenants_encode_only_on_the_session_embedder():
    before = _shared_state()
    embedder = CachedEmbedder()
    session = open_session(ServingSpec(
        tenants=(TenantSpec("home", SuiteSpec("edgehome", n_queries=4, seed=29)),),
        max_batch_size=4), embedder=embedder)

    async def scenario():
        async with session.serve() as gateway:
            tenant = gateway.sessions.get("home")
            for scheme in SCHEMES:
                await asyncio.gather(*(
                    gateway.submit("home", query, scheme, MODEL, QUANT)
                    for query in tenant.suite.queries))
            return [tenant.agent_for(scheme, MODEL, QUANT) for scheme in SCHEMES]

    agents = asyncio.run(scenario())
    assert all(agent.llm.embedder is embedder for agent in agents)
    assert _shared_state() == before


def test_build_with_an_embedder_uses_it_throughout():
    before = _shared_state()
    embedder = CachedEmbedder()
    suite = load_suite("edgehome", n_queries=4, seed=29)
    agent = LessIsMoreAgent.build(MODEL, QUANT, suite, embedder=embedder)
    assert agent.embedder is agent.llm.embedder is embedder
    for query in suite.queries:
        agent.run(query)
    assert _shared_state() == before


def test_every_embedder_shares_one_bound():
    """The default bound is the same wherever an embedder comes from,
    and there is no unbounded cache to ask for."""
    assert (CachedEmbedder().max_entries == shared_embedder().max_entries
            == SessionManager().embedder.max_entries == 1024)
    with pytest.raises(ValueError, match="max_entries"):
        CachedEmbedder(max_entries=None)


def test_served_episodes_equal_sequential_while_the_cache_evicts(monkeypatch):
    """48 distinct queries through a 16-text cache: every batch evicts
    (tool descriptions included), the cache never holds more than its
    bound after a batch, and evicted texts re-encode to the same bits,
    so every served episode is the sequential runner's."""
    bound = 16
    suite = load_suite("edgehome", n_queries=48, seed=29)
    assert len({query.text for query in suite.queries}) > bound
    reference = {
        episode.qid: episode.to_dict()
        for episode in ExperimentRunner(suite, embedder=CachedEmbedder())
        .run("lis-k3", MODEL, QUANT).episodes
    }
    embedder = CachedEmbedder(max_entries=bound)
    session = open_session(suite=suite, embedder=embedder)
    sizes = []
    process_batch = Gateway._process_batch

    def recording(self, batch):
        try:
            return process_batch(self, batch)
        finally:
            sizes.append((len(embedder), embedder.cache_info()["evictions"]))

    monkeypatch.setattr(Gateway, "_process_batch", recording)

    async def serve_all():
        async with session.serve(ServingSpec(max_batch_size=8)) as gateway:
            return await asyncio.gather(*(
                gateway.submit(suite.name, query) for query in suite.queries))

    responses = asyncio.run(serve_all())
    assert len(sizes) >= len(suite.queries) // 8
    assert all(size <= bound for size, _ in sizes), sizes
    evictions = [0] + [count for _, count in sizes]
    assert all(after > before for before, after in zip(evictions, evictions[1:]))
    assert {response.episode.qid: response.episode.to_dict()
            for response in responses} == reference
