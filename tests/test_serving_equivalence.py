"""Served episodes must equal the sequential evaluation path, bitwise.

This is the serving layer's core contract: micro-batching is a pure
performance transform.  Three layers are pinned down —

* the batch-invariant scoring kernels (every query's scores are the same
  no matter which batch it rides in),
* ``plan_batch`` against per-query ``plan``,
* full episodes served through the async gateway against the offline
  :class:`~repro.evaluation.runner.ExperimentRunner`.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro import open_session
from asgi_client import ASGITestClient
from repro.core.episode import EpisodeResult
from repro.embedding import cache as cache_module
from repro.embedding.cache import CachedEmbedder
from repro.evaluation.runner import ExperimentRunner
from repro.serving import Gateway, SessionManager
from repro.serving.http import create_app
from repro.specs import ServingSpec
from repro.suites import load_suite

MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"


@pytest.fixture(scope="module", params=["edgehome", "bfcl"])
def suite(request):
    return load_suite(request.param, n_queries=24)


def test_plan_batch_matches_sequential_plan(suite):
    runner = ExperimentRunner(suite, embedder=CachedEmbedder())
    agent = runner.make_agent("lis-k3", MODEL, QUANT)
    queries = suite.queries[:16]

    batched = agent.plan_batch(queries)
    for query, batched_plan in zip(queries, batched):
        single = agent.plan(query)
        assert [tool.name for tool in batched_plan.tools] == \
            [tool.name for tool in single.tools]
        assert batched_plan.level == single.level
        assert batched_plan.context_window == single.context_window
        assert batched_plan.overhead_s == single.overhead_s
        assert batched_plan.pre_usages == single.pre_usages


def test_decide_batch_matches_decide(suite):
    runner = ExperimentRunner(suite, embedder=CachedEmbedder())
    agent = runner.make_agent("lis-k3", MODEL, QUANT)
    controller = agent.controller
    rng = np.random.default_rng(7)
    blocks = [
        agent.embedder.encode([query.text])
        for query in suite.queries[:6]
    ]
    blocks.append(np.zeros((0, agent.embedder.dim)))  # empty block -> Level 3
    blocks.append(rng.normal(size=(3, agent.embedder.dim)))

    batched = controller.decide_batch(blocks)
    for block, decision in zip(blocks, batched):
        single = controller.decide(block)
        assert decision == single  # frozen dataclass: scores compare bitwise


def _assert_served_equals_sequential(suite, config: ServingSpec) -> None:
    reference_runner = ExperimentRunner(suite, embedder=CachedEmbedder())
    reference = {
        episode.qid: episode
        for episode in reference_runner.run("lis-k3", MODEL, QUANT).episodes
    }

    async def serve_all():
        sessions = SessionManager()
        sessions.register("t", suite)
        async with Gateway(sessions, config=config) as gateway:
            responses = await asyncio.gather(*(
                gateway.submit("t", query) for query in suite.queries
            ))
        return responses

    responses = asyncio.run(serve_all())
    assert len(responses) == len(reference)
    micro_batched = [r for r in responses if r.batch_size > 1]
    assert micro_batched, "no request was actually micro-batched"
    for response in responses:
        # EpisodeResult equality covers steps, level, fallback, timing,
        # energy and token floats — bitwise, thanks to batch-invariant
        # kernels and per-query RNG streams
        assert response.episode == reference[response.episode.qid]


def test_served_episodes_equal_sequential_runner(suite):
    """The acceptance criterion: gateway output == ExperimentRunner output."""
    _assert_served_equals_sequential(
        suite, ServingSpec(max_batch_size=8))


def test_served_episodes_equal_sequential_runner_at_default_spec(suite):
    """Same contract for what ships: the work-conserving default (no
    coalescing window, batches cut from the backlog)."""
    _assert_served_equals_sequential(suite, ServingSpec())


@pytest.mark.parametrize("scheme", ["default", "gorilla", "toolllm", "lis-k3"])
def test_gateway_starts_and_serves_under_any_default_scheme(scheme):
    """Warming goes through the session's embedder, so a gateway whose
    ``default_scheme`` is the paper's baseline (an agent with no
    embedder of its own) starts — and serves what ``agent.run`` returns."""
    suite = load_suite("edgehome", n_queries=4)
    # ToolLLM's "DFSDT does not fit the board" refusal lives in run();
    # the served path is plan + run_planned, so the reference lifts it
    kwargs = {"enforce_memory": False} if scheme == "toolllm" else {}
    reference = ExperimentRunner(suite, embedder=CachedEmbedder()).make_agent(
        scheme, MODEL, QUANT, **kwargs)

    async def serve_one():
        sessions = SessionManager()
        sessions.register("t", suite)
        config = ServingSpec(default_scheme=scheme, default_model=MODEL,
                             default_quant=QUANT)
        async with Gateway(sessions, config=config) as gateway:
            return await gateway.submit("t", suite.queries[0])

    assert asyncio.run(serve_one()).episode == reference.run(suite.queries[0])


def test_serve_keeps_the_shared_embedder_bounded(monkeypatch):
    """``Session.serve()`` runs on the process-wide embedder for the
    life of the process, and every request brings a new query text and
    new paraphrased recommendations: the cache must stay under its LRU
    bound.  Evicted texts (tool descriptions included, at this size)
    re-encode to the same bits, so the episodes do not move."""
    bound = 48
    monkeypatch.setattr(cache_module, "_SHARED",
                        CachedEmbedder(max_entries=bound))
    suite = load_suite("edgehome", n_queries=96)
    assert len({query.text for query in suite.queries}) > bound
    reference = {
        episode.qid: episode
        for episode in ExperimentRunner(suite, embedder=CachedEmbedder())
        .run("lis-k3", MODEL, QUANT).episodes
    }
    session = open_session(suite=suite)
    assert session.embedder is cache_module.shared_embedder()
    sizes = []

    async def serve_all():
        async with session.serve(ServingSpec(max_batch_size=8)) as gateway:
            responses = []
            for start in range(0, len(suite.queries), 16):
                responses += await asyncio.gather(*(
                    gateway.submit(suite.name, query)
                    for query in suite.queries[start:start + 16]))
                sizes.append(len(session.embedder))
        return responses

    responses = asyncio.run(serve_all())
    assert max(sizes) <= bound
    assert session.embedder.cache_info()["evictions"] > len(suite.queries)
    assert len(responses) == len(reference)
    for response in responses:
        assert response.episode == reference[response.episode.qid]


def test_http_call_equals_sequential_runner(suite):
    """The HTTP front door adds a JSON round-trip on top of the gateway;
    episodes decoded from ``POST /v1/call`` responses must still equal
    the sequential runner **bitwise** — Python's shortest-repr float
    JSON encoding decodes to identical IEEE-754 values, so serialization
    is not allowed to cost any precision.
    """
    reference_runner = ExperimentRunner(suite, embedder=CachedEmbedder())
    reference = {
        episode.qid: episode
        for episode in reference_runner.run("lis-k3", MODEL, QUANT).episodes
    }

    async def serve_all():
        sessions = SessionManager(embedder=CachedEmbedder())
        sessions.register("t", suite)
        config = ServingSpec(max_batch_size=8,
                             default_scheme="lis-k3", default_model=MODEL,
                             default_quant=QUANT)
        app = create_app(Gateway(sessions, config=config))
        client = ASGITestClient(app)
        async with app:
            return await asyncio.gather(*(
                client.post("/v1/call", {"tenant": "t", "qid": query.qid})
                for query in suite.queries
            ))

    responses = asyncio.run(serve_all())
    assert len(responses) == len(reference)
    payloads = [response.json() for response in responses]
    assert [p for p in payloads if p["batch_size"] > 1], \
        "no request was actually micro-batched"
    for response, payload in zip(responses, payloads):
        assert response.status == 200
        episode = EpisodeResult.from_dict(payload["episode"])
        assert episode == reference[episode.qid]
        # the JSON round-trip also preserves the derived metrics
        assert payload["episode"]["success"] == episode.success
        assert response.trace_id == payload["trace_id"] != ""


def test_late_registered_tenant_serves_bitwise():
    """A tenant registered after ``start`` — never warmed — still serves
    exactly what the sequential runner returns."""
    early = load_suite("edgehome", n_queries=6)
    late = load_suite("bfcl", n_queries=6)
    reference = {
        episode.qid: episode
        for episode in ExperimentRunner(late, embedder=CachedEmbedder())
        .run("lis-k3", MODEL, QUANT).episodes
    }

    async def serve():
        sessions = SessionManager()
        sessions.register("early", early)
        config = ServingSpec(max_batch_size=4)
        async with Gateway(sessions, config=config) as gateway:
            sessions.register("late", late)
            return await asyncio.gather(*(
                gateway.submit("late", query) for query in late.queries
            ))

    for response in asyncio.run(serve()):
        assert response.episode == reference[response.episode.qid]


def test_removed_then_reregistered_tenant_serves_its_new_suite():
    """DELETE + PUT a tenant name with another suite after it served
    traffic (its agents and cached plans live under that name): every
    episode of the successor equals the sequential runner over the new
    suite, bitwise."""
    old = load_suite("edgehome", n_queries=4)
    new = load_suite("geoengine", n_queries=4)
    reference = {
        episode.qid: episode
        for episode in ExperimentRunner(new, embedder=CachedEmbedder())
        .run("lis-k3", MODEL, QUANT).episodes
    }

    async def serve():
        sessions = SessionManager()
        sessions.register("t", old)
        config = ServingSpec(max_batch_size=4,
                             plan_cache_size=64)
        async with Gateway(sessions, config=config) as gateway:
            await asyncio.gather(*(
                gateway.submit("t", query) for query in old.queries))
            sessions.deregister("t")
            sessions.register("t", new)
            return await asyncio.gather(*(
                gateway.submit("t", query) for query in new.queries
            ))

    responses = asyncio.run(serve())
    assert len(responses) == len(reference) == 4
    for response in responses:
        assert response.episode == reference[response.episode.qid]


def _hold_batch_worker(gateway, tenant):
    """Park the batch worker inside the tenant's default agent's
    ``run_planned_many``; returns ``(entered, release)`` events."""
    config = gateway.config
    agent = gateway.sessions.get(tenant).agent_for(
        config.default_scheme, config.default_model, config.default_quant)
    entered, release = threading.Event(), threading.Event()
    run = agent.run_planned_many

    def held(queries, plans):
        entered.set()
        release.wait(timeout=60)
        return run(queries, plans)

    agent.run_planned_many = held
    return entered, release


def _serve_geoengine_held(scenario):
    """Serve ``t`` = geoengine over HTTP, the batch worker held inside
    its first batch until ``release``; ``scenario(client, gateway,
    entered, release, queries)`` runs the interleaving.  Returns
    (scenario result, geoengine's sequential episodes by qid)."""
    old = load_suite("geoengine", n_queries=4)
    reference = {
        episode.qid: episode
        for episode in ExperimentRunner(old, embedder=CachedEmbedder())
        .run("lis-k3", MODEL, QUANT).episodes
    }

    async def serve():
        sessions = SessionManager(embedder=CachedEmbedder())
        sessions.register("t", old)
        gateway = Gateway(sessions, config=ServingSpec(
            default_scheme="lis-k3", default_model=MODEL, default_quant=QUANT))
        app = create_app(gateway)
        async with app:
            entered, release = _hold_batch_worker(gateway, "t")
            try:
                return await scenario(ASGITestClient(app), gateway, entered,
                                      release, old.queries)
            finally:
                release.set()

    return asyncio.run(serve()), reference


async def _await_event(event: threading.Event) -> None:
    assert await asyncio.get_running_loop().run_in_executor(
        None, event.wait, 60)


def test_in_flight_batch_accounts_to_the_removed_tenant():
    """DELETE while a batch of ``t`` executes, then PUT ``t`` again: the
    batch finishes on the removed session and is accounted there, so
    the successor starts with an empty energy window."""

    async def scenario(client, gateway, entered, release, queries):
        in_flight = asyncio.ensure_future(client.post(
            "/v1/call", {"tenant": "t", "qid": queries[0].qid}))
        await _await_event(entered)
        await client.delete("/v1/tenants/t")
        release.set()
        response = await in_flight
        await client.put("/v1/tenants/t", {"suite": "browser", "n_queries": 4})
        return response, gateway.budget_status("t")

    (response, status), reference = _serve_geoengine_held(scenario)
    assert response.status == 200
    episode = EpisodeResult.from_dict(response.json()["episode"])
    assert episode == reference[episode.qid]
    assert set(status.values()) == {0}, status


def test_queued_requests_finish_on_the_removed_tenant():
    """Three requests queued behind a held batch when ``t`` is deleted
    and re-created with another suite: each is served by the session it
    was submitted to — bitwise the sequential run over the removed
    suite — and none of them reaches the successor's energy window."""

    async def scenario(client, gateway, entered, release, queries):
        first = asyncio.ensure_future(client.post(
            "/v1/call", {"tenant": "t", "qid": queries[0].qid}))
        await _await_event(entered)
        queued = [asyncio.ensure_future(client.post(
            "/v1/call", {"tenant": "t", "qid": query.qid}))
            for query in queries[1:4]]
        while gateway.scheduler.pending < len(queued):
            await asyncio.sleep(0.001)
        await client.delete("/v1/tenants/t")
        await client.put("/v1/tenants/t", {"suite": "browser", "n_queries": 4})
        release.set()
        responses = await asyncio.gather(first, *queued)
        return responses, gateway.budget_status("t")

    (responses, status), reference = _serve_geoengine_held(scenario)
    assert [response.status for response in responses] == [200] * 4
    for response in responses:
        episode = EpisodeResult.from_dict(response.json()["episode"])
        assert episode == reference[episode.qid]
    assert status["window_requests"] == 0


def test_served_results_independent_of_batch_composition(suite):
    """The same query must serve identically alone and inside a batch."""

    async def serve(queries, config):
        sessions = SessionManager()
        sessions.register("t", suite)
        async with Gateway(sessions, config=config) as gateway:
            responses = await asyncio.gather(*(
                gateway.submit("t", query) for query in queries
            ))
        return {r.episode.qid: r.episode for r in responses}

    target = suite.queries[0]
    alone = asyncio.run(serve(
        [target], ServingSpec(max_batch_size=1)))
    crowded = asyncio.run(serve(
        suite.queries[:10], ServingSpec(max_batch_size=10)))
    assert alone[target.qid] == crowded[target.qid]
