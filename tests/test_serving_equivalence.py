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
import json
import sys
import threading

import numpy as np
import pytest

from repro import open_session
from asgi_client import ASGITestClient
from repro.core import agent_base as agent_base_module
from repro.core import pipeline as pipeline_module
from repro.core.episode import EpisodeResult
from repro.embedding import cache as cache_module
from repro.embedding.cache import CachedEmbedder
from repro.engines.testing import (
    MockOpenAIApp,
    MockOpenAIServer,
    content_message,
    tool_call_message,
)
from repro.evaluation.runner import ExperimentRunner
from repro.serving import Gateway, SessionManager
from repro.serving.http import create_app
from repro.specs import EngineSpec, ServingSpec
from repro.suites import load_suite
from repro.utils.rng import _BULK_MIN, prefetched

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
        single = controller.decide_batch([block])[0]
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
                sizes.append(session.embedder.cache_info()["size"])
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

    def held(*args):
        entered.set()
        release.wait(timeout=60)
        return run(*args)

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


# ----------------------------------------------------------------------
# bulk-seeded streams (repro.utils.rng.prefetched) change no bits
# ----------------------------------------------------------------------
@pytest.fixture
def prefetches(monkeypatch):
    """Every ``prefetched`` call the agents make, as its list of names."""
    calls = []

    def recording(names):
        names = list(names)
        calls.append(names)
        return prefetched(names)

    monkeypatch.setattr(agent_base_module, "prefetched", recording)
    monkeypatch.setattr(pipeline_module, "prefetched", recording)
    return calls


def _sequential(suite, scheme, queries, **kwargs):
    agent = ExperimentRunner(suite, embedder=CachedEmbedder()).make_agent(
        scheme, MODEL, QUANT, **kwargs)
    return [agent.run(query) for query in queries]


def test_bulk_seeded_micro_batch_equals_sequential_run(prefetches):
    """One micro-batch above the bulk-seeding threshold, holding one qid
    twice under two schemes (ToolLLM accounts several pre-calls on one
    stream), serves what ``agent.run`` returns."""
    suite = load_suite("geoengine", n_queries=24)
    queries = suite.queries[:20] + suite.queries[:1]
    schemes = {"lis-k3": {}, "toolllm": {"enforce_memory": False}}

    async def serve():
        sessions = SessionManager(embedder=CachedEmbedder())
        sessions.register("t", suite)
        config = ServingSpec(default_scheme="lis-k3", default_model=MODEL,
                             default_quant=QUANT, max_batch_size=64)
        async with Gateway(sessions, config=config) as gateway:
            entered, release = _hold_batch_worker(gateway, "t")
            first = asyncio.ensure_future(
                gateway.submit("t", suite.queries[-1]))
            await _await_event(entered)
            queued = [asyncio.ensure_future(gateway.submit("t", query, scheme))
                      for scheme in schemes for query in queries]
            while gateway.scheduler.pending < len(queued):
                await asyncio.sleep(0.001)
            release.set()
            await first
            return await asyncio.gather(*queued)

    responses = asyncio.run(serve())
    assert {response.batch_size for response in responses} == {len(responses)}
    assert sum(len(set(names)) >= _BULK_MIN for names in prefetches) >= 3
    for scheme, kwargs in schemes.items():
        served = [response.episode for response in responses
                  if response.episode.scheme == _scheme_label(scheme)]
        assert served == _sequential(suite, scheme, queries, **kwargs)


def _scheme_label(scheme: str) -> str:
    return "lis" if scheme.startswith("lis") else scheme


def test_concurrent_run_planned_many_on_one_agent_equals_sequential():
    """Four threads (more than the cores) executing bulk-seeded batches on
    one agent at once each get the sequential episodes: the prefetch table
    is per thread."""
    suite = load_suite("geoengine", n_queries=48)
    agent = ExperimentRunner(suite, embedder=CachedEmbedder()).make_agent(
        "lis-k3", MODEL, QUANT)
    parts = [suite.queries[start:start + 12] for start in range(0, 48, 12)]
    plans = [agent.plan_batch(part) for part in parts]
    start = threading.Barrier(len(parts))
    served = [None] * len(parts)

    def execute(index):
        start.wait(timeout=60)
        served[index] = [agent.run_planned_many(parts[index], plans[index])
                         for _ in range(3)]

    threads = [threading.Thread(target=execute, args=(index,))
               for index in range(len(parts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for part, runs in zip(parts, served):
        expected = _sequential(suite, "lis-k3", part)
        assert all(run == expected for run in runs)


def test_engine_llm_streams_are_not_prefetched(prefetches):
    """With a wire engine (``engines/testing.py``'s mock server) only the
    jitter streams are prefetched — the engine draws no ``llm`` stream —
    and the batch equals ``agent.run``."""

    def reply_fn(payload):
        prompt = payload["messages"][-1]["content"]
        tools = payload.get("tools")
        if not tools:
            return content_message(json.dumps([prompt[-80:]]))
        tool = tools[len(prompt) % len(tools)]["function"]
        return tool_call_message(tool["name"], {})

    suite = load_suite("edgehome", n_queries=16)
    with MockOpenAIServer(MockOpenAIApp(reply_fn=reply_fn)) as server:
        engine = EngineSpec(name="openai_http", base_url=server.base_url)
        agent = ExperimentRunner(suite, embedder=CachedEmbedder(),
                                 engine=engine).make_agent(
            "lis-k3", MODEL, QUANT)
        batched = agent.run_planned_many(suite.queries,
                                         agent.plan_batch(suite.queries))
        sequential = [agent.run(query) for query in suite.queries]

    assert batched == sequential
    names = [name for call in prefetches for name in call]
    assert len(names) >= _BULK_MIN
    assert {name[1] for name in names} == {"hw-jitter"}
