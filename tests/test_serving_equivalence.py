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

import numpy as np
import pytest

from repro import open_session
from repro.core.episode import EpisodeResult
from repro.embedding import cache as cache_module
from repro.embedding.cache import CachedEmbedder
from repro.evaluation.runner import ExperimentRunner
from repro.serving import Gateway, SessionManager
from repro.serving.http import ASGITestClient, create_app
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
        suite, ServingSpec(max_batch_size=8, max_wait_ms=5.0))


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
    monkeypatch.setattr(cache_module, "SHARED_MAX_ENTRIES", bound)
    monkeypatch.setattr(cache_module, "_SHARED", None)
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
        config = ServingSpec(max_batch_size=8, max_wait_ms=5.0,
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


def test_process_execution_stage_equals_sequential_runner(suite):
    """Worker-process episode execution must not change served results.

    Planning stays batched in the parent; the post-planning step loop of
    each flush runs across a 2-worker process pool
    (``execution_backend="process"``) — and every served episode must
    still equal the sequential :class:`ExperimentRunner` path bitwise.
    """
    import os

    workers = int(os.environ.get("REPRO_PROCESS_WORKERS", "2"))
    reference_runner = ExperimentRunner(suite, embedder=CachedEmbedder())
    reference = {
        episode.qid: episode
        for episode in reference_runner.run("lis-k3", MODEL, QUANT).episodes
    }

    async def serve_all():
        sessions = SessionManager()
        sessions.register("t", suite)
        config = ServingSpec(max_batch_size=8, max_wait_ms=5.0,
                             execution_backend="process",
                             execution_workers=workers)
        async with Gateway(sessions, config=config) as gateway:
            return await asyncio.gather(*(
                gateway.submit("t", query) for query in suite.queries
            ))

    responses = asyncio.run(serve_all())
    assert len(responses) == len(reference)
    assert [r for r in responses if r.batch_size > 1], \
        "no request was actually micro-batched"
    for response in responses:
        assert response.episode == reference[response.episode.qid]


def test_late_registered_tenant_served_inline_with_process_stage():
    """Tenants registered after the pool was primed still serve correctly."""
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
        config = ServingSpec(max_batch_size=4, max_wait_ms=5.0,
                             execution_backend="process",
                             execution_workers=2)
        async with Gateway(sessions, config=config) as gateway:
            assert gateway._process_stage.covers("early")
            sessions.register("late", late)  # workers never saw this one
            assert not gateway._process_stage.covers("late")
            return await asyncio.gather(*(
                gateway.submit("late", query) for query in late.queries
            ))

    for response in asyncio.run(serve()):
        assert response.episode == reference[response.episode.qid]


def test_removed_then_reregistered_tenant_leaves_the_stale_pool():
    """DELETE + PUT a tenant name with another suite under the process
    backend: the workers hold the *old* suite's runner under that name,
    so the stage must stop covering it — served == sequential bitwise."""
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
        config = ServingSpec(max_batch_size=4, max_wait_ms=5.0,
                             execution_backend="process",
                             execution_workers=2)
        async with Gateway(sessions, config=config) as gateway:
            assert gateway._process_stage.covers("t")
            gateway.remove_tenant("t")
            sessions.register("t", new)
            assert not gateway._process_stage.covers("t")
            return await asyncio.gather(*(
                gateway.submit("t", query) for query in new.queries
            ))

    responses = asyncio.run(serve())
    assert len(responses) == len(reference) == 4
    for response in responses:
        assert response.episode == reference[response.episode.qid]


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
        [target], ServingSpec(max_batch_size=1, max_wait_ms=0.0)))
    crowded = asyncio.run(serve(
        suite.queries[:10], ServingSpec(max_batch_size=10, max_wait_ms=20.0)))
    assert alone[target.qid] == crowded[target.qid]
