"""Gateway-level tests: routing, admission, telemetry, multi-tenancy."""

from __future__ import annotations

import asyncio

import pytest

from repro.serving import (
    Gateway,
    SessionManager,
    UnknownTenantError,
    make_workload,
    percentile,
    run_closed_loop,
)
from repro.specs import ServingSpec
from repro.suites import load_suite

SMALL = dict(n_queries=12)


@pytest.fixture(scope="module")
def edgehome_suite():
    return load_suite("edgehome", **SMALL)


@pytest.fixture(scope="module")
def bfcl_suite():
    return load_suite("bfcl", **SMALL)


def make_sessions(**suites):
    sessions = SessionManager()
    for tenant, suite in suites.items():
        sessions.register(tenant, suite)
    return sessions


def test_submit_serves_one_episode(edgehome_suite):
    async def scenario():
        sessions = make_sessions(home=edgehome_suite)
        async with Gateway(sessions) as gateway:
            query = edgehome_suite.queries[0]
            response = await gateway.submit("home", query)
            return response

    response = asyncio.run(scenario())
    assert response.tenant == "home"
    assert response.episode.qid == edgehome_suite.queries[0].qid
    assert response.episode.scheme == "lis"
    assert response.batch_size == 1
    assert response.latency_s > 0.0


def test_submit_resolves_qid_strings(edgehome_suite):
    async def scenario():
        sessions = make_sessions(home=edgehome_suite)
        async with Gateway(sessions) as gateway:
            qid = edgehome_suite.queries[1].qid
            response = await gateway.submit("home", qid)
            return response

    response = asyncio.run(scenario())
    assert response.episode.qid == edgehome_suite.queries[1].qid


def test_unknown_tenant_and_unknown_qid(edgehome_suite):
    async def scenario():
        sessions = make_sessions(home=edgehome_suite)
        async with Gateway(sessions) as gateway:
            with pytest.raises(UnknownTenantError):
                await gateway.submit("nope", edgehome_suite.queries[0])
            with pytest.raises(KeyError):
                await gateway.submit("home", "no-such-qid")

    asyncio.run(scenario())


def test_concurrent_requests_get_micro_batched(edgehome_suite):
    async def scenario():
        sessions = make_sessions(home=edgehome_suite)
        config = ServingSpec(max_batch_size=8)
        async with Gateway(sessions, config=config) as gateway:
            responses = await asyncio.gather(*(
                gateway.submit("home", query)
                for query in edgehome_suite.queries[:8]
            ))
            return responses, gateway.metrics()

    responses, metrics = asyncio.run(scenario())
    assert len(responses) == 8
    # all eight were concurrently waiting, so they coalesced into few
    # batches; at least one real micro-batch formed
    assert metrics["max_batch_size"] >= 2
    assert metrics["requests_completed"] == 8
    assert sum(int(size) * count
               for size, count in metrics["batch_size_histogram"].items()) == 8


def test_multi_tenant_routing_and_isolation(edgehome_suite, bfcl_suite):
    async def scenario():
        sessions = make_sessions(home=edgehome_suite, bfcl=bfcl_suite)
        config = ServingSpec(max_batch_size=8)
        async with Gateway(sessions, config=config) as gateway:
            home_queries = edgehome_suite.queries[:4]
            bfcl_queries = bfcl_suite.queries[:4]
            responses = await asyncio.gather(
                *(gateway.submit("home", query) for query in home_queries),
                *(gateway.submit("bfcl", query) for query in bfcl_queries),
            )
            return responses

    responses = asyncio.run(scenario())
    home_qids = {response.episode.qid for response in responses[:4]}
    bfcl_qids = {response.episode.qid for response in responses[4:]}
    # each tenant's episodes came from its own suite (qid namespaces differ)
    assert home_qids.isdisjoint(bfcl_qids)
    assert all(response.tenant == "home" for response in responses[:4])
    assert all(response.tenant == "bfcl" for response in responses[4:])


def test_scheme_override_per_request(edgehome_suite):
    async def scenario():
        sessions = make_sessions(home=edgehome_suite)
        async with Gateway(sessions) as gateway:
            query = edgehome_suite.queries[0]
            default = await gateway.submit("home", query)
            override = await gateway.submit("home", query, scheme="default")
            return default, override

    default, override = asyncio.run(scenario())
    assert default.episode.scheme == "lis"
    assert override.episode.scheme == "default"


def test_bad_grid_cell_fails_only_its_own_requests(edgehome_suite):
    """An invalid model in one request must not fail co-batched traffic."""

    async def scenario():
        sessions = make_sessions(home=edgehome_suite)
        config = ServingSpec(max_batch_size=8)
        async with Gateway(sessions, config=config) as gateway:
            good = [gateway.submit("home", query)
                    for query in edgehome_suite.queries[:3]]
            bad = gateway.submit("home", edgehome_suite.queries[3],
                                 model="no-such-model")
            outcomes = await asyncio.gather(*good, bad, return_exceptions=True)
            return outcomes

    outcomes = asyncio.run(scenario())
    assert all(not isinstance(outcome, Exception) for outcome in outcomes[:3])
    assert isinstance(outcomes[3], Exception)


def test_empty_plan_batch_returns_empty(edgehome_suite):
    from repro.embedding.cache import CachedEmbedder
    from repro.evaluation.runner import ExperimentRunner

    runner = ExperimentRunner(edgehome_suite, embedder=CachedEmbedder())
    agent = runner.make_agent("lis-k3", "hermes2-pro-8b", "q4_K_M")
    assert agent.plan_batch([]) == []


def test_restarted_gateway_serves_the_same_episodes(edgehome_suite):
    """``start → stop → start`` on one gateway: the scheduler gets its
    processor again at each start, and the second run serves every
    query bit for bit as the first did."""
    async def scenario():
        gateway = Gateway(make_sessions(home=edgehome_suite),
                          config=ServingSpec(max_batch_size=4))
        runs = []
        for _ in range(2):
            async with gateway:
                responses = await asyncio.gather(*(
                    gateway.submit("home", query)
                    for query in edgehome_suite.queries))
            assert not gateway.scheduler.running
            runs.append([response.episode.to_dict()
                         for response in responses])
        return runs

    first, second = asyncio.run(scenario())
    assert len(first) == len(edgehome_suite.queries)
    assert first == second


def test_duplicate_tenant_registration_rejected(edgehome_suite):
    sessions = SessionManager()
    sessions.register("home", edgehome_suite)
    with pytest.raises(ValueError):
        sessions.register("home", edgehome_suite)


def test_closed_loop_loadgen_summary(edgehome_suite):
    async def scenario():
        sessions = make_sessions(home=edgehome_suite)
        config = ServingSpec(max_batch_size=8)
        async with Gateway(sessions, config=config) as gateway:
            workload = make_workload({"home": edgehome_suite}, n_requests=24)
            return await run_closed_loop(gateway, workload, concurrency=8)

    report = asyncio.run(scenario())
    assert report.n_requests == 24
    assert report.throughput_rps > 0.0
    assert len(report.latencies_s) == 24
    assert report.latency_p50_ms <= report.latency_p95_ms <= report.latency_p99_ms
    assert report.gateway_metrics["requests_completed"] == 24
    assert report.gateway_metrics["requests_failed"] == 0


def test_percentile_math():
    assert percentile([], 95.0) == 0.0
    assert percentile([3.0], 99.0) == 3.0
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 100.0) == 5.0
    assert percentile(values, 75.0) == 4.0
    with pytest.raises(ValueError):
        percentile(values, 101.0)


def test_telemetry_snapshot_counts():
    from repro.serving import Telemetry

    telemetry = Telemetry(max_samples=4)
    for depth in range(6):  # exceeds max_samples: ring buffer, not growth
        telemetry.record_admission(depth)
    telemetry.record_rejection()
    telemetry.record_flush(3)
    telemetry.record_flush(3)
    telemetry.record_completion(0.010)
    telemetry.record_completion(0.030)
    telemetry.record_completion(0.0, ok=False)
    snapshot = telemetry.snapshot()
    assert snapshot["requests_admitted"] == 6
    assert snapshot["requests_rejected"] == 1
    assert snapshot["requests_completed"] == 2
    assert snapshot["requests_failed"] == 1
    assert snapshot["n_batches"] == 2
    assert snapshot["mean_batch_size"] == 3.0
    assert snapshot["batch_size_histogram"] == {"3": 2}
    assert snapshot["latency_p50_ms"] == pytest.approx(20.0)
