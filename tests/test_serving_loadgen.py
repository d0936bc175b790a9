"""Direct unit tests for the closed-loop load generator.

``loadgen`` was previously only exercised indirectly through the bench
harness; these tests pin down workload construction, the closed-loop
driver against a real (tiny) gateway, report arithmetic and argument
validation.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serving import (
    Gateway,
    LoadReport,
    LoadSpec,
    SessionManager,
    make_workload,
    run_closed_loop,
    run_load,
)
from repro.specs import ServingSpec
from repro.suites import load_suite


@pytest.fixture(scope="module")
def suite():
    return load_suite("edgehome", n_queries=5)


# ----------------------------------------------------------------------
# make_workload
# ----------------------------------------------------------------------
def test_make_workload_requires_a_tenant():
    with pytest.raises(ValueError, match="at least one tenant"):
        make_workload({}, 4)


def test_make_workload_interleaves_tenants(suite):
    other = load_suite("edgehome", n_queries=3)
    workload = make_workload({"a": suite, "b": other}, 6)
    assert len(workload) == 6
    assert [spec.tenant for spec in workload] == ["a", "b"] * 3
    assert workload[0].query == suite.queries[0]
    assert workload[1].query == other.queries[0]
    assert workload[2].query == suite.queries[1]


def test_make_workload_wraps_around_short_suites(suite):
    workload = make_workload({"a": suite}, len(suite.queries) + 2)
    assert workload[len(suite.queries)].query == suite.queries[0]
    assert workload[-1].query == suite.queries[1]


def test_make_workload_rejects_empty_tenant_suite(suite):
    """Regression: an empty query list used to surface as a bare
    ZeroDivisionError from the cycling arithmetic; the error must name
    the offending tenant instead."""
    empty = load_suite("edgehome", n_queries=5)
    empty.queries = []
    with pytest.raises(ValueError, match="tenant 'b' has an empty query list"):
        make_workload({"a": suite, "b": empty}, 4)


# ----------------------------------------------------------------------
# LoadReport arithmetic
# ----------------------------------------------------------------------
def test_report_throughput_and_percentiles():
    report = LoadReport(n_requests=10, concurrency=2, wall_s=2.0,
                        latencies_s=[0.010, 0.020, 0.030])
    assert report.throughput_rps == pytest.approx(5.0)
    assert report.latency_p50_ms == pytest.approx(20.0)
    assert report.latency_p99_ms == pytest.approx(29.8)


def test_report_zero_wall_clock_yields_zero_throughput():
    report = LoadReport(n_requests=10, concurrency=1, wall_s=0.0)
    assert report.throughput_rps == 0.0
    assert report.goodput_rps == 0.0
    assert report.latency_p95_ms == 0.0  # empty latency sample


def test_report_goodput_excludes_failed_requests():
    """Regression: throughput_rps counts failures (it is *offered* load);
    goodput_rps is the served-capacity number chaos runs must report."""
    report = LoadReport(n_requests=10, concurrency=2, wall_s=2.0, n_errors=4)
    assert report.throughput_rps == pytest.approx(5.0)
    assert report.goodput_rps == pytest.approx(3.0)
    assert report.success_rate == pytest.approx(0.6)


def test_report_goodput_equals_throughput_without_errors():
    report = LoadReport(n_requests=6, concurrency=1, wall_s=3.0)
    assert report.goodput_rps == report.throughput_rps


# ----------------------------------------------------------------------
# run_closed_loop / run_load
# ----------------------------------------------------------------------
def test_run_closed_loop_validates_concurrency(suite):
    async def go():
        sessions = SessionManager()
        sessions.register("t", suite)
        async with Gateway(sessions) as gateway:
            await run_closed_loop(gateway, make_workload({"t": suite}, 2), 0)

    with pytest.raises(ValueError, match="concurrency"):
        asyncio.run(go())


def test_run_closed_loop_serves_whole_workload(suite):
    workload = make_workload({"t": suite}, 8)

    async def go():
        sessions = SessionManager()
        sessions.register("t", suite)
        config = ServingSpec(max_batch_size=4, max_wait_ms=2.0)
        async with Gateway(sessions, config=config) as gateway:
            return await run_closed_loop(gateway, workload, concurrency=4)

    report = asyncio.run(go())
    assert report.n_requests == 8
    assert report.concurrency == 4
    assert len(report.latencies_s) == 8
    assert all(latency >= 0.0 for latency in report.latencies_s)
    assert report.wall_s > 0.0
    # every completion is kept, keyed (tenant, qid, repeat) — a workload
    # that cycles its query pool must not overwrite earlier repeats
    assert len(report.episodes) == 8
    qids = {query.qid for query in suite.queries}
    for tenant, qid, repeat in report.episodes:
        assert tenant == "t"
        assert qid in qids
        assert repeat >= 0
    # the 8-request workload over 5 queries revisits 3 of them once
    repeated = [key for key in report.episodes if key[2] == 1]
    assert len(repeated) == 3
    for tenant, qid, _ in repeated:
        first = report.episodes[(tenant, qid, 0)]
        again = report.episodes[(tenant, qid, 1)]
        assert first == again  # deterministic serving: repeats are bitwise equal
    assert report.gateway_metrics["requests_completed"] == 8


def test_run_load_owns_gateway_lifecycle(suite):
    report = run_load({"t": suite}, ServingSpec(max_batch_size=2),
                      n_requests=4, concurrency=2)
    assert report.n_requests == 4
    assert report.throughput_rps > 0.0
    assert report.gateway_metrics["requests_admitted"] == 4


def test_run_load_episodes_match_direct_submission(suite):
    """Loadgen must not alter served results (same bitwise contract)."""

    async def direct():
        sessions = SessionManager()
        sessions.register("t", suite)
        async with Gateway(sessions) as gateway:
            responses = await asyncio.gather(*(
                gateway.submit("t", query) for query in suite.queries))
        return {r.episode.qid: r.episode for r in responses}

    want = asyncio.run(direct())
    report = run_load({"t": suite}, ServingSpec(max_batch_size=4),
                      n_requests=len(suite.queries), concurrency=3)
    assert len(report.episodes) == len(suite.queries)
    for (_, qid, repeat), episode in report.episodes.items():
        assert repeat == 0  # one pass over the pool: no repeats
        assert episode == want[qid]
