"""Plan-result memoization: hit/miss accounting and bitwise equivalence."""

import asyncio

import pytest

from repro.serving import Gateway, SessionManager
from repro.serving.gateway import _PlanCache
from repro.specs import ServingSpec, SuiteSpec, TenantSpec
from repro.suites import load_suite


@pytest.fixture(scope="module")
def suite():
    return load_suite("edgehome", n_queries=8)


def serve_queries(suite, config, queries, rounds=1):
    """Drive ``queries`` through a fresh gateway ``rounds`` times."""

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        async with Gateway(sessions, config=config) as gateway:
            episodes = []
            for _ in range(rounds):
                responses = await asyncio.gather(*(
                    gateway.submit("home", query) for query in queries))
                episodes.append([r.episode for r in responses])
            return episodes, gateway.metrics()

    return asyncio.run(scenario())


def test_cached_replies_bitwise_identical(suite):
    config = ServingSpec(max_batch_size=4,
                         plan_cache_size=64)
    (first, second), metrics = serve_queries(
        suite, config, suite.queries, rounds=2)
    assert metrics["plan_cache_hits"] >= len(suite.queries)
    for fresh, cached in zip(first, second):
        assert fresh == cached  # dataclass equality: every field, bitwise


def test_cache_matches_uncached_gateway(suite):
    queries = suite.queries[:6]
    cached_config = ServingSpec(max_batch_size=4,
                                plan_cache_size=64)
    plain_config = ServingSpec(max_batch_size=4)
    (cached_round,), _ = serve_queries(suite, cached_config, queries)
    (plain_round,), plain_metrics = serve_queries(suite, plain_config, queries)
    assert cached_round == plain_round
    # disabled cache records no lookups at all
    assert plain_metrics["plan_cache_hits"] == 0
    assert plain_metrics["plan_cache_misses"] == 0


def test_hit_miss_accounting(suite):
    queries = suite.queries[:4]
    config = ServingSpec(max_batch_size=4,
                         plan_cache_size=64)
    _, metrics = serve_queries(suite, config, queries, rounds=3)
    assert metrics["plan_cache_misses"] == len(queries)
    assert metrics["plan_cache_hits"] == 2 * len(queries)
    assert metrics["plan_cache_hit_rate"] == pytest.approx(2 / 3)


def test_serving_spec_enables_cache(suite):
    spec = ServingSpec(
        tenants=(TenantSpec("home", SuiteSpec("edgehome", n_queries=8)),),
        max_batch_size=4, plan_cache_size=16)
    from repro.session import open_session

    session = open_session(spec)

    async def scenario():
        async with session.serve() as gateway:
            query = gateway.sessions.get("home").suite.queries[0]
            a = await gateway.submit("home", query)
            b = await gateway.submit("home", query)
            return a.episode, b.episode, gateway.metrics()

    first, second, metrics = asyncio.run(scenario())
    assert first == second
    assert metrics["plan_cache_hits"] == 1
    assert metrics["plan_cache_misses"] == 1


class TestPlanCacheLRU:
    def test_eviction_order(self):
        cache = _PlanCache(capacity=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh "a": "b" is now oldest
        cache.put(("c",), 3)
        assert len(cache) == 2
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3

    def test_key_includes_query_text(self, suite):
        query = suite.queries[0]
        key = _PlanCache.key(1, query, "lis-k3", "m", "q")
        assert query.qid in key
        assert query.text in key

    def test_clear(self):
        cache = _PlanCache(capacity=4)
        cache.put(("a",), 1)
        cache.clear()
        assert len(cache) == 0
