"""Catalog hot-swap through the serving gateway.

The contract under test: ``Gateway.update_catalog`` re-tools one tenant
atomically, the plan cache can never serve a plan computed against a
previous catalog (the catalog version rides in the cache key), swapped
traffic is bitwise identical to a sequential run over the new catalog,
and a catalog that breaks the tenant's query pool is rejected without
touching the running state.
"""

from __future__ import annotations

import asyncio

import pytest
from test_tools_catalog import subset

from repro.embedding.cache import CachedEmbedder
from repro.evaluation.runner import ExperimentRunner
from repro.serving import Gateway, SessionManager
from repro.serving.gateway import _PlanCache
from repro.specs import CatalogSpec, ServingSpec
from repro.suites import load_suite
from repro.tools.catalog import load_catalog

MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"
N_QUERIES = 8


@pytest.fixture()
def suite():
    return load_suite("edgehome", n_queries=N_QUERIES)


def make_gateway(suite, plan_cache_size=64):
    sessions = SessionManager(embedder=CachedEmbedder())
    sessions.register("home", suite)
    config = ServingSpec(max_batch_size=4,
                         default_scheme="lis-k3", default_model=MODEL,
                         default_quant=QUANT,
                         plan_cache_size=plan_cache_size)
    return Gateway(sessions, config=config)


def reference_episodes(catalog, n_queries=N_QUERIES):
    """Sequential ExperimentRunner episodes over a re-tooled suite."""
    suite = load_suite("edgehome", n_queries=n_queries, catalog=catalog)
    runner = ExperimentRunner(suite, embedder=CachedEmbedder())
    return {e.qid: e for e in runner.run("lis-k3", MODEL, QUANT).episodes}


class TestPlanCacheKey:
    def test_key_includes_catalog_version(self, suite):
        query = suite.queries[0]
        a = _PlanCache.key(1, query, "lis-k3", MODEL, QUANT, "v1")
        b = _PlanCache.key(1, query, "lis-k3", MODEL, QUANT, "v2")
        assert a != b
        assert "v1" in a


def test_swap_mid_traffic_never_serves_stale_plan(suite):
    """Queries served, swapped, re-served: the post-swap episodes must be
    fresh plans against the new catalog, not plan-cache replays."""
    compressed = load_catalog("edgehome", variant="compressed")

    async def scenario():
        gateway = make_gateway(suite)
        async with gateway:
            queries = suite.queries[:4]
            before = [await gateway.submit("home", q) for q in queries]
            # repeat: all four served from the plan cache
            repeat = [await gateway.submit("home", q) for q in queries]
            hits_before = gateway.metrics()["plan_cache_hits"]

            version = gateway.update_catalog("home", compressed)

            after = [await gateway.submit("home", q) for q in queries]
            metrics = gateway.metrics()
        return before, repeat, after, hits_before, version, metrics

    before, repeat, after, hits_before, version, metrics = asyncio.run(scenario())

    # pre-swap behavior: the repeat pass was answered from the cache,
    # bitwise identical
    assert hits_before == 4
    for a, b in zip(before, repeat):
        assert a.episode == b.episode

    # the swap bumped the version to the compressed catalog's content hash
    assert version == compressed.version
    assert metrics["catalog_swaps"] == 1
    assert metrics["catalog_swaps_by_tenant"] == {"home": 1}

    # post-swap: every request re-planned (cache keys carry the new
    # version, so the four cached plans are unreachable) ...
    assert metrics["plan_cache_hits"] == hits_before
    assert metrics["plan_cache_misses"] == 8

    # ... and episodes equal a sequential run over the compressed suite,
    # bitwise — not the full-variant episodes served before the swap
    reference = reference_episodes(compressed)
    for response in after:
        assert response.episode == reference[response.episode.qid]
    changed = [a.episode != b.episode for a, b in zip(before, after)]
    assert any(changed), "compressed catalog should change prompt accounting"


def test_swap_back_restores_content_addressed_cache(suite):
    """Swapping back to a catalog with identical content re-enables the
    plans cached under it — the version is a content hash, not a counter."""
    full = suite.catalog
    compressed = load_catalog("edgehome", variant="compressed")

    async def scenario():
        gateway = make_gateway(suite)
        async with gateway:
            query = suite.queries[0]
            first = await gateway.submit("home", query)
            gateway.update_catalog("home", compressed)
            await gateway.submit("home", query)
            gateway.update_catalog("home", full)
            third = await gateway.submit("home", query)
            metrics = gateway.metrics()
        return first, third, metrics

    first, third, metrics = asyncio.run(scenario())
    assert first.episode == third.episode
    assert metrics["plan_cache_hits"] == 1  # the third submit
    assert metrics["catalog_swaps"] == 2


def test_swap_without_plan_cache_still_retools(suite):
    minimal = load_catalog("edgehome", variant="minimal")

    async def scenario():
        gateway = make_gateway(suite, plan_cache_size=0)
        async with gateway:
            query = suite.queries[0]
            before = await gateway.submit("home", query)
            gateway.update_catalog("home", minimal)
            after = await gateway.submit("home", query)
        return before, after

    before, after = asyncio.run(scenario())
    reference = reference_episodes(minimal)
    assert after.episode == reference[after.episode.qid]
    # the re-tooled catalog changes the episode (shorter descriptions
    # shift retrieval and prompt accounting); per-episode token counts
    # are behavior-dependent — the catalog-level reduction is asserted
    # in the bench and in tests/test_tools_catalog.py
    assert before.episode != after.episode


def test_swap_accepts_name_and_catalog_spec(suite):
    async def scenario():
        gateway = make_gateway(suite)
        async with gateway:
            by_name = gateway.update_catalog("home", "edgehome")
            by_spec = gateway.update_catalog(
                "home", CatalogSpec("edgehome", variant="compressed"))
        return by_name, by_spec

    by_name, by_spec = asyncio.run(scenario())
    assert by_name == load_catalog("edgehome").version
    assert by_spec == load_catalog("edgehome", variant="compressed").version


def test_swap_rejecting_broken_catalog_leaves_tenant_running(suite):
    """A catalog that drops a gold tool fails validation; the tenant keeps
    serving the old catalog and the version does not move."""
    broken = subset(suite.catalog, suite.catalog.names[:5])

    async def scenario():
        gateway = make_gateway(suite)
        async with gateway:
            session = gateway.sessions.get("home")
            version_before = session.catalog_version
            with pytest.raises(ValueError, match="references unknown tool"):
                gateway.update_catalog("home", broken)
            response = await gateway.submit("home", suite.queries[0])
            metrics = gateway.metrics()
            return version_before, session.catalog_version, response, metrics

    before, after, response, metrics = asyncio.run(scenario())
    assert before == after
    assert response.episode.qid == suite.queries[0].qid
    assert metrics["catalog_swaps"] == 0


def test_swap_unknown_tenant_raises(suite):
    async def scenario():
        gateway = make_gateway(suite)
        async with gateway:
            with pytest.raises(KeyError, match="unknown tenant"):
                gateway.update_catalog("nope", "edgehome")

    asyncio.run(scenario())


def test_leased_agent_pairs_agent_with_version(suite):
    sessions = SessionManager(embedder=CachedEmbedder())
    session = sessions.register("home", suite)
    agent, version = session.leased_agent("lis-k3", MODEL, QUANT)
    assert version == suite.catalog.version
    # the swap replaces suite, runner and agent cache in one move
    compressed = load_catalog("edgehome", variant="compressed")
    new_version = session.swap_catalog(compressed)
    swapped_agent, swapped_version = session.leased_agent("lis-k3", MODEL, QUANT)
    assert swapped_version == new_version == compressed.version
    assert swapped_agent is not agent
    assert swapped_agent.suite.catalog.variant == "compressed"
