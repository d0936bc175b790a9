"""The degradation controller: down the CarbonCall ladder and back up."""

from __future__ import annotations

import asyncio

import pytest

from repro.serving import (
    DegradationController,
    DegradationPolicy,
    Gateway,
    SessionManager,
    TenantShedError,
)
from repro.specs import ServingSpec
from repro.suites import load_suite


def test_policy_validation():
    with pytest.raises(ValueError):
        DegradationPolicy(queue_high=0)
    with pytest.raises(ValueError):
        DegradationPolicy(queue_high=4, queue_low=4)
    with pytest.raises(ValueError):
        DegradationPolicy(p95_high_ms=0.0)
    with pytest.raises(ValueError):
        DegradationPolicy(recovery_ticks=0)
    with pytest.raises(ValueError):
        DegradationPolicy(interval_ms=0.0)
    assert DegradationPolicy(interval_ms=250.0).interval_s == 0.25


def test_ladder_down_to_shed_and_back_up():
    """Sustained pressure walks full→compressed→minimal→reduced-k→shed;
    sustained calm walks back up — and no future ever hangs on the way."""
    suite = load_suite("edgehome", n_queries=6)
    policy = DegradationPolicy(queue_high=4, queue_low=0, recovery_ticks=2,
                               reduced_k_scheme="lis-k1")

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        config = ServingSpec(max_batch_size=4, max_wait_ms=1.0)
        async with Gateway(sessions, config=config,
                           degradation=policy) as gateway:
            controller = gateway.degradation
            assert isinstance(controller, DegradationController)
            assert controller.rung("home") == "full"

            # -- down the ladder, one rung per high-pressure tick
            down = []
            for _ in range(4):
                controller.tick(depth=100)
                down.append(controller.rung("home"))
            assert down == ["compressed", "minimal", "reduced-k", "shed"]
            # the catalog rungs really swapped the served variant
            assert sessions.get("home").suite.catalog.variant == "minimal"

            # shed tenants are rejected at admission, not queued
            with pytest.raises(TenantShedError):
                await gateway.submit("home", suite.queries[0])

            # a further high tick holds at the bottom rung
            controller.tick(depth=100)
            assert controller.rung("home") == "shed"

            # -- recovery: recovery_ticks clear ticks per upward step
            up = []
            for _ in range(8):
                controller.tick(depth=0)
                up.append(controller.rung("home"))
            assert controller.rung("home") == "full"
            assert up == ["shed", "reduced-k", "reduced-k", "minimal",
                          "minimal", "compressed", "compressed", "full"]
            assert sessions.get("home").suite.catalog.variant == "full"

            # fully recovered: requests serve normally again
            response = await gateway.submit("home", suite.queries[0])
            assert response.episode is not None
            return gateway.metrics(), controller.status()

    metrics, status = asyncio.run(scenario())
    assert status == {"home": "full"}
    assert metrics["shed_requests_by_tenant"] == {"home": 1}
    # 4 down + 4 up transitions, each one counted with its direction
    assert metrics["degrade_transitions"] == 8
    detail = metrics["degrade_transitions_detail"]
    assert detail["home:down:shed"] == 1
    assert detail["home:up:full"] == 1


def test_reduced_k_rung_reroutes_default_scheme():
    suite = load_suite("edgehome", n_queries=4)
    policy = DegradationPolicy(queue_high=2, queue_low=0, recovery_ticks=1,
                               reduced_k_scheme="lis-k1")

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        async with Gateway(sessions, config=ServingSpec(max_wait_ms=1.0),
                           degradation=policy) as gateway:
            controller = gateway.degradation
            for _ in range(3):
                controller.tick(depth=10)
            assert controller.rung("home") == "reduced-k"
            # default traffic now rides the cheap scheme...
            captured = []
            original = gateway.scheduler.submit

            def spy(tenant, item):
                captured.append(item.scheme)
                return original(tenant, item)

            gateway.scheduler.submit = spy
            await gateway.submit("home", suite.queries[0])
            # ...but an explicit per-request scheme is honored as-is
            await gateway.submit("home", suite.queries[1], scheme="lis-k3")
            return captured

    captured = asyncio.run(scenario())
    assert captured == ["lis-k1", "lis-k3"]


def test_in_between_pressure_holds_ladder_and_resets_recovery():
    suite = load_suite("edgehome", n_queries=4)
    policy = DegradationPolicy(queue_high=8, queue_low=1, recovery_ticks=2)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        async with Gateway(sessions, config=ServingSpec(),
                           degradation=policy) as gateway:
            controller = gateway.degradation
            controller.tick(depth=20)
            assert controller.rung("home") == "compressed"
            # alternating clear / middle ticks never complete a recovery
            for _ in range(6):
                controller.tick(depth=0)
                controller.tick(depth=4)
            assert controller.rung("home") == "compressed"
            # two *consecutive* clear ticks do
            controller.tick(depth=0)
            controller.tick(depth=0)
            assert controller.rung("home") == "full"

    asyncio.run(scenario())


def test_p95_latency_trigger():
    suite = load_suite("edgehome", n_queries=4)
    policy = DegradationPolicy(queue_high=100, queue_low=1, recovery_ticks=1,
                               p95_high_ms=50.0)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        async with Gateway(sessions, config=ServingSpec(),
                           degradation=policy) as gateway:
            controller = gateway.degradation
            # empty queue but terrible tail latency still degrades
            controller.tick(depth=0, p95_ms=500.0)
            assert controller.rung("home") == "compressed"
            # recovery needs the latency back under the bar too
            controller.tick(depth=0, p95_ms=500.0)
            assert controller.rung("home") == "minimal"
            controller.tick(depth=0, p95_ms=1.0)
            assert controller.rung("home") == "compressed"

    asyncio.run(scenario())


def test_background_loop_runs_and_cancels_cleanly():
    """The async controller loop ticks on its own and stops with the
    gateway — a registered-but-idle gateway must come down cleanly."""
    suite = load_suite("edgehome", n_queries=4)
    policy = DegradationPolicy(interval_ms=10.0)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        async with Gateway(sessions, config=ServingSpec(),
                           degradation=policy) as gateway:
            await asyncio.sleep(0.08)  # several control intervals
            assert not gateway._degradation_task.done()
            response = await gateway.submit("home", suite.queries[0])
            assert response.episode is not None
            task = gateway._degradation_task
        assert task.cancelled() or task.done()

    asyncio.run(scenario())


def test_variant_ladder_skipped_for_non_full_catalogs():
    """A tenant already serving a derived variant has no cheaper variants
    to step through; its ladder goes straight to reduced-k."""
    base = load_suite("edgehome", n_queries=4)
    compressed = base.with_catalog(base.catalog.at("compressed"))
    policy = DegradationPolicy(queue_high=2, queue_low=0, recovery_ticks=1)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", compressed)
        async with Gateway(sessions, config=ServingSpec(),
                           degradation=policy) as gateway:
            controller = gateway.degradation
            controller.tick(depth=10)
            assert controller.rung("home") == "reduced-k"
            controller.tick(depth=10)
            assert controller.rung("home") == "shed"
            # catalog untouched the whole way
            assert sessions.get("home").suite.catalog.variant == "compressed"

    asyncio.run(scenario())
