"""The carbon/power budget controller: ladder, power modes, composition.

The acceptance criteria of the ``repro.power`` subsystem live here:

- a tight joule budget measurably reduces mean energy per request versus
  an uncontrolled gateway while goodput stays above zero;
- every episode served at a rung is bitwise identical to the same query
  served by an uncontrolled gateway pinned at that rung's configuration
  (the accounting layer never leaks into episode bits);
- the budget and queue-pressure controllers compose through the shared
  :class:`~repro.serving.degrade.LadderArbiter` without oscillating.
"""

from __future__ import annotations

import asyncio
import dataclasses
from pathlib import Path

import pytest

from repro.power import BudgetController, MODE_LADDER
from repro.power.signals import StaticSignal
from repro.serving import (
    DegradationPolicy,
    Gateway,
    SessionManager,
    TenantShedError,
)
from repro.specs import BudgetSpec, ServingSpec
from repro.suites import load_suite

COMMITTED_TRACE = (Path(__file__).resolve().parent.parent
                   / "benchmarks" / "data" / "grid_intensity_day.csv")

#: how an uncontrolled gateway reproduces each serving rung: the scheme
#: override (the catalog is the same at every rung)
RUNG_SETUPS = {"full": None, "reduced-k": "lis-k1"}


def test_budget_policy_validation():
    with pytest.raises(ValueError, match="at least one control"):
        BudgetSpec()
    with pytest.raises(ValueError):
        BudgetSpec(energy_budget_j=0.0)
    with pytest.raises(ValueError):
        BudgetSpec(carbon_budget_g=-1.0)
    with pytest.raises(ValueError):
        BudgetSpec(energy_budget_j=1.0, window_requests=0)
    with pytest.raises(ValueError):
        BudgetSpec(energy_budget_j=1.0, settle_requests=0)
    with pytest.raises(ValueError):
        BudgetSpec(energy_budget_j=1.0, recovery_ticks=0)
    with pytest.raises(ValueError):
        BudgetSpec(energy_budget_j=1.0, recovery_margin=1.5)
    with pytest.raises(ValueError):
        BudgetSpec(intensity_high=-10.0)
    with pytest.raises(ValueError, match="requires intensity_high"):
        BudgetSpec(energy_budget_j=1.0, intensity_low=100.0)
    with pytest.raises(ValueError):
        BudgetSpec(intensity_high=400.0, intensity_low=500.0)
    with pytest.raises(ValueError, match="min_power_mode"):
        BudgetSpec(energy_budget_j=1.0, min_power_mode="1W")
    with pytest.raises(ValueError):
        BudgetSpec(energy_budget_j=1.0, interval_ms=0.0)
    with pytest.raises(ValueError, match=r"intensity_low must be in \[0"):
        # the derived threshold (high * margin) must leave a band too
        BudgetSpec(intensity_high=400.0, recovery_margin=1.0)
    # defaults: settle window fills, intensity_low derives from the margin
    spec = BudgetSpec(energy_budget_j=5.0, window_requests=16,
                      intensity_high=500.0)
    assert spec.effective_settle_requests == 16
    assert spec.effective_intensity_low == pytest.approx(400.0)
    assert spec.interval_s == pytest.approx(0.1)
    # explicit values win over the derived defaults
    pinned = spec.replace(settle_requests=4, intensity_low=100.0)
    assert pinned.effective_settle_requests == 4
    assert pinned.effective_intensity_low == 100.0
    # the defaults resolve on read: the fields stay as written, so the
    # dict form round-trips exactly what was set
    assert spec.settle_requests is None and spec.intensity_low is None
    assert BudgetSpec.from_dict(spec.to_dict()) == spec


async def _run_pinned(suite, rung):
    """Serve every suite query once on a gateway pinned at ``rung``'s
    configuration; returns (episodes-by-qid, mean energy per request)."""
    scheme = RUNG_SETUPS[rung]
    sessions = SessionManager()
    sessions.register("home", suite)
    config = ServingSpec(max_batch_size=4, max_wait_ms=1.0)
    async with Gateway(sessions, config=config) as gateway:
        if scheme is not None:
            gateway.set_scheme_override("home", scheme)
        episodes = {}
        for query in suite.queries:
            response = await gateway.submit("home", query)
            episodes[query.qid] = response.episode
        energy_j = gateway.metrics()["energy_j_by_tenant"]["home"]
    return episodes, energy_j / len(suite.queries)


def test_energy_budget_reduces_energy_with_bitwise_identity():
    """The headline acceptance test: a tight budget walks the tenant down
    the ladder, mean energy per request drops versus uncontrolled, goodput
    stays positive, and every wave's episodes are bitwise identical to the
    same rung's uncontrolled configuration."""
    suite = load_suite("edgehome", n_queries=6)

    async def scenario():
        pinned = {rung: await _run_pinned(suite, rung)
                  for rung in RUNG_SETUPS}
        means = {rung: mean for rung, (_, mean) in pinned.items()}
        # sanity on the physics this test leans on: the rung down is
        # cheaper (fewer tools presented, fewer prompt tokens)
        assert means["reduced-k"] < means["full"]

        # budget between full and reduced-k: the controller must
        # descend exactly to reduced-k and hold there (the 5% headroom
        # keeps reduced-k inside the hysteresis band, not under
        # budget * recovery_margin, so it cannot climb back and flap)
        budget_j = means["reduced-k"] * 1.05
        assert means["full"] > budget_j
        spec = BudgetSpec(energy_budget_j=budget_j, window_requests=6,
                          settle_requests=6, recovery_ticks=2,
                          interval_ms=600_000.0)
        sessions = SessionManager()
        sessions.register("home", suite)
        config = ServingSpec(max_batch_size=4, max_wait_ms=1.0,
                             budget=spec)
        waves = []
        async with Gateway(sessions, config=config) as gateway:
            assert isinstance(gateway.budget, BudgetController)
            for _ in range(6):
                rung = gateway.rung("home")
                episodes = {}
                for query in suite.queries:
                    response = await gateway.submit("home", query)
                    episodes[query.qid] = response.episode
                waves.append((rung, episodes))
                gateway.budget.tick(now_s=0.0)
            metrics = gateway.metrics()
            assert gateway.rung_source("home") == "budget"
            status = gateway.budget.status()
            assert status["tenants"]["home"]["effective_rung"] == "reduced-k"

        # one rung down after the first full window, then a stable hold
        assert [rung for rung, _ in waves] == ["full"] + ["reduced-k"] * 5

        # goodput never hit zero: every submission was served
        n_requests = 6 * len(suite.queries)
        assert metrics["requests_completed"] == n_requests
        assert metrics["shed_requests"] == 0

        # no oscillation: exactly one move, downward
        assert metrics["budget_transitions"] == 1
        assert metrics["budget_transitions_detail"] == {
            "home:down:reduced-k": 1}
        assert metrics["degrade_transitions"] == 1

        # bitwise identity: every episode equals the one an uncontrolled
        # gateway pinned at that wave's rung produces for the same query
        for rung, episodes in waves:
            reference = pinned[rung][0]
            for qid, episode in episodes.items():
                assert dataclasses.asdict(episode) == dataclasses.asdict(
                    reference[qid]), (rung, qid)

        # the controlled run spent measurably less than uncontrolled-full
        controlled_mean = metrics["energy_j"] / n_requests
        assert controlled_mean < 0.9 * means["full"]
        # and carbon attribution followed energy through the ledger
        assert metrics["carbon_g"] == pytest.approx(
            metrics["energy_j"] / 3.6e6 * 400.0)

    asyncio.run(scenario())


def test_budget_and_pressure_compose_without_oscillation():
    """Two controllers over one ladder: the deeper desire wins, a
    disagreeing controller moves nothing, and repeated pressure swings
    around a budget-pinned rung produce zero transitions."""
    suite = load_suite("edgehome", n_queries=2)
    degradation = DegradationPolicy(queue_high=4, queue_low=0,
                                    recovery_ticks=2,
                                    reduced_k_scheme="lis-k1")

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        spec = BudgetSpec(energy_budget_j=1e-6, window_requests=2,
                          settle_requests=2, recovery_ticks=2,
                          interval_ms=600_000.0)
        config = ServingSpec(max_batch_size=4, max_wait_ms=1.0,
                             budget=spec)
        async with Gateway(sessions, config=config,
                           degradation=degradation) as gateway:
            for query in suite.queries:
                await gateway.submit("home", query)
            # an impossible budget pins the tenant one rung down
            gateway.budget.tick(now_s=0.0)
            assert gateway.rung("home") == "reduced-k"
            assert gateway.rung_source("home") == "budget"
            pinned = gateway.metrics()["degrade_transitions"]

            # pressure swings around the pinned rung: no transitions
            pressure = gateway.degradation
            for _ in range(3):
                pressure.tick(depth=100)   # pressure also wants rung 1
                assert gateway.rung("home") == "reduced-k"
                assert gateway.rung_source("home") == "budget+pressure"
                pressure.tick(depth=0)     # …and recovers again
                pressure.tick(depth=0)
                assert gateway.rung("home") == "reduced-k"
                assert gateway.rung_source("home") == "budget"
            assert gateway.metrics()["degrade_transitions"] == pinned

            # pressure pushing deeper than the budget still wins…
            pressure.tick(depth=100)
            pressure.tick(depth=100)
            assert gateway.rung("home") == "shed"
            assert gateway.rung_source("home") == "pressure"
            # …and recovery stops at the budget's floor, not at full
            for _ in range(4):
                pressure.tick(depth=0)
            assert gateway.rung("home") == "reduced-k"
            assert gateway.rung_source("home") == "budget"

            # only when the budget releases does the tenant reach full
            gateway.ladder.release("budget", "home")
            assert gateway.rung("home") == "full"
            assert gateway.rung_source("home") == "none"

            # total motion: pin down, excursion down+up, release up — a
            # bounded count is the no-oscillation guarantee
            assert gateway.metrics()["degrade_transitions"] == 4

    asyncio.run(scenario())


def test_intensity_steps_power_mode_with_hysteresis():
    """High grid intensity walks MAXN -> 30W -> 15W; climbing back needs
    ``recovery_ticks`` consecutive low readings, and the in-between band
    restarts the streak."""
    suite = load_suite("edgehome", n_queries=2)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        spec = BudgetSpec(intensity_high=450.0, intensity_low=300.0,
                          recovery_ticks=2, signal="trace",
                          trace_path=str(COMMITTED_TRACE),
                          interval_ms=600_000.0)
        config = ServingSpec(max_batch_size=4, max_wait_ms=1.0,
                             budget=spec)
        async with Gateway(sessions, config=config) as gateway:
            controller = gateway.budget
            evening = 20 * 3600.0   # duck-curve peak, > intensity_high
            midday = 13 * 3600.0    # solar dip, < intensity_low
            morning = 7 * 3600.0    # ramp, inside the hysteresis band

            assert gateway.power_mode() == "MAXN"
            controller.tick(now_s=evening)
            assert controller.power_mode == "30W"
            controller.tick(now_s=evening)
            assert controller.power_mode == "15W"
            controller.tick(now_s=evening)   # clamped at min_power_mode
            assert controller.power_mode == "15W"

            # recovery: one low tick is not enough…
            controller.tick(now_s=midday)
            assert controller.power_mode == "15W"
            controller.tick(now_s=midday)
            assert controller.power_mode == "30W"
            # …and an in-between reading restarts the streak
            controller.tick(now_s=morning)
            controller.tick(now_s=midday)
            assert controller.power_mode == "30W"
            controller.tick(now_s=midday)
            assert controller.power_mode == "MAXN"
            assert gateway.power_mode() == "MAXN"

            # the meter followed every move; telemetry counted each one
            detail = gateway.metrics()["budget_transitions_detail"]
            assert detail == {
                "device:down:30W": 1, "device:down:15W": 1,
                "device:up:30W": 1, "device:up:MAXN": 1,
            }

            # a MAXN-pinned policy never leaves the top mode
            pinned = BudgetController(
                gateway,
                BudgetSpec(intensity_high=450.0, min_power_mode="MAXN"),
                meter=gateway.power_meter, signal=StaticSignal(999.0))
            pinned.tick(now_s=0.0)
            assert pinned.power_mode == "MAXN"
            assert gateway.power_mode() == "MAXN"
            assert (gateway.metrics()["budget_transitions_detail"]
                    == detail)

    asyncio.run(scenario())


def test_shed_probation_recovers_a_shed_tenant():
    """An impossible budget walks a tenant to shed; because a shed tenant
    produces no fresh evidence, probation steps it back up after
    ``recovery_ticks`` quiet ticks instead of deadlocking."""
    suite = load_suite("edgehome", n_queries=1)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        spec = BudgetSpec(energy_budget_j=1e-6, window_requests=1,
                          settle_requests=1, recovery_ticks=2,
                          interval_ms=600_000.0)
        config = ServingSpec(max_batch_size=2, max_wait_ms=1.0,
                             budget=spec)
        async with Gateway(sessions, config=config) as gateway:
            query = suite.queries[0]
            descent = []
            for _ in range(2):
                await gateway.submit("home", query)
                gateway.budget.tick(now_s=0.0)
                descent.append(gateway.rung("home"))
            assert descent == ["reduced-k", "shed"]
            with pytest.raises(TenantShedError):
                await gateway.submit("home", query)

            # probation: quiet ticks count toward one step back up
            gateway.budget.tick(now_s=0.0)
            assert gateway.rung("home") == "shed"
            gateway.budget.tick(now_s=0.0)
            assert gateway.rung("home") == "reduced-k"

            # the tenant serves again (degraded, but alive)
            response = await gateway.submit("home", query)
            assert response.episode.qid == query.qid
            detail = gateway.metrics()["budget_transitions_detail"]
            assert detail["home:down:shed"] == 1
            assert detail["home:up:reduced-k"] == 1

    asyncio.run(scenario())


def test_removed_tenant_leaves_no_energy_window_or_budget_streaks():
    """DELETE + PUT a tenant name: the successor must be steered by its
    own joules only — not by the removed tenant's rolling window, nor
    held back by its settle mark (a watermark on the old request count)."""
    old = load_suite("geoengine", n_queries=4)
    new = load_suite("browser", n_queries=4)

    async def scenario():
        sessions = SessionManager()
        sessions.register("t", old)
        spec = BudgetSpec(energy_budget_j=1.0, window_requests=4,
                          interval_ms=600_000.0)
        async with Gateway(sessions, config=ServingSpec(budget=spec)) as gateway:
            for query in old.queries:
                await gateway.submit("t", query)
            gateway.budget.tick(now_s=0.0)   # over budget: settle mark = 4
            assert gateway.rung("t") == "reduced-k"
            lifetime_j = gateway.metrics()["energy_j_by_tenant"]["t"]

            gateway.remove_tenant("t")
            sessions.register("t", new)
            status = gateway.budget_status("t")
            assert status["window_requests"] == 0
            assert status["mean_energy_j"] == 0.0
            gateway.budget.tick(now_s=0.0)
            assert gateway.rung("t") == "full"
            assert gateway.rung_source("t") == "none"
            # lifetime counters are not per-incarnation state
            assert gateway.metrics()["energy_j_by_tenant"]["t"] == lifetime_j

            # the fresh tenant's own requests do steer it, and exactly
            # once its own window has filled
            for query in new.queries[:3]:
                await gateway.submit("t", query)
            gateway.budget.tick(now_s=0.0)
            assert gateway.rung("t") == "full"
            await gateway.submit("t", new.queries[3])
            assert gateway.budget_status("t")["window_requests"] == 4
            gateway.budget.tick(now_s=0.0)
            assert gateway.rung("t") == "reduced-k"
            assert gateway.rung_source("t") == "budget"

    asyncio.run(scenario())


def test_budget_status_surface():
    """``Gateway.budget_status`` exposes the spent window and the budgets
    so the HTTP status endpoint can render them."""
    suite = load_suite("edgehome", n_queries=2)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        spec = BudgetSpec(energy_budget_j=1e6, carbon_budget_g=1e6,
                          window_requests=4, interval_ms=600_000.0)
        config = ServingSpec(max_batch_size=4, max_wait_ms=1.0,
                             budget=spec)
        async with Gateway(sessions, config=config) as gateway:
            empty = gateway.budget_status("home")
            assert empty["window_requests"] == 0
            for query in suite.queries:
                await gateway.submit("home", query)
            status = gateway.budget_status("home")
            assert status["window_requests"] == 2
            assert status["window_energy_j"] > 0.0
            assert status["window_carbon_g"] > 0.0
            assert status["mean_energy_j"] == pytest.approx(
                status["window_energy_j"] / 2)
            assert status["energy_budget_j"] == 1e6
            assert status["carbon_budget_g"] == 1e6
            # a budget-less gateway still meters, but advertises no caps
            assert MODE_LADDER[0] == gateway.power_mode() == "MAXN"

    asyncio.run(scenario())


def test_unbudgeted_gateway_still_meters():
    """Every gateway runs the EnergyMeter; the controller is opt-in."""
    suite = load_suite("edgehome", n_queries=1)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        config = ServingSpec(max_batch_size=2, max_wait_ms=1.0)
        async with Gateway(sessions, config=config) as gateway:
            assert gateway.budget is None
            await gateway.submit("home", suite.queries[0])
            metrics = gateway.metrics()
            assert metrics["energy_j_by_tenant"]["home"] > 0.0
            assert metrics["carbon_g_by_tenant"]["home"] > 0.0
            status = gateway.budget_status("home")
            assert status["window_requests"] == 1
            assert "energy_budget_j" not in status

    asyncio.run(scenario())
