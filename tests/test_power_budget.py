"""The budget controller: the ladder, its accounting, composition.

The acceptance criteria of the ``repro.power`` subsystem live here:

- a tight joule budget measurably reduces mean energy per request versus
  an uncontrolled gateway while goodput stays above zero;
- every episode served at a rung is bitwise identical to the same query
  served by an uncontrolled gateway pinned at that rung's configuration
  (the budget ladder never leaks into episode bits);
- one ladder move is one ``budget_transitions`` entry and one ``budget``
  marker span.
"""

from __future__ import annotations

import asyncio
import dataclasses
from collections import Counter

import pytest

from repro.power import BudgetController
from repro.serving import Gateway, SessionManager, TenantShedError
from repro.specs import BudgetSpec, ObsSpec, ServingSpec
from repro.suites import load_suite

#: how an uncontrolled gateway reproduces each serving rung: the scheme
#: its requests name (the catalog is the same at every rung)
RUNG_SETUPS = {"full": None, "reduced-k": "lis-k1"}


def test_budget_policy_validation():
    with pytest.raises(TypeError, match="energy_budget_j"):
        BudgetSpec()
    with pytest.raises(ValueError, match="energy_budget_j is required"):
        BudgetSpec(energy_budget_j=None)
    with pytest.raises(ValueError):
        BudgetSpec(energy_budget_j=0.0)
    with pytest.raises(ValueError):
        BudgetSpec(energy_budget_j=1.0, window_requests=0)
    with pytest.raises(ValueError):
        BudgetSpec(energy_budget_j=1.0, settle_requests=0)
    with pytest.raises(ValueError):
        BudgetSpec(energy_budget_j=1.0, recovery_ticks=0)
    with pytest.raises(ValueError):
        BudgetSpec(energy_budget_j=1.0, interval_ms=0.0)
    # defaults: the settle window fills
    spec = BudgetSpec(energy_budget_j=5.0, window_requests=16)
    assert spec.effective_settle_requests == 16
    assert spec.interval_s == pytest.approx(0.1)
    # an explicit value wins over the derived default
    assert spec.replace(settle_requests=4).effective_settle_requests == 4
    # the default resolves on read: the field stays as written, so the
    # dict form round-trips exactly what was set
    assert spec.settle_requests is None
    assert BudgetSpec.from_dict(spec.to_dict()) == spec


async def _run_pinned(suite, rung):
    """Serve every suite query once on a gateway pinned at ``rung``'s
    configuration; returns (episodes-by-qid, mean energy per request)."""
    scheme = RUNG_SETUPS[rung]
    sessions = SessionManager()
    sessions.register("home", suite)
    config = ServingSpec(max_batch_size=4)
    async with Gateway(sessions, config=config) as gateway:
        episodes = {}
        for query in suite.queries:
            response = await gateway.submit("home", query, scheme=scheme)
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
        # budget * RECOVERY_MARGIN, so it cannot climb back and flap)
        budget_j = means["reduced-k"] * 1.05
        assert means["full"] > budget_j
        spec = BudgetSpec(energy_budget_j=budget_j, window_requests=6,
                          settle_requests=6, recovery_ticks=2,
                          interval_ms=600_000.0)
        sessions = SessionManager()
        sessions.register("home", suite)
        config = ServingSpec(max_batch_size=4,
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
                gateway.budget.tick()
            metrics = gateway.metrics()
            assert gateway.rung("home") == "reduced-k"

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


def _serve_waves(suite, budget: BudgetSpec | None, requests: int = 96,
                 wave: int = 8) -> tuple[int, dict]:
    """Serve ``requests`` of ``suite`` in waves of ``wave`` concurrent
    requests, one controller tick between waves; returns the served
    count and the drained gateway's metrics."""
    queries = suite.queries

    async def scenario():
        sessions = SessionManager()
        sessions.register("edgehome", suite)
        config = ServingSpec(max_batch_size=8, budget=budget)
        async with Gateway(sessions, config=config) as gateway:
            served = 0
            for start in range(0, requests, wave):
                outcomes = await asyncio.gather(*(
                    gateway.submit("edgehome", queries[(start + i) % len(queries)])
                    for i in range(min(wave, requests - start))),
                    return_exceptions=True)
                for outcome in outcomes:
                    # a tight budget may shed; anything else is a failure
                    if isinstance(outcome, TenantShedError):
                        continue
                    if isinstance(outcome, BaseException):
                        raise outcome
                    served += 1
                if gateway.budget is not None:
                    gateway.budget.tick()
        return served, gateway.metrics()

    return asyncio.run(scenario())


def test_wave_scenario_pins_the_budget_ladder():
    """The deterministic budget comparison (manual controller ticks,
    seeded energy model), so its numbers are exact: uncontrolled, then
    capped at 60% of the uncontrolled mean (the uncontrolled row is the
    ``serving.budget`` value of the perf baseline retired at c15e7b3)."""
    suite = load_suite("edgehome")
    served, metrics = _serve_waves(suite, None)
    base_j = metrics["energy_j"] / served
    budget = BudgetSpec(energy_budget_j=base_j * 0.6, window_requests=8,
                        settle_requests=8, recovery_ticks=2,
                        interval_ms=3_600_000.0)
    capped, controlled = _serve_waves(suite, budget)
    capped_j = controlled["energy_j"] / capped
    # the subsystem's stated invariants: less energy per served request
    # than uncontrolled, with goodput left
    assert capped_j < base_j
    assert capped > 0
    # ... and the committed values (40 served means 56 shed)
    assert [served, capped] == [96, 40]
    assert controlled["shed_requests"] == 56
    assert [f"{base_j:.1f}", f"{capped_j:.1f}"] == ["183.6", "159.1"]
    assert f"{budget.energy_budget_j:.1f}" == "110.1"
    assert f"{controlled['carbon_g'] / capped * 1e3:.2f}" == "17.67"
    assert f"{1.0 - capped_j / base_j:.0%}" == "13%"
    # ladder moves only
    assert controlled["budget_transitions_detail"] == {
        "edgehome:down:reduced-k": 1, "edgehome:down:shed": 4,
        "edgehome:up:reduced-k": 3}


def test_a_rung_move_is_one_transition_and_one_marker():
    """Each ladder move lands once in ``budget_transitions`` and once as
    a ``budget`` marker span, keyed alike; nothing else lands in the
    trace, and a move clamped at the ladder's edge records nothing."""
    suite = load_suite("edgehome", n_queries=2)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        spec = BudgetSpec(energy_budget_j=1e6, interval_ms=600_000.0)
        config = ServingSpec(max_batch_size=4, budget=spec, obs=ObsSpec())
        async with Gateway(sessions, config=config) as gateway:
            sink = gateway.tracer.sink
            controller, session = gateway.budget, sessions.get("home")
            assert controller._step(session, -1) is None
            assert [controller._step(session, +1) for _ in range(3)] == [
                "reduced-k", "shed", None]
            assert controller._step(session, -1) == "reduced-k"
            detail = gateway.metrics()["budget_transitions_detail"]
            assert detail == {"home:down:reduced-k": 1, "home:down:shed": 1,
                              "home:up:reduced-k": 1}
            assert Counter(
                f"{a['scope']}:{a['direction']}:{a['rung']}"
                for a in (span.attributes for span in sink.spans())) == detail
            assert {span.name for span in sink.spans()} == {"budget"}

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
        config = ServingSpec(max_batch_size=2,
                             budget=spec)
        async with Gateway(sessions, config=config) as gateway:
            query = suite.queries[0]
            descent = []
            for _ in range(2):
                await gateway.submit("home", query)
                gateway.budget.tick()
                descent.append(gateway.rung("home"))
            assert descent == ["reduced-k", "shed"]
            with pytest.raises(TenantShedError):
                await gateway.submit("home", query)

            # probation: quiet ticks count toward one step back up
            gateway.budget.tick()
            assert gateway.rung("home") == "shed"
            gateway.budget.tick()
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
            gateway.budget.tick()   # over budget: settle mark = 4
            assert gateway.rung("t") == "reduced-k"
            lifetime_j = gateway.metrics()["energy_j_by_tenant"]["t"]

            sessions.deregister("t")
            sessions.register("t", new)
            status = gateway.budget_status("t")
            assert status["window_requests"] == 0
            assert status["mean_energy_j"] == 0.0
            gateway.budget.tick()
            assert gateway.rung("t") == "full"
            # lifetime counters are not per-incarnation state
            assert gateway.metrics()["energy_j_by_tenant"]["t"] == lifetime_j

            # the fresh tenant's own requests do steer it, and exactly
            # once its own window has filled
            for query in new.queries[:3]:
                await gateway.submit("t", query)
            gateway.budget.tick()
            assert gateway.rung("t") == "full"
            await gateway.submit("t", new.queries[3])
            assert gateway.budget_status("t")["window_requests"] == 4
            gateway.budget.tick()
            assert gateway.rung("t") == "reduced-k"

    asyncio.run(scenario())


def test_budget_status_surface():
    """``Gateway.budget_status`` exposes the spent window and the budgets
    so the HTTP status endpoint can render them."""
    suite = load_suite("edgehome", n_queries=2)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        spec = BudgetSpec(energy_budget_j=1e6,
                          window_requests=4, interval_ms=600_000.0)
        config = ServingSpec(max_batch_size=4,
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
            # gCO₂ is attributed, never budgeted
            assert "carbon_budget_g" not in status

    asyncio.run(scenario())


def test_unbudgeted_gateway_still_meters():
    """Every gateway runs the EnergyMeter; the controller is opt-in."""
    suite = load_suite("edgehome", n_queries=1)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        config = ServingSpec(max_batch_size=2)
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
