"""The degradation controller: down the CarbonCall ladder and back up.

Also the law the ladder's shape was decided by: per-rung tool tokens,
joules, success and Level-3 rate on all four suites, pinned exactly.
``PYTHONPATH=src python tests/test_serving_degrade.py`` prints the table
(the README's per-rung table, regenerated).
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading

import pytest

from repro.embedding.cache import CachedEmbedder
from repro.evaluation.runner import ExperimentRunner
from repro.obs.cost import plan_tool_tokens
from repro.serving import (
    DegradationController,
    DegradationPolicy,
    Gateway,
    SessionManager,
    TenantShedError,
)
from repro.serving.degrade import RUNGS
from repro.specs import BudgetSpec, ServingSpec
from repro.suites import load_suite

_DEFAULTS = ServingSpec()
MODEL, QUANT = _DEFAULTS.default_model, _DEFAULTS.default_quant
FULL_SCHEME = _DEFAULTS.default_scheme                   # lis-k3
REDUCED_SCHEME = DegradationPolicy().reduced_k_scheme    # lis-k1

#: what a tenant serves at each rung, as (catalog variant, scheme).  The
#: first two are the ladder (``shed`` serves nothing); the rest are
#: reported only — the retired catalog rungs, the old fourth rung, and
#: the ``lis-k2`` alternative the README lists beside them
RUNG_CONFIGS = {
    "full": ("full", FULL_SCHEME),
    "reduced-k": ("full", REDUCED_SCHEME),
    "compressed": ("compressed", FULL_SCHEME),
    "minimal": ("minimal", FULL_SCHEME),
    "minimal+reduced-k": ("minimal", REDUCED_SCHEME),
    "lis-k2": ("full", "lis-k2"),
}
RUNG_QUERIES = 200
SUITE_NAMES = ("edgehome", "geoengine", "bfcl", "browser")

#: suite -> config -> (tool tokens/request, J/request, successes,
#: Level-3 plans) over the first RUNG_QUERIES queries
RUNG_TABLE = {
    "edgehome": {
        "full": (463.4, 184.5, 169, 0),
        "reduced-k": (127.4, 154.0, 147, 0),
        "compressed": (448.7, 183.5, 169, 0),
        "minimal": (498.2, 185.6, 165, 1),
        "minimal+reduced-k": (144.4, 152.7, 149, 1),
        "lis-k2": (263.2, 166.4, 160, 0),
    },
    "geoengine": {
        "full": (1856.2, 680.8, 114, 0),
        "reduced-k": (408.8, 477.5, 14, 0),
        "compressed": (1779.1, 673.4, 115, 0),
        "minimal": (1170.5, 555.2, 69, 0),
        "minimal+reduced-k": (410.2, 444.2, 19, 0),
        "lis-k2": (1118.3, 580.7, 79, 0),
    },
    "bfcl": {
        "full": (513.5, 172.2, 162, 0),
        "reduced-k": (145.3, 144.0, 172, 0),
        "compressed": (473.1, 169.5, 162, 0),
        "minimal": (402.3, 156.8, 164, 0),
        "minimal+reduced-k": (124.9, 134.8, 171, 0),
        "lis-k2": (310.7, 156.9, 164, 0),
    },
    "browser": {
        "full": (1093.7, 461.2, 148, 0),
        "reduced-k": (240.5, 342.1, 13, 0),
        "compressed": (1043.0, 456.4, 148, 0),
        "minimal": (1067.0, 454.3, 153, 0),
        "minimal+reduced-k": (326.5, 358.7, 33, 0),
        "lis-k2": (717.5, 411.0, 114, 0),
    },
}


def measure_rungs(suite_name: str) -> dict:
    """One :data:`RUNG_TABLE` entry: plan + ``run_planned`` every query
    under every configuration, sequentially (no gateway, no clock)."""
    base = load_suite(suite_name, n_queries=RUNG_QUERIES)
    runners = {
        variant: ExperimentRunner(
            base if variant == "full"
            else base.with_catalog(base.catalog.at(variant)),
            embedder=CachedEmbedder())
        for variant in ("full", "compressed", "minimal")}
    rows = {}
    for config, (variant, scheme) in RUNG_CONFIGS.items():
        agent = runners[variant].make_agent(scheme, MODEL, QUANT)
        plans = agent.plan_batch(base.queries)
        episodes = agent.run_planned_many(base.queries, plans)
        n = len(episodes)
        rows[config] = (
            round(sum(plan_tool_tokens(plan) for plan in plans) / n, 1),
            round(sum(episode.energy_j for episode in episodes) / n, 1),
            sum(episode.success for episode in episodes),
            sum(plan.level == 3 for plan in plans))
    return rows


def law_violations(rows: dict, ladder: tuple[str, ...]) -> list[tuple]:
    """Steps of ``ladder`` that do not cost strictly fewer tool tokens
    *and* strictly fewer joules per request than the rung above."""
    return [(upper, lower) for upper, lower in zip(ladder, ladder[1:])
            if not (rows[lower][0] < rows[upper][0]
                    and rows[lower][1] < rows[upper][1])]


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
def test_each_rung_down_costs_strictly_less(suite_name):
    rows = measure_rungs(suite_name)
    assert rows == RUNG_TABLE[suite_name]
    rows["shed"] = (0.0, 0.0, 0, 0)   # rejected at admission: no episode
    assert law_violations(rows, RUNGS) == []


def test_the_retired_catalog_rungs_fail_the_law():
    """Why the ladder lost them: with ``minimal`` as a rung, a step down
    costs *more* tool tokens and joules on edgehome (terser descriptions
    retrieve wider sets and fall back to Level 3), and more tool tokens
    on browser."""
    old_ladder = ("full", "compressed", "minimal", "minimal+reduced-k")
    assert {suite: law_violations(rows, old_ladder)
            for suite, rows in RUNG_TABLE.items()} == {
        "edgehome": [("compressed", "minimal")],
        "geoengine": [], "bfcl": [],
        "browser": [("compressed", "minimal")]}



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
    """Sustained pressure walks full→reduced-k→shed; sustained calm walks
    back up — and no future ever hangs on the way."""
    suite = load_suite("edgehome", n_queries=6)
    policy = DegradationPolicy(queue_high=4, queue_low=0, recovery_ticks=2,
                               reduced_k_scheme="lis-k1")

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        config = ServingSpec(max_batch_size=4)
        async with Gateway(sessions, config=config,
                           degradation=policy) as gateway:
            controller = gateway.degradation
            assert isinstance(controller, DegradationController)
            assert controller.rung("home") == "full"

            # -- down the ladder, one rung per high-pressure tick
            down = []
            for _ in range(2):
                controller.tick(depth=100)
                down.append(controller.rung("home"))
            assert down == ["reduced-k", "shed"]
            # the override outlives the step to shed; the catalog is
            # nobody's but the operator's
            assert gateway.scheme_override("home") == "lis-k1"
            assert sessions.get("home").suite.catalog is suite.catalog

            # shed tenants are rejected at admission, not queued
            with pytest.raises(TenantShedError):
                await gateway.submit("home", suite.queries[0])

            # a further high tick holds at the bottom rung
            controller.tick(depth=100)
            assert controller.rung("home") == "shed"

            # -- recovery: recovery_ticks clear ticks per upward step
            up = []
            for _ in range(4):
                controller.tick(depth=0)
                up.append(controller.rung("home"))
            assert up == ["shed", "reduced-k", "reduced-k", "full"]
            assert gateway.scheme_override("home") is None

            # fully recovered: requests serve normally again
            response = await gateway.submit("home", suite.queries[0])
            assert response.episode is not None
            return gateway.metrics(), controller.status()

    metrics, status = asyncio.run(scenario())
    assert status == {"home": "full"}
    assert metrics["shed_requests_by_tenant"] == {"home": 1}
    # 2 down + 2 up transitions, each one counted with its direction
    assert metrics["degrade_transitions"] == 4
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
        async with Gateway(sessions, config=ServingSpec(),
                           degradation=policy) as gateway:
            controller = gateway.degradation
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
            assert controller.rung("home") == "reduced-k"
            # alternating clear / middle ticks never complete a recovery
            for _ in range(6):
                controller.tick(depth=0)
                controller.tick(depth=4)
            assert controller.rung("home") == "reduced-k"
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
            assert controller.rung("home") == "reduced-k"
            # recovery needs the latency back under the bar too
            controller.tick(depth=0, p95_ms=500.0)
            assert controller.rung("home") == "shed"
            controller.tick(depth=0, p95_ms=1.0)
            assert controller.rung("home") == "reduced-k"

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


def test_background_loops_tick_on_the_event_loop():
    """Both controllers' ticks write state ``submit`` reads on the event
    loop, so that is where they run; only the pressure controller's p95
    reading (a telemetry snapshot) is taken off-loop and passed in."""
    suite = load_suite("edgehome", n_queries=4)
    policy = DegradationPolicy(interval_ms=5.0, p95_high_ms=1e9)
    budget = BudgetSpec(energy_budget_j=1e9, interval_ms=5.0)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        seen = []

        def spy_on(controller):
            tick = controller.tick

            def spy(**kwargs):
                seen.append((type(controller).__name__,
                             threading.get_ident(), kwargs))
                return tick(**kwargs)
            controller.tick = spy

        async with Gateway(sessions, config=ServingSpec(budget=budget),
                           degradation=policy) as gateway:
            await gateway.submit("home", suite.queries[0])
            spy_on(gateway.degradation)
            spy_on(gateway.budget)
            await asyncio.sleep(0.08)
        return seen

    seen = asyncio.run(scenario())
    assert {name for name, _, _ in seen} == {"DegradationController",
                                            "BudgetController"}
    assert {ident for _, ident, _ in seen} == {threading.get_ident()}
    assert all(isinstance(kwargs["p95_ms"], float)
               for name, _, kwargs in seen if name == "DegradationController")


def test_operator_catalog_survives_a_ladder_cycle():
    """No controller restores a catalog: what an operator hot-swapped in
    — while the tenant was degraded, or after it recovered — is what the
    tenant serves after every later ladder move, and every episode
    equals the sequential run on the operator's catalog."""
    suite = load_suite("edgehome", n_queries=6)
    referenced = {call.tool
                  for query in (*suite.queries, *suite.train_queries)
                  for call in query.gold_calls}
    operator = suite.catalog.subset(referenced)
    assert (len(operator), len(suite.catalog)) == (21, 32)
    runner = ExperimentRunner(suite.with_catalog(operator),
                              embedder=CachedEmbedder())
    reference = {
        scheme: {episode.qid: dataclasses.asdict(episode)
                 for episode in runner.run(scheme, MODEL, QUANT).episodes}
        for scheme in (FULL_SCHEME, REDUCED_SCHEME)}
    policy = DegradationPolicy(queue_high=4, queue_low=0, recovery_ticks=1)

    async def scenario(moves_before_swap, moves_after_swap):
        sessions = SessionManager()
        sessions.register("home", suite)
        async with Gateway(sessions, config=ServingSpec(),
                           degradation=policy) as gateway:
            controller = gateway.degradation
            for depth in moves_before_swap:
                controller.tick(depth=depth)
            gateway.update_catalog("home", operator)
            for depth in moves_after_swap:
                controller.tick(depth=depth)
                catalog = sessions.get("home").suite.catalog
                assert (len(catalog), catalog.version) == (
                    21, operator.version)
                scheme = gateway.scheme_override("home") or FULL_SCHEME
                for query in suite.queries:
                    response = await gateway.submit("home", query)
                    assert (dataclasses.asdict(response.episode)
                            == reference[scheme][query.qid])
            return controller.rung("home")

    # swapped while degraded, then recovered
    assert asyncio.run(scenario([100], [0])) == "full"
    # down and up, swapped at rest, then down again and back
    assert asyncio.run(scenario([100, 0], [100, 0])) == "full"


def test_variant_catalog_tenant_walks_the_same_ladder():
    """Every tenant has the one ladder, whatever catalog variant it was
    registered with — and the ladder leaves that catalog alone."""
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


if __name__ == "__main__":
    for name in SUITE_NAMES:
        print(f"{name!r}: {{")
        for config, row in measure_rungs(name).items():
            print(f"    {config!r}: {row},")
        print("},")
