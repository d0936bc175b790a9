"""The serving ladder: the budget controller walks it down and back up.

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
from test_tools_catalog import subset

from repro.embedding.cache import CachedEmbedder
from repro.evaluation.runner import ExperimentRunner
from repro.obs.cost import plan_tool_tokens
from repro.power.budget import REDUCED_K_SCHEME, RUNGS
from repro.serving import Gateway, SessionManager, TenantShedError
from repro.specs import BudgetSpec, ServingSpec
from repro.suites import load_suite

_DEFAULTS = ServingSpec()
MODEL, QUANT = _DEFAULTS.default_model, _DEFAULTS.default_quant
FULL_SCHEME = _DEFAULTS.default_scheme                   # lis-k3
REDUCED_SCHEME = REDUCED_K_SCHEME                        # lis-k1

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


#: budget readings: 1 µJ is below every served window's mean, 1 GJ above;
#: one fresh request is evidence enough, one clear tick a recovery
BUDGETS = {
    reading: BudgetSpec(energy_budget_j=budget_j, window_requests=2,
                        settle_requests=1, recovery_ticks=1,
                        interval_ms=600_000.0)
    for reading, budget_j in (("over", 1e-6), ("under", 1e9))}


async def budget_move(gateway, reading: str, query) -> str:
    """Serve ``query`` (the window's fresh evidence), then one budget
    tick at ``reading``; returns the tenant's new rung."""
    await gateway.submit("home", query)
    gateway.budget.spec = BUDGETS[reading]
    gateway.budget.tick()
    return gateway.rung("home")


def test_ladder_down_to_shed_and_back_up():
    """Over budget walks full→reduced-k→shed; under budget walks back
    up — through a shed tenant's probation — and no future ever hangs on
    the way."""
    suite = load_suite("edgehome", n_queries=6)
    spec = BUDGETS["over"].replace(recovery_ticks=2)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        config = ServingSpec(max_batch_size=4, budget=spec)
        async with Gateway(sessions, config=config) as gateway:
            controller = gateway.budget
            assert gateway.rung("home") == "full"

            # -- down the ladder, one rung per over-budget window
            down = []
            for query in suite.queries[:2]:
                await gateway.submit("home", query)
                controller.tick()
                down.append(gateway.rung("home"))
            assert down == ["reduced-k", "shed"]
            # the override outlives the step to shed; the catalog is
            # nobody's but the operator's
            assert gateway.scheme_override("home") == "lis-k1"
            assert sessions.get("home").suite.catalog is suite.catalog

            # shed tenants are rejected at admission, not queued
            with pytest.raises(TenantShedError):
                await gateway.submit("home", suite.queries[0])

            # a step past the bottom rung is clamped: nothing moves
            assert controller._step(sessions.get("home"), +1) is None
            assert gateway.rung("home") == "shed"

            # -- recovery: recovery_ticks ticks per upward step, a
            # shed tenant's on probation, the others' under budget
            controller.spec = spec.replace(energy_budget_j=1e9)
            up = []
            for _ in range(2):
                controller.tick()
                up.append(gateway.rung("home"))
            await gateway.submit("home", suite.queries[2])
            for _ in range(2):
                controller.tick()
                up.append(gateway.rung("home"))
            assert up == ["shed", "reduced-k", "reduced-k", "full"]
            assert gateway.scheme_override("home") is None

            # fully recovered: requests serve normally again
            response = await gateway.submit("home", suite.queries[0])
            assert response.episode is not None
            return gateway.metrics(), gateway.rung("home")

    metrics, rung = asyncio.run(scenario())
    assert rung == "full"
    assert metrics["shed_requests_by_tenant"] == {"home": 1}
    # 2 down + 2 up transitions, each one counted with its direction
    assert metrics["budget_transitions"] == 4
    detail = metrics["budget_transitions_detail"]
    assert detail["home:down:shed"] == 1
    assert detail["home:up:full"] == 1


def test_reduced_k_rung_reroutes_default_scheme():
    suite = load_suite("edgehome", n_queries=4)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        config = ServingSpec(budget=BUDGETS["over"])
        async with Gateway(sessions, config=config) as gateway:
            assert await budget_move(
                gateway, "over", suite.queries[0]) == "reduced-k"
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


def test_background_loops_tick_on_the_event_loop():
    """The budget controller's ticks write the rung ``submit`` reads on
    the event loop, so that is where they run."""
    suite = load_suite("edgehome", n_queries=4)
    budget = BudgetSpec(energy_budget_j=1e9, interval_ms=5.0)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        seen = []

        async with Gateway(sessions,
                           config=ServingSpec(budget=budget)) as gateway:
            await gateway.submit("home", suite.queries[0])
            tick = gateway.budget.tick

            def spy(**kwargs):
                seen.append(threading.get_ident())
                return tick(**kwargs)
            gateway.budget.tick = spy
            await asyncio.sleep(0.08)
        return seen

    seen = asyncio.run(scenario())
    assert seen
    assert set(seen) == {threading.get_ident()}


def test_operator_catalog_survives_a_ladder_cycle():
    """No controller restores a catalog: what an operator hot-swapped in
    — while the tenant was degraded, or after it recovered — is what the
    tenant serves after every later ladder move, and every episode
    equals the sequential run on the operator's catalog."""
    suite = load_suite("edgehome", n_queries=6)
    referenced = {call.tool
                  for query in (*suite.queries, *suite.train_queries)
                  for call in query.gold_calls}
    operator = subset(suite.catalog, referenced)
    assert (len(operator), len(suite.catalog)) == (21, 32)
    runner = ExperimentRunner(suite.with_catalog(operator),
                              embedder=CachedEmbedder())
    reference = {
        scheme: {episode.qid: dataclasses.asdict(episode)
                 for episode in runner.run(scheme, MODEL, QUANT).episodes}
        for scheme in (FULL_SCHEME, REDUCED_SCHEME)}

    async def scenario(moves_before_swap, moves_after_swap):
        sessions = SessionManager()
        sessions.register("home", suite)
        config = ServingSpec(budget=BUDGETS["over"])
        async with Gateway(sessions, config=config) as gateway:
            for reading in moves_before_swap:
                await budget_move(gateway, reading, suite.queries[0])
            gateway.update_catalog("home", operator)
            for reading in moves_after_swap:
                await budget_move(gateway, reading, suite.queries[0])
                catalog = sessions.get("home").suite.catalog
                assert (len(catalog), catalog.version) == (
                    21, operator.version)
                scheme = gateway.scheme_override("home") or FULL_SCHEME
                for query in suite.queries:
                    response = await gateway.submit("home", query)
                    assert (dataclasses.asdict(response.episode)
                            == reference[scheme][query.qid])
            return gateway.rung("home")

    # swapped while degraded, then recovered
    assert asyncio.run(scenario(["over"], ["under"])) == "full"
    # down and up, swapped at rest, then down again and back
    assert asyncio.run(scenario(["over", "under"],
                                ["over", "under"])) == "full"


def test_variant_catalog_tenant_walks_the_same_ladder():
    """Every tenant has the one ladder, whatever catalog variant it was
    registered with — and the ladder leaves that catalog alone."""
    base = load_suite("edgehome", n_queries=4)
    compressed = base.with_catalog(base.catalog.at("compressed"))

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", compressed)
        config = ServingSpec(budget=BUDGETS["over"])
        async with Gateway(sessions, config=config) as gateway:
            assert await budget_move(
                gateway, "over", compressed.queries[0]) == "reduced-k"
            assert await budget_move(
                gateway, "over", compressed.queries[1]) == "shed"
            # catalog untouched the whole way
            assert sessions.get("home").suite.catalog.variant == "compressed"

    asyncio.run(scenario())


if __name__ == "__main__":
    for name in SUITE_NAMES:
        print(f"{name!r}: {{")
        for config, row in measure_rungs(name).items():
            print(f"    {config!r}: {row},")
        print("},")
