"""The gateway as a state machine: control-plane operations in any order.

A Hypothesis ``RuleBasedStateMachine`` drives one live :class:`Gateway`
(batch worker inline, one event loop owned by the machine) through
DELETE + PUT of a tenant name, catalog hot-swaps, direct ladder moves
and budget-controller ticks with chosen readings.  The bugs this hunts
have the shape "operation A, then B, then a request", so every step is
one operation followed by a burst of requests (``then``, possibly
empty), submitted without awaiting and then drained.  Every rule runs
to completion, so each shrunk failure replays step by step.

The model is the spec: per tenant its suite, registration, catalog
variant, ladder rung, trace-id repeats, energy-window count and
budget streaks, plus the plan-cache keys served so far.  After every
step the gateway's rung, shed flag, scheme override and budget window
equal the model's; every burst resolves each future
exactly once, every trace id carries the model's repeat, plan-cache hits
and misses are the model's, and every served episode is bitwise the
sequential run against the catalog it was leased with.

Tier-1 runs a fixed, bounded search; ``make test-chaos`` runs a longer
random one (``--hypothesis-profile=chaos``, see ``conftest.py``).
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from functools import cache

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.embedding.cache import CachedEmbedder
from repro.evaluation.runner import ExperimentRunner
from repro.obs.trace import request_trace_id
from repro.power.budget import RUNGS
from repro.serving import (
    Gateway,
    ServingResponse,
    SessionManager,
    TenantShedError,
)
from repro.specs import BudgetSpec, ServingSpec
from repro.suites import load_suite

MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"
NAMES = ("t0", "t1")
SUITES = ("edgehome", "geoengine")
VARIANTS = ("full", "compressed")
N_QUERIES = 4
#: the scheme default traffic runs at each serving rung (shed serves none)
SCHEMES = ("lis-k3", "lis-k1")
SHED = len(RUNGS) - 1
#: budget readings: 1 µJ is below every served window's mean, 1 GJ above
BUDGETS = {
    reading: BudgetSpec(energy_budget_j=budget_j, window_requests=2,
                        settle_requests=1, recovery_ticks=2,
                        interval_ms=600_000.0)
    for reading, budget_j in (("over", 1e-6), ("under", 1e9))}
WINDOW = BUDGETS["over"].window_requests
EMBEDDER = CachedEmbedder()
#: a burst: (tenant, query index) pairs
BURSTS = st.sets(st.tuples(st.sampled_from(NAMES),
                           st.integers(0, N_QUERIES - 1)))


@cache
def _suite(name: str):
    return load_suite(name, n_queries=N_QUERIES)


@cache
def _reference(suite: str, variant: str, scheme: str) -> dict:
    """qid -> the sequential episode over ``suite`` at ``variant``."""
    base = _suite(suite)
    runner = ExperimentRunner(base.with_catalog(base.catalog.at(variant)),
                              embedder=EMBEDDER)
    return {episode.qid: episode
            for episode in runner.run(scheme, MODEL, QUANT).episodes}


@dataclass
class Tenant:
    """The model of one registration."""

    suite: str
    registration: int
    variant: str = "full"
    rung: int = 0
    repeats: dict[str, int] = field(default_factory=dict)
    served: int = 0
    clear_streak: int = 0
    shed_streak: int = 0
    settle_mark: int = 0

    def step(self, direction: int) -> int | None:
        """The controller's step: clamp at the edges, mark the window."""
        new = min(max(self.rung + direction, 0), SHED)
        if new == self.rung:
            return None
        self.rung = new
        self.settle_mark = self.served
        return new


class GatewayMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.sessions = SessionManager(embedder=EMBEDDER)
        self.registrations = itertools.count()
        self.model: dict[str, Tenant] = {}
        for name, suite in zip(NAMES, SUITES):
            self._register(name, suite)
        self.gateway = Gateway(
            self.sessions, config=ServingSpec(plan_cache_size=256,
                                              budget=BUDGETS["over"]))
        self.loop.run_until_complete(self.gateway.start())
        self.plan_keys: set[tuple] = set()

    def teardown(self):
        self.loop.run_until_complete(self.gateway.stop())
        self.loop.close()

    def _register(self, name: str, suite: str) -> None:
        self.sessions.register(name, _suite(suite))
        self.model[name] = Tenant(suite, next(self.registrations))

    def _drain(self, then) -> None:
        """Submit the burst without awaiting, drain it, check each reply."""
        burst = sorted(then)
        qids = [_suite(self.model[name].suite).queries[index].qid
                for name, index in burst]
        before = self.gateway.metrics()

        async def drain():
            return await asyncio.gather(*(
                self.gateway.submit(name, qid)
                for (name, _), qid in zip(burst, qids)),
                return_exceptions=True)

        results = self.loop.run_until_complete(drain())
        assert len(results) == len(burst)
        assert self.gateway.scheduler.pending == 0
        hits = misses = 0
        served_keys = []
        for (name, _), qid, result in zip(burst, qids, results):
            tenant = self.model[name]
            if tenant.rung == SHED:
                assert isinstance(result, TenantShedError), result
                continue
            assert isinstance(result, ServingResponse), result
            repeat = tenant.repeats.get(qid, 0)
            tenant.repeats[qid] = repeat + 1
            assert result.trace_id == request_trace_id(name, qid, repeat)
            scheme = SCHEMES[tenant.rung]
            assert result.episode == _reference(
                tenant.suite, tenant.variant, scheme)[qid]
            key = (tenant.registration, tenant.variant, qid, scheme)
            if key in self.plan_keys:
                hits += 1
            else:
                misses += 1
                served_keys.append(key)
            tenant.served += 1
        self.plan_keys.update(served_keys)
        after = self.gateway.metrics()
        assert (after["plan_cache_hits"] - before["plan_cache_hits"],
                after["plan_cache_misses"] - before["plan_cache_misses"]) \
            == (hits, misses)

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------
    @rule(name=st.sampled_from(NAMES), suite=st.sampled_from(SUITES),
          then=BURSTS)
    def reregister(self, name, suite, then):
        """DELETE + PUT: the same name, possibly another suite."""
        self.sessions.deregister(name)
        self._register(name, suite)
        self._drain(then)

    @rule(name=st.sampled_from(NAMES), variant=st.sampled_from(VARIANTS),
          then=BURSTS)
    def update_catalog(self, name, variant, then):
        tenant = self.model[name]
        self.gateway.update_catalog(
            name, _suite(tenant.suite).catalog.at(variant))
        tenant.variant = variant
        self._drain(then)

    @rule(name=st.sampled_from(NAMES), direction=st.sampled_from((+1, -1)),
          then=BURSTS)
    def ladder(self, name, direction, then):
        """Step the tenant a rung down or up, as the controller does."""
        moved = self.model[name].step(direction)
        assert self.gateway.budget._step(
            self.sessions.get(name), direction) == (
            None if moved is None else RUNGS[moved])
        self._drain(then)

    # ------------------------------------------------------------------
    # the controller
    # ------------------------------------------------------------------
    @rule(reading=st.sampled_from(sorted(BUDGETS)), then=BURSTS)
    def budget_tick(self, reading, then):
        self.gateway.budget.spec = BUDGETS[reading]
        self.gateway.budget.tick()
        for tenant in self.model.values():
            self._budget_tick(tenant, over=reading == "over")
        self._drain(then)

    @staticmethod
    def _budget_tick(tenant: Tenant, over: bool) -> None:
        recovery = BUDGETS["over"].recovery_ticks
        if tenant.rung == SHED:
            # a shed tenant gets probation: a step up every few ticks
            tenant.shed_streak += 1
            if tenant.shed_streak >= recovery:
                tenant.shed_streak = 0
                tenant.step(-1)
            return
        tenant.shed_streak = 0
        if not tenant.served or tenant.served == tenant.settle_mark:
            return  # nothing in the window, or nothing since the move
        if over:
            tenant.clear_streak = 0
            tenant.step(+1)
        elif tenant.rung:
            tenant.clear_streak += 1
            if tenant.clear_streak >= recovery:
                tenant.clear_streak = 0
                tenant.step(-1)
        else:
            tenant.clear_streak = 0

    # ------------------------------------------------------------------
    # the spec
    # ------------------------------------------------------------------
    @invariant()
    def control_plane_matches_model(self):
        gateway = self.gateway
        assert sorted(self.sessions.tenant_names) == sorted(self.model)
        for name, tenant in self.model.items():
            rung = RUNGS[tenant.rung]
            assert gateway.rung(name) == rung
            assert gateway.is_shed(name) == (rung == "shed")
            assert gateway.scheme_override(name) == (
                None if rung == "full" else SCHEMES[1])
            status = gateway.budget_status(name)
            assert status["window_requests"] == min(tenant.served, WINDOW)
            assert (status["window_energy_j"] > 0.0) == (tenant.served > 0)


TestGatewayStateMachine = GatewayMachine.TestCase
if settings.get_current_profile_name() != "chaos":
    TestGatewayStateMachine.settings = settings(
        max_examples=20, stateful_step_count=10, derandomize=True,
        database=None, deadline=None,
        suppress_health_check=list(HealthCheck))
