"""Chaos suite: deterministic fault injection and contained failure.

The acceptance contract: a stalled batch costs nothing but latency —
without a deadline every request still completes with an episode
bitwise identical to the sequential
:class:`~repro.evaluation.runner.ExperimentRunner` path — a deadline
turns the stall into a 504-shaped :class:`DeadlineExceededError`, and an
injected executor exception fails only the requests of its group.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.embedding.cache import CachedEmbedder
from repro.evaluation.runner import ExperimentRunner
from repro.obs import MemorySink, Tracer
from repro.serving import (
    DeadlineExceededError,
    FaultInjector,
    Gateway,
    InjectedFaultError,
    SessionManager,
    run_load,
)
from repro.serving.faults import as_injector
from repro.specs import FaultPlan, ServingSpec
from repro.suites import load_suite

MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"


# ----------------------------------------------------------------------
# FaultPlan / FaultInjector unit behavior
# ----------------------------------------------------------------------
def test_fault_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(slow_batch_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(exception_rate=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(slow_batch_ms=-1.0)
    assert FaultPlan().is_empty
    assert not FaultPlan(exception_rate=0.5).is_empty


def test_fault_decisions_are_deterministic_per_plan():
    plan = FaultPlan(seed=7, exception_rate=0.5)
    first = [FaultInjector(plan).decide("gateway.group")]
    injector_a, injector_b = FaultInjector(plan), FaultInjector(plan)
    seq_a = [injector_a.decide("gateway.group") for _ in range(64)]
    seq_b = [injector_b.decide("gateway.group") for _ in range(64)]
    assert seq_a == seq_b
    assert seq_a[0] == first[0]
    fired = [action for action in seq_a if action is not None]
    assert fired, "a 50% rate fired nothing in 64 draws"
    assert all(action.kind == "raise" for action in fired)
    # a different seed produces a different (still reproducible) sequence
    other = FaultInjector(FaultPlan(seed=8, exception_rate=0.5))
    seq_other = [other.decide("gateway.group") for _ in range(64)]
    assert [a is None for a in seq_other] != [a is None for a in seq_a]


def test_fault_hooks_are_independent_streams():
    plan = FaultPlan(seed=3, slow_batch_rate=0.5, slow_batch_ms=10.0,
                     exception_rate=0.5)
    interleaved = FaultInjector(plan)
    alone = FaultInjector(plan)
    # interleaving draws at another hook must not shift this hook's stream
    raise_interleaved = []
    for _ in range(32):
        interleaved.decide("batch.process")
        raise_interleaved.append(interleaved.decide("gateway.group"))
    raise_alone = [alone.decide("gateway.group") for _ in range(32)]
    assert raise_interleaved == raise_alone


def test_unknown_hook_rejected():
    injector = FaultInjector(FaultPlan(exception_rate=1.0))
    with pytest.raises(ValueError, match="unknown fault hook"):
        injector.decide("no.such.hook")


def test_as_injector_normalization():
    assert as_injector(None) is None
    assert as_injector(FaultPlan()) is None  # empty plan: no hot-path checks
    injector = as_injector(FaultPlan(exception_rate=1.0))
    assert isinstance(injector, FaultInjector)


def test_builtin_hooks_registered():
    """The injector's own table is the hook list: ``decide`` accepts
    exactly the two hooks and rejects a third, naming them."""
    hooks = ("batch.process", "gateway.group")
    injector = FaultInjector(FaultPlan(slow_batch_rate=1.0,
                                       exception_rate=1.0))
    assert [injector.decide(hook).hook for hook in hooks] == list(hooks)
    with pytest.raises(ValueError) as excinfo:
        injector.decide("my.stage")
    for hook in hooks:
        assert hook in str(excinfo.value)
    assert sorted(FaultInjector._HOOK_RATES) == sorted(hooks)


# ----------------------------------------------------------------------
# chaos: stalled batches and end-to-end deadlines
# ----------------------------------------------------------------------
def test_slow_batches_without_a_deadline_serve_bitwise():
    """A stall is recoverable: with no deadline armed every request of a
    half-stalled load completes, bitwise equal to the sequential runner."""
    suite = load_suite("edgehome", n_queries=8)
    reference = {
        episode.qid: episode
        for episode in ExperimentRunner(suite, embedder=CachedEmbedder())
        .run("lis-k3", MODEL, QUANT).episodes
    }

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        config = ServingSpec(max_batch_size=4, faults=FaultPlan(
            seed=11, slow_batch_rate=0.5, slow_batch_ms=20.0))
        async with Gateway(sessions, config=config) as gateway:
            responses = await asyncio.gather(*(
                gateway.submit("home", query) for query in suite.queries
            ))
            return responses, gateway.metrics()

    responses, metrics = asyncio.run(scenario())
    for response in responses:
        assert response.episode == reference[response.episode.qid]
    assert metrics["requests_failed"] == 0
    assert metrics["faults_injected_by_hook"].get("batch.process", 0) >= 1


def test_slow_batch_fault_trips_deadline():
    suite = load_suite("edgehome", n_queries=4)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        config = ServingSpec(max_batch_size=2, timeout_ms=150.0,
                             faults=FaultPlan(seed=1, slow_batch_rate=1.0,
                                              slow_batch_ms=600.0))
        async with Gateway(sessions, config=config) as gateway:
            with pytest.raises(DeadlineExceededError):
                await gateway.submit("home", suite.queries[0])
            return gateway.metrics()

    metrics = asyncio.run(scenario())
    assert metrics["deadline_timeouts"] == 1
    assert metrics["faults_injected_by_hook"].get("batch.process", 0) >= 1


def test_per_request_timeout_overrides_config():
    suite = load_suite("edgehome", n_queries=4)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        # config deadline is absurdly tight; the per-request override wins
        config = ServingSpec(max_batch_size=2,
                             timeout_ms=0.001)
        async with Gateway(sessions, config=config) as gateway:
            response = await gateway.submit("home", suite.queries[0],
                                            timeout_ms=30_000.0)
            return response

    response = asyncio.run(scenario())
    assert response.episode is not None


# ----------------------------------------------------------------------
# chaos: injected executor exceptions stay contained
# ----------------------------------------------------------------------
def test_injected_exception_fails_only_that_request():
    suite = load_suite("edgehome", n_queries=8)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        # every other group raises (the stream under seed 5 mixes hits
        # and misses); surviving requests must still complete
        config = ServingSpec(max_batch_size=4,
                             faults=FaultPlan(seed=5, exception_rate=0.5))
        async with Gateway(sessions, config=config) as gateway:
            outcomes = await asyncio.gather(
                *(gateway.submit("home", query) for query in suite.queries),
                return_exceptions=True)
            return outcomes, gateway.metrics()

    outcomes, metrics = asyncio.run(scenario())
    injected = [o for o in outcomes if isinstance(o, InjectedFaultError)]
    served = [o for o in outcomes if not isinstance(o, BaseException)]
    assert len(injected) + len(served) == len(outcomes), \
        f"unexpected failure kinds: {outcomes}"
    assert metrics["faults_injected_by_hook"].get("gateway.group", 0) >= 1
    assert metrics["requests_completed"] == len(served)
    assert metrics["requests_failed"] == len(injected)


def test_run_load_reports_after_the_gateway_drained():
    """The plan and deadline of ``examples/specs/chaos_deadline.json``:
    the stalled batch outlives its requests' deadlines, so its
    ``gateway.group`` fault fires after the last client returned.  The
    report must still be the gateway's telemetry once stop() drained,
    and every injected fault must surface as a ``fault`` span at its
    hook."""
    sink = MemorySink()
    config = ServingSpec(timeout_ms=100.0, faults=FaultPlan(
        seed=3, slow_batch_rate=0.25, slow_batch_ms=250.0,
        exception_rate=0.3))
    sessions = SessionManager()
    sessions.register("edgehome", load_suite("edgehome"))
    gateway = Gateway(sessions, config=config, tracer=Tracer(sink))
    report = run_load(gateway, n_requests=64, concurrency=8,
                      tolerate_errors=True)

    def counters(metrics):
        return {key: value for key, value in metrics.items()
                if key not in ("uptime_s", "snapshot_seq")}

    assert report.gateway_metrics["deadline_timeouts"] >= 1
    assert counters(report.gateway_metrics) == counters(gateway.metrics())
    assert report.cost == gateway.costs()
    fault_hooks = {span.attributes["hook"] for span in sink.spans()
                   if span.name == "fault"}
    assert fault_hooks == set(report.gateway_metrics["faults_injected_by_hook"])
    assert report.failures(config) == []


def test_config_validation_for_fault_tolerance_knobs():
    with pytest.raises(ValueError):
        ServingSpec(timeout_ms=0.0)
    assert ServingSpec(timeout_ms=250.0).timeout_s == 0.25
    assert ServingSpec().timeout_s is None
