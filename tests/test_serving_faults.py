"""Chaos suite: deterministic fault injection and supervised recovery.

The acceptance contract: a pool worker SIGKILLed mid-load must cost
nothing but latency — every in-flight request still completes with an
episode bitwise identical to the sequential
:class:`~repro.evaluation.runner.ExperimentRunner` path, the pool
respawns, and the recovery is visible in telemetry
(``worker_restarts``, ``inline_fallbacks``).
"""

from __future__ import annotations

import asyncio
import os
import threading
import time

import pytest

from repro.embedding.cache import CachedEmbedder, shared_embedder
from repro.evaluation.runner import ExperimentRunner
from repro.obs import MemorySink, Tracer
from repro.serving import (
    DeadlineExceededError,
    FaultInjector,
    FaultPlan,
    Gateway,
    InjectedFaultError,
    SessionManager,
    SupervisedEpisodeExecutor,
)
from repro.serving import process as process_module
from repro.serving.faults import as_injector
from repro.specs import ServingSpec
from repro.suites import load_suite

MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"
WORKERS = int(os.environ.get("REPRO_PROCESS_WORKERS", "2"))


# ----------------------------------------------------------------------
# FaultPlan / FaultInjector unit behavior
# ----------------------------------------------------------------------
def test_fault_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(worker_crash_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(exception_rate=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(slow_batch_ms=-1.0)
    assert FaultPlan().is_empty
    assert not FaultPlan(exception_rate=0.5).is_empty


def test_fault_decisions_are_deterministic_per_plan():
    plan = FaultPlan(seed=7, worker_crash_rate=0.4, exception_rate=0.5)
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
    plan = FaultPlan(seed=3, worker_crash_rate=0.5, slow_batch_rate=0.5,
                     slow_batch_ms=10.0)
    interleaved = FaultInjector(plan)
    alone = FaultInjector(plan)
    # interleaving draws at another hook must not shift this hook's stream
    crash_interleaved = []
    for _ in range(32):
        interleaved.decide("batch.process")
        crash_interleaved.append(interleaved.decide("process.execute"))
    crash_alone = [alone.decide("process.execute") for _ in range(32)]
    assert crash_interleaved == crash_alone


def test_unknown_hook_rejected():
    injector = FaultInjector(FaultPlan(exception_rate=1.0))
    with pytest.raises(ValueError, match="unknown fault hook"):
        injector.decide("no.such.hook")


def test_as_injector_normalization():
    assert as_injector(None) is None
    assert as_injector(FaultPlan()) is None  # empty plan: no hot-path checks
    injector = as_injector(FaultPlan(exception_rate=1.0))
    assert isinstance(injector, FaultInjector)
    assert as_injector(injector) is injector
    with pytest.raises(TypeError):
        as_injector("chaos")


def test_builtin_hooks_registered():
    """The injector's own table is the hook list: ``decide`` accepts
    exactly the three hooks and rejects a fourth, naming them."""
    hooks = ("process.execute", "batch.process", "gateway.group")
    injector = FaultInjector(FaultPlan(
        worker_crash_rate=1.0, slow_batch_rate=1.0, exception_rate=1.0))
    assert [injector.decide(hook).hook for hook in hooks] == list(hooks)
    with pytest.raises(ValueError) as excinfo:
        injector.decide("my.stage")
    for hook in hooks:
        assert hook in str(excinfo.value)
    assert sorted(FaultInjector._HOOK_RATES) == sorted(hooks)


# ----------------------------------------------------------------------
# chaos: worker death mid-load
# ----------------------------------------------------------------------
def test_worker_sigkill_mid_load_recovers_bitwise():
    """SIGKILL a pool worker under load: every request completes, bitwise
    identical to the sequential runner, and the pool respawns."""
    suite = load_suite("edgehome", n_queries=12)
    reference = {
        episode.qid: episode
        for episode in ExperimentRunner(suite, embedder=CachedEmbedder())
        .run("lis-k3", MODEL, QUANT).episodes
    }

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        config = ServingSpec(max_batch_size=4, max_wait_ms=2.0,
                             execution_workers=WORKERS)
        async with Gateway(sessions, config=config) as gateway:
            stage = gateway._process_stage
            assert isinstance(stage, SupervisedEpisodeExecutor)
            old_pids = stage.worker_pids()
            assert len(old_pids) == WORKERS
            # one warm-up round trip, then kill a worker under load
            await gateway.submit("home", suite.queries[0])
            assert stage.kill_one_worker() in old_pids
            responses = await asyncio.gather(*(
                gateway.submit("home", query) for query in suite.queries
            ))
            # wait for the async respawn to land a fresh generation
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and not stage.running:
                await asyncio.sleep(0.1)
            assert stage.running, "pool did not respawn"
            assert stage.worker_pids(), "respawned pool has no live workers"
            assert not set(stage.worker_pids()) & set(old_pids)
            # the respawned pool serves again, still bitwise
            post = await gateway.submit("home", suite.queries[0])
            return responses + [post], gateway.metrics()

    responses, metrics = asyncio.run(scenario())
    for response in responses:
        assert response.episode == reference[response.episode.qid]
    assert metrics["worker_restarts"] >= 1
    # every retired generation failed at least one slice, run inline
    assert metrics["inline_fallbacks"] >= metrics["worker_restarts"] >= 1
    assert metrics["requests_failed"] == 0


def test_supervised_executor_survives_crash_fault_plan():
    """The ``process.execute`` hook SIGKILLs workers; serving never fails."""
    suite = load_suite("edgehome", n_queries=8)
    reference = {
        episode.qid: episode
        for episode in ExperimentRunner(suite, embedder=CachedEmbedder())
        .run("lis-k3", MODEL, QUANT).episodes
    }

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        config = ServingSpec(max_batch_size=4, max_wait_ms=2.0,
                             execution_workers=WORKERS)
        faults = FaultPlan(seed=11, worker_crash_rate=0.5)
        async with Gateway(sessions, config=config, faults=faults) as gateway:
            responses = await asyncio.gather(*(
                gateway.submit("home", query) for query in suite.queries
            ))
            return responses, gateway.metrics()

    responses, metrics = asyncio.run(scenario())
    for response in responses:
        assert response.episode == reference[response.episode.qid]
    assert metrics["requests_failed"] == 0
    assert metrics["faults_injected_by_hook"].get("process.execute", 0) >= 1


# ----------------------------------------------------------------------
# chaos: what happens while a pool respawns
# ----------------------------------------------------------------------
def _reference(suite):
    return {episode.qid: episode
            for episode in ExperimentRunner(suite, embedder=CachedEmbedder())
            .run("lis-k3", MODEL, QUANT).episodes}


async def _force_respawn(gateway, tenant, query):
    """Kill the one worker, then serve one request: its slice fails, runs
    inline and starts the respawn."""
    assert gateway._process_stage.kill_one_worker() is not None
    await gateway.submit(tenant, query)


async def _until_running(stage, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while not stage.running:
        assert time.monotonic() < deadline, "pool did not respawn"
        await asyncio.sleep(0.05)


def test_uncover_during_respawn_survives_the_install(monkeypatch):
    """DELETE + PUT of a tenant name while a respawn is in flight: the
    replacement pool was primed from a snapshot taken *before* the
    DELETE, so installing it must not cover the name again — otherwise
    the workers serve the old suite, with no error."""
    old, new = (load_suite("edgehome", n_queries=4),
                load_suite("geoengine", n_queries=4))
    reference = _reference(new)
    spawned, release = threading.Event(), threading.Event()

    async def scenario():
        sessions = SessionManager()
        sessions.register("t", old)
        config = ServingSpec(max_batch_size=4, max_wait_ms=2.0,
                             execution_workers=1)
        async with Gateway(sessions, config=config) as gateway:
            stage = gateway._process_stage
            spawn = stage._spawn

            def held_spawn(runners):
                # hold the respawn between its snapshot and its install
                pool = spawn(runners)
                spawned.set()
                release.wait(60.0)
                return pool

            monkeypatch.setattr(stage, "_spawn", held_spawn)
            try:
                await _force_respawn(gateway, "t", old.queries[0])
                assert await asyncio.to_thread(spawned.wait, 60.0)
                gateway.remove_tenant("t")
                sessions.register("t", new)
            finally:
                release.set()
            await _until_running(stage)
            assert not stage.covers("t")
            return await asyncio.gather(*(
                gateway.submit("t", query) for query in new.queries))

    for response in asyncio.run(scenario()):
        assert response.episode == reference[response.episode.qid]


class _ReleaseHook:
    """Wraps a lock; the first release on the respawn thread runs
    ``hook`` — a DELETE landing the instant the runner snapshot lets go
    of the session manager's lock."""

    def __init__(self, lock, hook):
        self._lock, self._hook = lock, hook

    def __enter__(self):
        self._lock.acquire()
        return self

    def __exit__(self, *exc_info):
        self._lock.release()
        if (self._hook is not None
                and threading.current_thread().name == "serving-pool-respawn"):
            hook, self._hook = self._hook, None
            hook()


def test_tenant_removed_mid_snapshot_does_not_kill_the_respawn():
    """A tenant removed while a respawn snapshots the runners is either
    in the snapshot or not; the respawn must still install a pool."""
    suite, other = (load_suite("edgehome", n_queries=4),
                    load_suite("bfcl", n_queries=4))
    reference = _reference(suite)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        sessions.register("gone", other)
        config = ServingSpec(max_batch_size=4, max_wait_ms=2.0,
                             execution_workers=1)
        async with Gateway(sessions, config=config) as gateway:
            stage = gateway._process_stage
            hook = _ReleaseHook(sessions._lock,
                                lambda: sessions.deregister("gone"))
            sessions._lock = hook
            await _force_respawn(gateway, "home", suite.queries[0])
            await _until_running(stage, timeout_s=30.0)
            assert hook._hook is None, "the DELETE never landed"
            assert stage.covers("home")
            return await asyncio.gather(*(
                gateway.submit("home", query) for query in suite.queries))

    for response in asyncio.run(scenario()):
        assert response.episode == reference[response.episode.qid]


def test_respawn_while_a_parent_thread_holds_an_episode_lock(monkeypatch):
    """Known answer for the hazard forkserver workers remove: a gateway
    thread holds the process-wide embedder's lock (every episode takes
    it) while a respawn starts the replacement pool.  A worker forked
    from the gateway would inherit that lock held and wedge its first
    slice into the slice timeout; a forkserver worker never sees it, so
    the next requests come back as ``worker-slice`` spans with no new
    inline fallback."""
    monkeypatch.setattr(process_module, "SLICE_TIMEOUT_S", 3.0)
    suite = load_suite("edgehome", n_queries=8)
    reference = _reference(suite)
    sink = MemorySink()
    shared = shared_embedder()

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        config = ServingSpec(max_batch_size=4, max_wait_ms=2.0,
                             execution_workers=1)
        async with Gateway(sessions, config=config,
                           tracer=Tracer(sink)) as gateway:
            stage = gateway._process_stage
            spawn = stage._spawn

            def spawn_under_held_lock(runners):
                held, release = threading.Event(), threading.Event()

                def hold():
                    with shared._lock:
                        held.set()
                        release.wait(60.0)

                holder = threading.Thread(target=hold)
                holder.start()
                assert held.wait(60.0)
                try:
                    return spawn(runners)
                finally:
                    release.set()
                    holder.join(60.0)

            monkeypatch.setattr(stage, "_spawn", spawn_under_held_lock)
            try:
                await _force_respawn(gateway, "home", suite.queries[0])
                await _until_running(stage)
                fallbacks = gateway.metrics()["inline_fallbacks"]
                emitted = len(sink)
                responses = await asyncio.gather(*(
                    gateway.submit("home", query) for query in suite.queries))
                return (responses, sink.spans()[emitted:], fallbacks,
                        gateway.metrics()["inline_fallbacks"])
            finally:
                # a wedged worker (the hazard) must not hang shutdown
                while stage.kill_one_worker() is not None:
                    await asyncio.sleep(0.01)

    responses, spans, before, after = asyncio.run(scenario())
    for response in responses:
        assert response.episode == reference[response.episode.qid]
    slices = [span.name for span in spans if span.name.endswith("-slice")]
    assert slices == ["worker-slice"] * len(suite.queries)
    assert after == before


# ----------------------------------------------------------------------
# chaos: stalled batches and end-to-end deadlines
# ----------------------------------------------------------------------
def test_slow_batch_fault_trips_deadline():
    suite = load_suite("edgehome", n_queries=4)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        config = ServingSpec(max_batch_size=2, max_wait_ms=1.0,
                             timeout_ms=150.0)
        faults = FaultPlan(seed=1, slow_batch_rate=1.0, slow_batch_ms=600.0)
        async with Gateway(sessions, config=config, faults=faults) as gateway:
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
        config = ServingSpec(max_batch_size=2, max_wait_ms=1.0,
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
        config = ServingSpec(max_batch_size=4, max_wait_ms=2.0)
        # every other group raises (the stream under seed 5 mixes hits
        # and misses); surviving requests must still complete
        faults = FaultPlan(seed=5, exception_rate=0.5)
        async with Gateway(sessions, config=config, faults=faults) as gateway:
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


def test_config_validation_for_fault_tolerance_knobs():
    with pytest.raises(ValueError):
        ServingSpec(timeout_ms=0.0)
    assert ServingSpec(timeout_ms=250.0).timeout_s == 0.25
    assert ServingSpec().timeout_s is None
