"""Unit tests for the micro-batch scheduler (no agents involved)."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.serving import (
    BatchScheduler,
    QueueFullError,
    SchedulerStoppedError,
    Telemetry,
)
from repro.specs import ServingSpec


def run(coro):
    return asyncio.run(coro)


def echo_processor(batch):
    """Return each request's payload, tagged with its batch size."""
    return [(request.payload, request.batch_size) for request in batch]


async def start_scheduler(config, process=echo_processor, telemetry=None):
    scheduler = BatchScheduler(process, config, telemetry=telemetry)
    await scheduler.start()
    return scheduler


def test_flush_on_max_batch_size():
    async def scenario():
        telemetry = Telemetry()
        scheduler = await start_scheduler(
            ServingSpec(max_batch_size=4, max_wait_ms=10_000.0),
            telemetry=telemetry)
        futures = [scheduler.submit("t", i) for i in range(4)]
        results = await asyncio.gather(*futures)
        await scheduler.stop()
        return results, telemetry.snapshot()

    results, metrics = run(scenario())
    # a full batch flushed long before the (huge) deadline
    assert [payload for payload, _ in results] == [0, 1, 2, 3]
    assert all(size == 4 for _, size in results)
    assert metrics["batch_size_histogram"] == {"4": 1}


def test_flush_on_deadline_with_partial_batch():
    async def scenario():
        scheduler = await start_scheduler(
            ServingSpec(max_batch_size=64, max_wait_ms=5.0))
        futures = [scheduler.submit("t", i) for i in range(3)]
        results = await asyncio.wait_for(asyncio.gather(*futures), timeout=5.0)
        await scheduler.stop()
        return results

    results = run(scenario())
    assert all(size == 3 for _, size in results)


def capturing_processor(captured):
    def capture(batch):
        captured.append([request.payload for request in batch])
        return [None] * len(batch)
    return capture


def test_backlog_behind_a_running_batch_is_the_next_batch():
    """Work-conserving default: A reaches an idle worker and flushes
    alone; B, C, D queue while A runs and leave together — the in-flight
    batch is the coalescing window."""
    captured = []
    entered, release = threading.Event(), threading.Event()
    capture = capturing_processor(captured)

    def held(batch):
        entered.set()
        assert release.wait(timeout=5.0)
        return capture(batch)

    async def scenario():
        scheduler = await start_scheduler(ServingSpec(), process=held)
        first = scheduler.submit("t", "A")
        assert await asyncio.to_thread(entered.wait, 5.0)
        backlog = [scheduler.submit("t", payload) for payload in "BCD"]
        assert scheduler.pending == 3
        release.set()
        await asyncio.gather(first, *backlog)
        await scheduler.stop()

    run(scenario())
    assert captured == [["A"], ["B", "C", "D"]]


def test_one_loop_turn_of_submissions_forms_one_batch_at_defaults():
    """32 closed-loop clients re-submitting in the same event-loop turn
    all land before the scheduler task runs: one full batch, no window
    needed (the ``gw_closed_c32`` property)."""
    async def scenario():
        telemetry = Telemetry()
        scheduler = await start_scheduler(ServingSpec(), telemetry=telemetry)
        results = await asyncio.gather(*(
            scheduler.submit("t", i) for i in range(32)))
        await scheduler.stop()
        return results, telemetry.snapshot()

    results, metrics = run(scenario())
    assert results == [(i, 32) for i in range(32)]
    assert metrics["batch_size_histogram"] == {"32": 1}
    assert metrics["queue_wait_count"] == 32


def test_default_dispatches_an_idle_trickle_at_once_with_no_timer(monkeypatch):
    """Each request of a trickle finds the worker idle and is cut on the
    scheduler's next turn — alone, and without arming ``wait_for``."""
    captured = []

    def no_timer(*args, **kwargs):
        raise AssertionError("the idle path armed a coalescing timer")

    async def scenario():
        scheduler = await start_scheduler(
            ServingSpec(), process=capturing_processor(captured))
        monkeypatch.setattr(asyncio, "wait_for", no_timer)
        for payload in "ABC":
            future = scheduler.submit("t", payload)
            # a crashed scheduler task must fail the test, not hang it
            await asyncio.wait({future, scheduler._task}, timeout=5.0,
                               return_when=asyncio.FIRST_COMPLETED)
            assert future.done() and not scheduler._task.done()
        await scheduler.stop()

    run(scenario())
    assert captured == [["A"], ["B"], ["C"]]


def test_explicit_window_still_coalesces_an_idle_trickle():
    """``max_wait_ms > 0`` is the opt-in: an idle worker holds the first
    request for company until the window closes or the batch fills."""
    captured = []

    async def scenario():
        scheduler = await start_scheduler(
            ServingSpec(max_batch_size=3, max_wait_ms=10_000.0),
            process=capturing_processor(captured))
        futures = []
        for count, payload in enumerate("ABC", start=1):
            futures.append(scheduler.submit("t", payload))
            if count < 3:
                for _ in range(10):  # the scheduler gets its turns ...
                    await asyncio.sleep(0)
                # ... and keeps holding inside the (huge) window
                assert scheduler.pending == count and not captured
        await asyncio.gather(*futures)
        await scheduler.stop()

    run(scenario())
    assert captured == [["A", "B", "C"]]


def test_round_robin_fairness_across_tenants():
    async def scenario():
        scheduler = await start_scheduler(
            ServingSpec(max_batch_size=6, max_wait_ms=50.0))
        # tenant "a" floods, tenant "b" sends one request
        futures = [scheduler.submit("a", f"a{i}") for i in range(5)]
        futures.append(scheduler.submit("b", "b0"))
        results = await asyncio.gather(*futures)
        await scheduler.stop()
        return results

    results = run(scenario())
    payloads = [payload for payload, _ in results[:-1]]
    b_result = results[-1]
    # b's single request rode the same (first) batch despite a's flood
    assert b_result == ("b0", 6)
    assert payloads == [f"a{i}" for i in range(5)]


def test_fairness_caps_flooding_tenant_in_cut_order():
    """With a full queue from one tenant plus one from another, the batch
    interleaves tenants instead of draining the flooder first."""
    captured = []

    async def scenario():
        scheduler = await start_scheduler(
            ServingSpec(max_batch_size=4, max_wait_ms=50.0),
            process=capturing_processor(captured))
        futures = [scheduler.submit("a", f"a{i}") for i in range(4)]
        futures.append(scheduler.submit("b", "b0"))
        await asyncio.gather(*futures)
        await scheduler.stop()

    run(scenario())
    first_batch = captured[0]
    # round-robin: b0 lands inside the first batch of 4, not behind all of a
    assert "b0" in first_batch


def test_admission_control_queue_full():
    async def scenario():
        telemetry = Telemetry()
        # processor that blocks until released, so the queue backs up
        release = asyncio.Event()
        loop = asyncio.get_running_loop()

        def slow(batch):
            asyncio.run_coroutine_threadsafe(release.wait(), loop).result()
            return [None] * len(batch)

        scheduler = await start_scheduler(
            ServingSpec(max_batch_size=1, max_wait_ms=0.0, queue_capacity=2),
            process=slow, telemetry=telemetry)
        inflight = [scheduler.submit("t", 0)]
        await asyncio.sleep(0.05)  # let the first batch enter the worker
        inflight += [scheduler.submit("t", 1), scheduler.submit("t", 2)]
        with pytest.raises(QueueFullError):
            scheduler.submit("t", 3)
        release.set()
        await asyncio.gather(*inflight)
        await scheduler.stop()
        return telemetry.snapshot()

    metrics = run(scenario())
    assert metrics["requests_rejected"] == 1
    assert metrics["requests_admitted"] == 3


def test_submit_outside_lifecycle_raises():
    config = ServingSpec()
    scheduler = BatchScheduler(echo_processor, config)
    with pytest.raises(SchedulerStoppedError):
        scheduler.submit("t", 0)

    async def scenario():
        await scheduler.start()
        await scheduler.stop()
        with pytest.raises(SchedulerStoppedError):
            scheduler.submit("t", 0)

    run(scenario())


def test_processor_exception_fails_the_batch():
    def broken(batch):
        raise RuntimeError("kaboom")

    async def scenario():
        scheduler = await start_scheduler(
            ServingSpec(max_batch_size=2, max_wait_ms=1.0), process=broken)
        futures = [scheduler.submit("t", i) for i in range(2)]
        outcomes = await asyncio.gather(*futures, return_exceptions=True)
        await scheduler.stop()
        return outcomes

    outcomes = run(scenario())
    assert all(isinstance(outcome, RuntimeError) for outcome in outcomes)


def test_stop_drains_pending_requests():
    async def scenario():
        scheduler = await start_scheduler(
            ServingSpec(max_batch_size=8, max_wait_ms=10_000.0))
        # fewer than a full batch with a far deadline; stop() must not
        # strand them
        futures = [scheduler.submit("t", i) for i in range(3)]
        stop_task = asyncio.get_running_loop().create_task(scheduler.stop())
        results = await asyncio.gather(*futures)
        await stop_task
        return results

    results = run(scenario())
    assert [payload for payload, _ in results] == [0, 1, 2]


def test_config_validation():
    with pytest.raises(ValueError):
        ServingSpec(max_batch_size=0)
    with pytest.raises(ValueError):
        ServingSpec(max_wait_ms=-1.0)
    with pytest.raises(ValueError):
        ServingSpec(queue_capacity=0)
    assert ServingSpec(max_wait_ms=0.5).max_wait_s == 0.0005


def test_abort_stop_fails_inflight_requests_fast():
    """stop(drain=False) with queued traffic: every pending future fails
    promptly with SchedulerStoppedError — none is processed, none hangs."""
    async def scenario():
        scheduler = await start_scheduler(
            ServingSpec(max_batch_size=64, max_wait_ms=10_000.0))
        futures = [scheduler.submit("t", i) for i in range(5)]
        await asyncio.wait_for(scheduler.stop(drain=False), timeout=2.0)
        outcomes = await asyncio.wait_for(
            asyncio.gather(*futures, return_exceptions=True), timeout=2.0)
        # post-stop submissions are rejected too
        with pytest.raises(SchedulerStoppedError):
            scheduler.submit("t", 99)
        return outcomes

    outcomes = run(scenario())
    assert len(outcomes) == 5
    assert all(isinstance(outcome, SchedulerStoppedError)
               for outcome in outcomes)


def test_abort_stop_with_batch_midflight_fails_queued_requests():
    """An abort while a batch is executing: the in-flight batch finishes,
    everything still queued behind it fails fast — nothing hangs."""
    async def scenario():
        release = asyncio.Event()
        loop = asyncio.get_running_loop()

        def slow(batch):
            asyncio.run_coroutine_threadsafe(release.wait(), loop).result()
            return [(request.payload, request.batch_size) for request in batch]

        scheduler = await start_scheduler(
            ServingSpec(max_batch_size=1, max_wait_ms=0.0),
            process=slow)
        inflight = scheduler.submit("t", 0)
        await asyncio.sleep(0.05)  # first batch is now inside the worker
        queued = [scheduler.submit("t", i) for i in range(1, 4)]
        stop_task = loop.create_task(scheduler.stop(drain=False))
        release.set()
        await asyncio.wait_for(stop_task, timeout=5.0)
        first = await asyncio.wait_for(inflight, timeout=2.0)
        rest = await asyncio.wait_for(
            asyncio.gather(*queued, return_exceptions=True), timeout=2.0)
        return first, rest

    first, rest = run(scenario())
    assert first == (0, 1)
    assert all(isinstance(outcome, SchedulerStoppedError) for outcome in rest)


def test_queue_full_error_reports_occupancy():
    async def scenario():
        release = asyncio.Event()
        loop = asyncio.get_running_loop()

        def slow(batch):
            asyncio.run_coroutine_threadsafe(release.wait(), loop).result()
            return [None] * len(batch)

        scheduler = await start_scheduler(
            ServingSpec(max_batch_size=1, max_wait_ms=0.0, queue_capacity=3),
            process=slow)
        inflight = [scheduler.submit("a", 0)]
        await asyncio.sleep(0.05)
        inflight += [scheduler.submit("a", 1), scheduler.submit("a", 2),
                     scheduler.submit("b", 3)]
        with pytest.raises(QueueFullError) as excinfo:
            scheduler.submit("b", 4)
        release.set()
        await asyncio.gather(*inflight)
        await scheduler.stop()
        return excinfo.value

    error = run(scenario())
    assert error.depth == 3
    assert error.capacity == 3
    # busiest tenant first
    assert error.per_tenant == {"a": 2, "b": 1}
    assert list(error.per_tenant) == ["a", "b"]
    assert "a=2" in str(error) and "b=1" in str(error)


def test_quarantine_isolates_poisoned_request():
    """One poisoned request in a batch fails alone; its co-batched
    neighbors are re-run solo and still succeed."""
    def poisonable(batch):
        if any(request.payload == "bad" for request in batch):
            raise RuntimeError("poisoned batch")
        return [(request.payload, request.batch_size) for request in batch]

    async def scenario():
        telemetry = Telemetry()
        scheduler = await start_scheduler(
            ServingSpec(max_batch_size=4, max_wait_ms=10_000.0),
            process=poisonable, telemetry=telemetry)
        futures = [scheduler.submit("t", payload)
                   for payload in ["ok0", "ok1", "bad", "ok2"]]
        outcomes = await asyncio.wait_for(
            asyncio.gather(*futures, return_exceptions=True), timeout=5.0)
        await scheduler.stop()
        return outcomes, telemetry.snapshot()

    outcomes, metrics = run(scenario())
    assert [payload for payload, _ in (outcomes[0], outcomes[1], outcomes[3])] \
        == ["ok0", "ok1", "ok2"]
    assert isinstance(outcomes[2], RuntimeError)
    assert metrics["batch_quarantines"] == 1


def test_worker_shutdown_raises_with_stack_when_stuck():
    """A batch worker that cannot join is a hang, not a detail to swallow:
    shutdown must raise and point at the stuck frame."""
    from repro.serving.batcher import _SingleWorker

    worker = _SingleWorker()
    release = threading.Event()
    started = threading.Event()

    def wedge():
        started.set()
        release.wait()

    future = worker.submit(wedge)
    assert started.wait(timeout=5.0)
    with pytest.raises(RuntimeError, match="failed to join") as excinfo:
        worker.shutdown(join_timeout_s=0.1)
    # the error carries the worker's stack, naming the stuck function
    assert "wedge" in str(excinfo.value)
    release.set()
    future.result(timeout=5.0)
    worker.shutdown(join_timeout_s=5.0)
