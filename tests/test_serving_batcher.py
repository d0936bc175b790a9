"""Unit tests for the micro-batch scheduler (no agents involved)."""

from __future__ import annotations

import asyncio
import threading
import weakref

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
    scheduler = BatchScheduler(config, telemetry=telemetry)
    await scheduler.start(process)
    return scheduler


def test_flush_on_max_batch_size():
    async def scenario():
        telemetry = Telemetry()
        scheduler = await start_scheduler(
            ServingSpec(max_batch_size=4),
            telemetry=telemetry)
        futures = [scheduler.submit("t", i) for i in range(4)]
        results = await asyncio.gather(*futures)
        await scheduler.stop()
        return results, telemetry.snapshot()

    results, metrics = run(scenario())
    # submitted in one loop turn, the four leave as one full batch
    assert [payload for payload, _ in results] == [0, 1, 2, 3]
    assert all(size == 4 for _, size in results)
    assert metrics["batch_size_histogram"] == {"4": 1}


def test_flush_on_deadline_with_partial_batch():
    async def scenario():
        scheduler = await start_scheduler(
            ServingSpec(max_batch_size=64))
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


def test_round_robin_fairness_across_tenants():
    async def scenario():
        scheduler = await start_scheduler(
            ServingSpec(max_batch_size=6))
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
            ServingSpec(max_batch_size=4),
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
            ServingSpec(max_batch_size=1, queue_capacity=2),
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
    scheduler = BatchScheduler(config)
    with pytest.raises(SchedulerStoppedError):
        scheduler.submit("t", 0)

    async def scenario():
        await scheduler.start(echo_processor)
        await scheduler.stop()
        with pytest.raises(SchedulerStoppedError):
            scheduler.submit("t", 0)

    run(scenario())


def test_processor_is_held_only_while_running():
    """The processor arrives at ``start`` and leaves with the loop: a
    stopped scheduler keeps neither it nor its last batch, and the next
    ``start`` takes a new one."""
    class Owner:
        def process(self, batch):
            return echo_processor(batch)

    owner = Owner()
    owner_ref = weakref.ref(owner)

    async def scenario():
        scheduler = BatchScheduler(ServingSpec())
        await scheduler.start(owner.process)
        first = await scheduler.submit("t", "a")
        await scheduler.stop()
        await scheduler.start(echo_processor)
        second = await scheduler.submit("t", "b")
        await scheduler.stop()
        return scheduler, first, second

    scheduler, first, second = run(scenario())
    del owner
    assert owner_ref() is None
    assert (first, second) == (("a", 1), ("b", 1))
    assert scheduler.pending == 0


def test_processor_exception_fails_the_batch():
    """A raised exception, or one result too few (the scheduler cannot
    tell whose is missing), fails every request of the batch."""
    def broken(batch):
        raise RuntimeError("kaboom")

    def short(batch):
        return echo_processor(batch)[:-1]

    async def scenario(process):
        scheduler = await start_scheduler(
            ServingSpec(max_batch_size=2), process=process)
        futures = [scheduler.submit("t", i) for i in range(2)]
        outcomes = await asyncio.gather(*futures, return_exceptions=True)
        await scheduler.stop()
        return outcomes

    for process, match in ((broken, "kaboom"),
                           (short, "returned 1 results for a batch of 2")):
        outcomes = run(scenario(process))
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert isinstance(outcome, RuntimeError)
            assert match in str(outcome)


def test_stop_drains_pending_requests():
    async def scenario():
        scheduler = await start_scheduler(ServingSpec(max_batch_size=8))
        # fewer than a full batch, still queued when stop() is called;
        # stop() must not strand them
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
        ServingSpec(queue_capacity=0)


def test_queue_full_error_reports_occupancy():
    async def scenario():
        release = asyncio.Event()
        loop = asyncio.get_running_loop()

        def slow(batch):
            asyncio.run_coroutine_threadsafe(release.wait(), loop).result()
            return [None] * len(batch)

        scheduler = await start_scheduler(
            ServingSpec(max_batch_size=1, queue_capacity=3),
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
