"""The micro-batch scheduler: bounded queue, fairness, backlog batching.

Requests enter per-tenant FIFO queues and leave in micro-batches of at
most ``max_batch_size``.  The scheduler has one dispatch rule: whenever
the batch worker is free and anything is queued, cut it, run it and
deliver.  A batch is therefore exactly the backlog that built up while
the previous batch ran — the in-flight batch *is* the coalescing window
— so load fills batches on its own and an idle worker never makes a
request wait for company.  Batches are assembled round-robin across
tenants so one chatty tenant cannot starve the others, and each batch is
processed on a dedicated worker thread so the event loop keeps admitting
traffic (the next batch's backlog) while the previous batch executes.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.serving.telemetry import Telemetry
from repro.specs import ServingSpec


class QueueFullError(RuntimeError):
    """Admission control bounced the request: the queue is at capacity.

    Carries the queue state at rejection time so operators can see *who*
    is flooding: :attr:`depth` (total waiting), :attr:`capacity`, and
    :attr:`per_tenant` (tenant -> waiting count, busiest first).
    """

    def __init__(self, message: str, *, depth: int | None = None,
                 capacity: int | None = None,
                 per_tenant: dict[str, int] | None = None):
        super().__init__(message)
        self.depth = depth
        self.capacity = capacity
        self.per_tenant = dict(per_tenant or {})


class SchedulerStoppedError(RuntimeError):
    """The scheduler is not accepting submissions (stopped or never started)."""


@dataclass
class PendingRequest:
    """One queued request: opaque payload plus its completion future."""

    tenant: str
    payload: Any
    future: asyncio.Future = field(repr=False)
    enqueued_at: float = 0.0
    #: stamped at flush time so responses can report their batch context
    batch_size: int = 0
    dequeued_at: float = 0.0


class BatchScheduler:
    """Coalesces submissions into micro-batches for a processor callable.

    Parameters
    ----------
    config:
        Batch/queue tunables (:class:`~repro.specs.ServingSpec`).
    telemetry:
        Recorder for queue depth, batch sizes and rejections.

    :meth:`start` takes the processor, ``process(batch) -> results``,
    and only the running loop holds it.  It runs on the worker thread
    and must return one result per request in order; a slot holding an
    exception fails just that request.  A raised exception, or the wrong
    number of results, fails every request in the batch.
    """

    def __init__(
        self,
        config: ServingSpec,
        telemetry: Telemetry | None = None,
    ):
        self.config = config
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._queues: dict[str, deque[PendingRequest]] = {}
        self._rr_offset = 0
        self._total_pending = 0
        self._wake: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping = False
        # one worker: episodes are GIL-bound pure Python, so extra threads
        # only add contention; the win comes from batching the kernels
        self._worker = _SingleWorker()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, process) -> None:
        if self._task is not None:
            raise RuntimeError("scheduler already started")
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stopping = False
        self._task = self._loop.create_task(self._run(process),
                                            name="batch-scheduler")

    async def stop(self) -> None:
        """Stop accepting, run what is still queued, then exit.

        Queued requests are cut into final batches before the loop
        exits.  No pending future is ever left hanging: anything still
        queued when the loop exits (after a scheduler crash) is failed
        on the way out.
        """
        if self._task is None:
            return
        self._stopping = True
        self._wake.set()
        try:
            await self._task
        finally:
            self._task = None
            self._fail_pending(SchedulerStoppedError(
                "scheduler stopped before this request was processed"))
            self._worker.shutdown()

    def _fail_pending(self, exc: BaseException) -> None:
        """Fail every still-queued request (no future may hang)."""
        for queue in self._queues.values():
            while queue:
                request = queue.popleft()
                self._total_pending -= 1
                if not request.future.done():
                    request.future.set_exception(exc)

    @property
    def pending(self) -> int:
        """Requests currently waiting (excludes the batch being processed)."""
        return self._total_pending

    @property
    def running(self) -> bool:
        """True while the scheduler accepts submissions (started, not
        stopping) — what the HTTP ``/healthz`` endpoint reports."""
        return self._task is not None and not self._stopping

    # ------------------------------------------------------------------
    # submission (event loop thread)
    # ------------------------------------------------------------------
    def submit(self, tenant: str, payload: Any) -> asyncio.Future:
        """Queue one request, returning the future its result lands on.

        Raises :class:`QueueFullError` when admission control rejects the
        request and :class:`SchedulerStoppedError` outside start/stop.
        """
        if self._task is None or self._stopping:
            raise SchedulerStoppedError("scheduler is not running")
        if self._total_pending >= self.config.queue_capacity:
            self.telemetry.record_rejection()
            occupancy = dict(sorted(
                ((name, len(queue)) for name, queue in self._queues.items()
                 if queue),
                key=lambda item: item[1], reverse=True))
            breakdown = ", ".join(f"{name}={count}"
                                  for name, count in occupancy.items())
            raise QueueFullError(
                f"queue at capacity ({self._total_pending}/"
                f"{self.config.queue_capacity} waiting; per tenant: "
                f"{breakdown or 'none'})",
                depth=self._total_pending,
                capacity=self.config.queue_capacity,
                per_tenant=occupancy)
        future = self._loop.create_future()
        request = PendingRequest(tenant=tenant, payload=payload, future=future,
                                 enqueued_at=self._loop.time())
        self._queues.setdefault(tenant, deque()).append(request)
        self._total_pending += 1
        self.telemetry.record_admission(self._total_pending)
        self._wake.set()
        return future

    # ------------------------------------------------------------------
    # scheduler loop
    # ------------------------------------------------------------------
    async def _run(self, process) -> None:
        """Cut, run and deliver batches until stopped.

        One batch is in flight at a time (``run_in_executor`` is
        awaited), so every pass through the loop finds the worker free:
        whatever is queued is cut and run right away — the requests that
        arrived while the previous batch ran ride together — and an
        empty queue sleeps on the wake event.
        """
        while True:
            if self._total_pending == 0:
                if self._stopping:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            batch = self._cut_batch()
            if not batch:
                continue
            self.telemetry.record_flush(
                len(batch), [request.dequeued_at - request.enqueued_at
                             for request in batch])
            try:
                results = await self._loop.run_in_executor(
                    self._worker, process, batch)
                if len(results) != len(batch):
                    raise RuntimeError(
                        f"processor returned {len(results)} results for a "
                        f"batch of {len(batch)}")
            except Exception as exc:  # noqa: BLE001 - fails the whole batch
                results = [exc] * len(batch)
            self._deliver(batch, results)
            del batch, results  # a removed tenant must not wait for traffic

    def _deliver(self, batch: list[PendingRequest], results: list[Any]) -> None:
        for request, result in zip(batch, results):
            # a processor may fail part of a batch by an exception in a
            # slot (the gateway's per-group containment); the frames it
            # left have returned, and their locals would reach it again
            if isinstance(result, BaseException):
                traceback.clear_frames(result.__traceback__)
                if not request.future.done():
                    request.future.set_exception(result)
            elif not request.future.done():
                request.future.set_result(result)

    def _cut_batch(self) -> list[PendingRequest]:
        """Drain up to ``max_batch_size`` requests, round-robin by tenant.

        The rotation offset advances every flush so whichever tenant went
        first last time goes later this time — cheap long-run fairness on
        top of the per-flush interleaving.
        """
        tenants = [name for name, queue in self._queues.items() if queue]
        if not tenants:
            return []
        self._rr_offset = (self._rr_offset + 1) % len(tenants)
        tenants = tenants[self._rr_offset:] + tenants[:self._rr_offset]
        batch: list[PendingRequest] = []
        now = self._loop.time()
        while len(batch) < self.config.max_batch_size:
            progressed = False
            for name in tenants:
                queue = self._queues[name]
                if not queue:
                    continue
                request = queue.popleft()
                self._total_pending -= 1
                progressed = True
                if request.future.done():
                    # abandoned while queued (end-to-end deadline expired
                    # and Gateway.submit cancelled the future): executing
                    # it would be pure waste — drop it here
                    continue
                request.dequeued_at = now
                batch.append(request)
                if len(batch) >= self.config.max_batch_size:
                    break
            if not progressed:
                break
        for request in batch:
            request.batch_size = len(batch)
        return batch


#: seconds ``_SingleWorker.shutdown`` waits for the worker thread
JOIN_TIMEOUT_S = 5.0


class _SingleWorker:
    """Minimal one-thread executor compatible with ``run_in_executor``.

    ``concurrent.futures.ThreadPoolExecutor`` would work too; this keeps
    the worker's lifecycle explicit (one named thread, deterministic
    shutdown) and avoids pool bookkeeping on the per-batch hot path.
    """

    def __init__(self):
        self._items: deque = deque()
        self._available = threading.Semaphore(0)
        self._thread: threading.Thread | None = None
        self._shutdown = False

    def submit(self, fn, *args):
        if self._thread is None:
            self._thread = threading.Thread(target=self._drain,
                                            name="serving-batch-worker",
                                            daemon=True)
            self._thread.start()
        future: concurrent.futures.Future = concurrent.futures.Future()
        self._items.append((future, fn, args))
        self._available.release()
        return future

    def _drain(self):
        while True:
            self._available.acquire()
            if self._shutdown:
                return
            future, fn, args = self._items.popleft()
            if future.set_running_or_notify_cancel():
                try:
                    future.set_result(fn(*args))
                except BaseException as exc:  # noqa: BLE001 - via future
                    future.set_exception(exc)
            del future, fn, args  # an idle worker holds no batch

    def shutdown(self):
        """Stop the worker thread; raise if it fails to join.

        A worker that outlives the join timeout is stuck inside a
        processor (wedged pool, deadlocked lock, runaway episode).
        Silently proceeding would leak the thread *and* hide the hang —
        instead the error carries the worker's current stack so the
        operator sees exactly where it is stuck.
        """
        self._shutdown = True
        self._available.release()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=JOIN_TIMEOUT_S)
            if thread.is_alive():
                import sys

                frame = sys._current_frames().get(thread.ident)
                stack = ("".join(traceback.format_stack(frame))
                         if frame is not None else "<stack unavailable>")
                raise RuntimeError(
                    f"serving batch worker failed to join within "
                    f"{JOIN_TIMEOUT_S:g}s; it is stuck at:\n{stack}")
            self._thread = None
        self._shutdown = False
