"""Supervised process-pool episode execution for the serving gateway.

Micro-batch *planning* (one batched ``encode`` plus one multi-query
search per Search Level) stays in the gateway's parent process, where the
shared :class:`~repro.embedding.cache.CachedEmbedder` lives; episode
*execution* is GIL-bound pure Python, so with
``ServingSpec(execution_workers=N)`` (N ≥ 1) the post-planning step loop
of a flushed batch fans out across N worker processes.

Workers are primed once per pool generation with a pickled snapshot of
every registered tenant's warmed :class:`ExperimentRunner` (suite, Search
Levels, embedder cache); per-``(tenant, scheme, model, quant)`` agents
are then built lazily inside each worker and reused across batches.
Because planning output (the :class:`~repro.core.agent_base.ToolPlan`)
crosses the process boundary with the query, and every episode draws
from named BLAKE2-derived RNG streams, a worker-executed episode is
bitwise identical to running :meth:`run_planned` in the parent — the
same contract inline execution honors.

Every generation starts from one ``forkserver`` with this module (and so
the serving stack) preloaded: a worker is a fork of that clean server,
never of the gateway, so it cannot inherit a lock some gateway thread
held at the fork instant (under ``fork`` a respawn racing the batch
worker wedged its first slice until the slice timeout).

A failed slice — a dead worker (``BrokenProcessPool``), a slice past
:data:`SLICE_TIMEOUT_S`, or a pool that died before dispatch — runs
inline on the batch worker at once (bitwise-identical results either
way) and triggers **one** asynchronous respawn, primed from the
sessions' *current* runners, which also heals tenants demoted to inline
execution by a catalog hot-swap.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool

from repro.core.episode import EpisodeResult
from repro.evaluation.runner import ExperimentRunner
from repro.obs.trace import worker_slice_span
from repro.suites.base import Query

#: the start method of every pool generation (not a knob, see above)
_CONTEXT = multiprocessing.get_context("forkserver")
_CONTEXT.set_forkserver_preload(["repro.serving.process"])

#: rendezvous budget for every worker of a generation to reach the init
#: barrier (the error reports how many did); also bounds each respawn
WORKER_INIT_TIMEOUT_S = 60.0
#: upper bound on one worker slice: a slice past it is handled exactly
#: like a worker crash, so a wedged worker cannot strand its micro-batch
SLICE_TIMEOUT_S = 30.0


class SupervisedEpisodeExecutor:
    """N worker processes executing planned episodes, kept alive.

    Parameters
    ----------
    workers:
        Worker-process count of every pool generation (>= 1).
    runners_fn:
        Returns the tenant name -> warmed runner snapshot a generation
        is primed with (:meth:`SessionManager.runners
        <repro.serving.session.SessionManager.runners>`), called at
        :meth:`start` and again at every respawn.
    telemetry:
        Records worker restarts and inline fallbacks.
    faults / tracer:
        Optional fault injector (the ``process.execute`` hook SIGKILLs a
        worker) and tracer (worker-built spans, fallback events).

    While a respawn is in flight :meth:`covers` is ``False`` for every
    tenant, so the gateway routes whole groups inline instead of
    queueing against a dead pool.
    """

    def __init__(self, workers: int, runners_fn, telemetry, faults=None,
                 tracer=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.telemetry = telemetry
        self.faults = faults
        self.tracer = tracer
        self._runners_fn = runners_fn
        self._pool: ProcessPoolExecutor | None = None
        # tenants the live generation serves; empty while none is live
        self._tenants: frozenset[str] = frozenset()
        # tenants uncover()ed since the last runner snapshot: a generation
        # primed from that snapshot must not cover them again
        self._uncovered: set[str] = set()
        self._lock = threading.Lock()
        self._respawn_thread: threading.Thread | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn and prime the first generation (before traffic starts)."""
        if self._pool is not None:
            raise RuntimeError("executor already started")
        self._start_generation()

    def shutdown(self) -> None:
        self._closed = True
        respawn = self._respawn_thread
        if respawn is not None and respawn.is_alive():
            respawn.join(timeout=WORKER_INIT_TIMEOUT_S + 5.0)
        with self._lock:
            pool, self._pool = self._pool, None
            self._tenants = frozenset()
        if pool is not None:
            pool.shutdown(wait=True)

    def _start_generation(self) -> None:
        """Snapshot the runners, spawn a pool on them, install it."""
        with self._lock:
            self._uncovered = set()
        runners = self._runners_fn()
        pool = self._spawn(runners)
        with self._lock:
            if self._closed or self._pool is not None:
                pool.shutdown(wait=False)
                return
            self._pool = pool
            self._tenants = frozenset(runners) - self._uncovered

    def _spawn(self, runners: dict) -> ProcessPoolExecutor:
        """Start one pool generation with every worker primed.

        ``runners`` is pickled once per worker (shared objects — notably
        the embedder — stay shared on the receiving side because they
        ride in a single pickle).  The barrier is a true rendezvous:
        every worker blocks at the end of its initializer until all of
        them (plus this thread) arrive, so no worker is still cold when
        this returns — a fast sibling draining ready-pings cannot fake
        readiness.
        """
        barrier = _CONTEXT.Barrier(self.workers + 1)
        arrivals = _CONTEXT.Value("i", 0)
        pool = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=_CONTEXT,
            initializer=_init_worker, initargs=(runners, barrier, arrivals))
        # each submit spawns one process while the pool is below
        # max_workers, and none can complete before the barrier trips,
        # so exactly `workers` processes come up now
        ready = [pool.submit(_worker_ready) for _ in range(self.workers)]
        try:
            barrier.wait(timeout=WORKER_INIT_TIMEOUT_S)
        except threading.BrokenBarrierError:
            with arrivals.get_lock():
                reached = arrivals.value
            pool.shutdown(wait=False)
            raise RuntimeError(
                f"only {reached} of {self.workers} serving workers reached "
                f"the init barrier within {WORKER_INIT_TIMEOUT_S:g}s") from None
        for future in ready:
            future.result()
        return pool

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether a live pool generation is installed (False mid-respawn)."""
        return self._pool is not None

    def covers(self, tenant: str) -> bool:
        """Whether the live generation holds ``tenant``'s current runner.

        Tenants registered after the snapshot are unknown to the
        workers; the gateway executes their episodes inline instead.
        """
        return tenant in self._tenants

    def uncover(self, tenant: str) -> None:
        """Stop routing ``tenant`` to the pool.

        Called on catalog hot-swap and tenant removal: the workers'
        runner snapshot (and their lazily-built agents) predate the
        change, so the gateway executes this tenant inline until a
        generation primed from a later snapshot is installed — including
        one whose respawn is in flight right now.
        """
        with self._lock:
            self._tenants = self._tenants - {tenant}
            self._uncovered.add(tenant)

    def worker_pids(self) -> list[int]:
        """PIDs of the live pool processes (chaos harness / diagnostics)."""
        pool = self._pool
        # a pool retired mid-call has dropped its process table
        processes = (pool._processes if pool is not None else None) or {}
        return sorted(process.pid for process in list(processes.values())
                      if process.is_alive())

    def kill_one_worker(self) -> int | None:
        """SIGKILL one pool worker (fault injection); returns its pid.

        The next slice dispatched to the broken pool raises
        :class:`BrokenProcessPool` — exactly the failure a real OOM kill
        or segfault produces.  No-op (returns ``None``) when the pool has
        no live worker.
        """
        for pid in self.worker_pids():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue  # exited since the listing (the forkserver reaped it)
            return pid
        return None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, tenant: str, scheme: str, model: str, quant: str,
                queries: list[Query], plans: list, inline,
                traces=None) -> list[EpisodeResult]:
        """Run one planned group, surviving worker death mid-flight.

        ``inline(queries, plans)`` runs episodes on the calling thread;
        a slice whose worker failed goes through it at once.  ``traces``
        (one :class:`~repro.obs.trace.TraceContext` or ``None`` per
        request) crosses the pickle boundary with its (query, plan);
        traced episodes come back with a ``worker-slice`` span built
        inside the worker — or an ``inline-slice`` span when they ran on
        this thread — emitted through the tracer.  Injected crashes and
        fallbacks are recorded as events on the owning traces.
        """
        if self.faults is not None:
            action = self.faults.decide("process.execute")
            if action is not None and action.kind == "crash":
                if self.kill_one_worker() is not None:
                    self.telemetry.record_fault("process.execute")
                    if self.tracer is not None and traces:
                        for ctx in traces:
                            self.tracer.event(ctx, "fault",
                                              {"hook": "process.execute"})
        cell = (tenant, scheme, model, quant)
        items = list(zip(queries, plans,
                         traces if traces is not None else [None] * len(queries)))
        n_slices = min(self.workers, len(items))
        if n_slices == 0:
            return []
        slices = [items[start::n_slices] for start in range(n_slices)]
        pool = self._pool
        futures = [None] * n_slices
        if pool is not None:
            try:
                futures = [pool.submit(_execute_slice, cell, chunk)
                           for chunk in slices]
            except (BrokenProcessPool, RuntimeError):
                # the pool died between covers() and dispatch
                self._note_broken(pool)
        episodes: list[EpisodeResult | None] = [None] * len(items)
        for start, (future, chunk) in enumerate(zip(futures, slices)):
            results = None
            if future is not None:
                try:
                    results, spans = future.result(timeout=SLICE_TIMEOUT_S)
                    if self.tracer is not None:
                        for span in spans:
                            self.tracer.emit(span)
                except (BrokenProcessPool, FutureTimeoutError):
                    self._note_broken(pool)
            if results is None:
                results = self._run_inline(chunk, inline)
            episodes[start::n_slices] = results
        return episodes

    def _run_inline(self, items, inline) -> list[EpisodeResult]:
        """Execute one failed slice on this thread."""
        self.telemetry.record_inline_fallback()
        tracer = self.tracer
        if tracer is None:
            return inline([query for query, _, _ in items],
                          [plan for _, plan, _ in items])
        for _, _, ctx in items:
            tracer.event(ctx, "inline_fallback", {})
        # run per episode so each traced one gets its own timed
        # inline-slice span; episodes are deterministic per (query,
        # plan), so splitting the call changes nothing but timing
        episodes = []
        for query, plan, ctx in items:
            started = time.monotonic()
            episodes.extend(inline([query], [plan]))
            if ctx is not None:
                tracer.emit(worker_slice_span(
                    ctx, query.qid, started, time.monotonic(), inline=True))
        return episodes

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def _note_broken(self, pool: ProcessPoolExecutor) -> None:
        """Retire a dead pool generation and kick off one async respawn."""
        with self._lock:
            if self._pool is not pool:
                return  # another slice already reported this generation
            self._pool = None
            self._tenants = frozenset()
            self.telemetry.record_worker_restart()
            thread = threading.Thread(target=self._respawn, args=(pool,),
                                      name="serving-pool-respawn",
                                      daemon=True)
            self._respawn_thread = thread
        thread.start()

    def _respawn(self, dead: ProcessPoolExecutor) -> None:
        dead.shutdown(wait=False)
        if self._closed:
            return
        try:
            self._start_generation()
        except Exception:
            # spawn failed (resources, init barrier): stay inline — every
            # group still serves through the inline path
            return


# ----------------------------------------------------------------------
# worker-process side
# ----------------------------------------------------------------------
#: tenant -> runner snapshot, installed by the pool initializer
_RUNNERS: dict[str, ExperimentRunner] = {}
#: (tenant, scheme, model, quant) -> agent, built lazily per worker
_AGENTS: dict[tuple[str, str, str, str], object] = {}


def _init_worker(runners: dict[str, ExperimentRunner], barrier,
                 arrivals) -> None:
    global _RUNNERS
    _RUNNERS = runners
    _AGENTS.clear()
    with arrivals.get_lock():
        arrivals.value += 1
    # rendezvous with the parent and every sibling (see _spawn())
    barrier.wait(timeout=WORKER_INIT_TIMEOUT_S)


def _worker_ready() -> int:
    """No-op barrier task used to force worker spawn at start time."""
    return os.getpid()


def _agent_for(cell: tuple[str, str, str, str]):
    agent = _AGENTS.get(cell)
    if agent is None:
        tenant, scheme, model, quant = cell
        agent = _RUNNERS[tenant].make_agent(scheme, model, quant)
        # match TenantSession serving agents: an unbounded per-call log
        # would grow for the worker's whole lifetime (and logging does
        # not affect episode results)
        agent.executor.log_calls = False
        _AGENTS[cell] = agent
    return agent


def _execute_slice(cell: tuple[str, str, str, str], items):
    """Execute one worker's slice of a planned group.

    ``items`` are (query, plan, trace-context-or-None) triples; returns
    ``(episodes, spans)`` where ``spans`` holds one timed
    ``worker-slice`` span per traced episode, built here — inside the
    worker, carrying this process's pid — and pickled back for the
    parent's tracer to emit.  Untraced slices pay nothing but the
    ``ctx is None`` check per episode.
    """
    agent = _agent_for(cell)
    episodes: list[EpisodeResult] = []
    spans = []
    for query, plan, ctx in items:
        if ctx is None:
            episodes.append(agent.run_planned(query, plan))
            continue
        started = time.monotonic()
        episodes.append(agent.run_planned(query, plan))
        spans.append(worker_slice_span(ctx, query.qid, started,
                                       time.monotonic()))
    return episodes, spans
