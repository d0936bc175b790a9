"""Process-pool episode execution stage for the serving gateway.

Micro-batch *planning* (one batched ``encode`` plus one multi-query
search per Search Level) stays in the gateway's parent process, where the
shared :class:`~repro.embedding.cache.CachedEmbedder` lives; episode
*execution* is GIL-bound pure Python, so with
``ServingSpec(execution_backend="process")`` the post-planning step
loop of a flushed batch fans out across a pool of worker processes.

Workers are primed once, at gateway start, with a pickled snapshot of
every registered tenant's warmed :class:`ExperimentRunner` (suite, Search
Levels, embedder cache); per-``(tenant, scheme, model, quant)`` agents
are then built lazily inside each worker and reused across batches.
Because planning output (the :class:`~repro.core.agent_base.ToolPlan`)
crosses the process boundary with the query, and every episode draws
from named BLAKE2-derived RNG streams, a worker-executed episode is
bitwise identical to running :meth:`run_planned` in the parent — the
same contract the threaded execution path honors.

Two classes share the work.  :class:`ProcessEpisodeExecutor` owns one
pool generation: spawn, prime, deal slices, die.  The registered
``"process"`` backend is :class:`SupervisedEpisodeExecutor`, which wraps
a pool generation with the production survival loop: a dead worker
(``BrokenProcessPool``) or a wedged slice no longer takes the gateway
down — the failed slice is retried with bounded backoff, falls back to
inline execution on the batch worker (bitwise-identical results either
way), and a replacement pool is spawned and re-primed asynchronously
from the sessions' *current* runners, which also heals tenants demoted
to inline execution by a catalog hot-swap.
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
from repro.registry import register_serving_backend
from repro.suites.base import Query


@register_serving_backend("process")
def _process_stage(config) -> "SupervisedEpisodeExecutor":
    """Serving-backend registry factory for the supervised process stage."""
    return SupervisedEpisodeExecutor(
        workers=config.execution_workers,
        init_timeout_s=config.worker_init_timeout_s,
        max_retries=config.execution_retries,
        retry_backoff_s=config.retry_backoff_ms / 1e3,
        slice_timeout_s=config.slice_timeout_s,
    )


class ProcessEpisodeExecutor:
    """Owns one worker-pool generation executing planned serving episodes.

    Parameters
    ----------
    workers:
        Worker-process count (defaults to the CPU count).  The pool is
        spawned eagerly in :meth:`start` — before the gateway begins
        admitting traffic — so no fork happens later while the event
        loop and batch-worker threads are running.
    init_timeout_s:
        Rendezvous budget for the worker-init barrier; when it expires
        the error reports how many workers actually reached the barrier.
    """

    def __init__(self, workers: int | None = None,
                 init_timeout_s: float = 60.0):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if init_timeout_s <= 0.0:
            raise ValueError(
                f"init_timeout_s must be > 0, got {init_timeout_s}")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.init_timeout_s = init_timeout_s
        self._pool: ProcessPoolExecutor | None = None
        self._tenants: frozenset[str] = frozenset()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, runners: dict[str, ExperimentRunner]) -> None:
        """Spawn the pool, priming every worker with the tenant runners.

        ``runners`` maps tenant name -> warmed runner; the dict is
        pickled once per worker (shared objects — notably the embedder —
        stay shared on the receiving side because they ride in a single
        pickle).
        """
        if self._pool is not None:
            raise RuntimeError("executor already started")
        self._tenants = frozenset(runners)
        context = multiprocessing.get_context()
        # the barrier is a true rendezvous: every worker blocks at the
        # end of its initializer until all `workers` processes (plus
        # this parent) arrive, so start() cannot return while any
        # worker is still cold — a fast sibling draining ready-pings
        # cannot fake readiness
        barrier = context.Barrier(self.workers + 1)
        # counts workers that reached the barrier, for the error message
        arrivals = context.Value("i", 0)
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(runners, barrier, arrivals, self.init_timeout_s))
        # each submit spawns one process while the pool is below
        # max_workers, and none can complete before the barrier trips,
        # so exactly `workers` processes come up now
        ready = [self._pool.submit(_worker_ready)
                 for _ in range(self.workers)]
        try:
            barrier.wait(timeout=self.init_timeout_s)
        except threading.BrokenBarrierError:
            with arrivals.get_lock():
                reached = arrivals.value
            self._pool.shutdown(wait=False)
            self._pool = None
            raise RuntimeError(
                f"only {reached} of {self.workers} serving workers reached "
                f"the init barrier within {self.init_timeout_s:g}s") from None
        for future in ready:
            future.result()

    def shutdown(self, wait: bool = True) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None

    @property
    def running(self) -> bool:
        return self._pool is not None

    def worker_pids(self) -> list[int]:
        """PIDs of the live pool processes (chaos harness / diagnostics)."""
        if self._pool is None:
            return []
        return sorted(process.pid for process in self._pool._processes.values()
                      if process.is_alive())

    def kill_one_worker(self) -> int | None:
        """SIGKILL one pool worker (fault injection); returns its pid.

        The next slice dispatched to the broken pool raises
        :class:`BrokenProcessPool` — exactly the failure a real OOM kill
        or segfault produces — which the supervised wrapper recovers
        from.  No-op (returns ``None``) when the pool has no live worker.
        """
        pids = self.worker_pids()
        if not pids:
            return None
        os.kill(pids[0], signal.SIGKILL)
        return pids[0]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def covers(self, tenant: str) -> bool:
        """Whether ``tenant`` was in the snapshot the workers hold.

        Tenants registered after gateway start are unknown to the
        workers; the gateway executes their episodes inline instead.
        """
        return tenant in self._tenants

    def uncover(self, tenant: str) -> None:
        """Stop routing ``tenant`` to the pool.

        Called on catalog hot-swap: the workers' runner snapshot (and
        their lazily-built agents) predate the swap, so the gateway
        executes this tenant inline from now on.  Under the supervised
        stage the demotion is temporary — the next pool respawn re-primes
        from the sessions' current runners, which include the swapped
        tenant's post-swap state.
        """
        self._tenants = self._tenants - {tenant}

    def submit_slice(self, cell: tuple[str, str, str, str], items):
        """Submit one worker slice of (query, plan, trace) triples.

        Returns a future resolving to ``(episodes, spans)`` — the slice's
        results plus one pickled-back ``worker-slice`` span per traced
        episode (an empty list when no triple carries a trace context).
        """
        if self._pool is None:
            raise RuntimeError("executor is not running")
        return self._pool.submit(_execute_slice, cell, items)


class SupervisedEpisodeExecutor:
    """Fault-tolerant wrapper around pool generations (the ``"process"``
    backend).

    Failure handling, in order:

    1. a slice whose future raises :class:`BrokenProcessPool` (worker
       SIGKILLed, OOMed, segfaulted) or exceeds ``slice_timeout_s`` marks
       the current pool generation dead and triggers **one** asynchronous
       respawn — a daemon thread spawns a fresh
       :class:`ProcessEpisodeExecutor` and primes it from
       ``runners_fn()``, i.e. the sessions' *current* runners, so
       tenants demoted to inline execution by a catalog hot-swap are
       covered again after the respawn;
    2. the failed slice is resubmitted up to ``max_retries`` times with
       bounded backoff (each attempt targets whatever pool generation is
       live by then);
    3. when retries run out — or no pool is up — the slice executes
       inline via the ``inline`` callable the gateway passes alongside
       the group.  Episodes are deterministic from plan + seeds, so the
       recovered results are bitwise identical to an undisturbed run.

    While a respawn is in flight :meth:`covers` returns ``False`` for
    every tenant, so the gateway routes whole groups inline instead of
    queueing against a dead pool.
    """

    def __init__(self, workers: int | None = None,
                 init_timeout_s: float = 60.0, max_retries: int = 2,
                 retry_backoff_s: float = 0.05,
                 slice_timeout_s: float | None = 30.0):
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0.0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        self.workers = workers
        self.init_timeout_s = init_timeout_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.slice_timeout_s = slice_timeout_s
        self.telemetry = None
        self.faults = None
        self.tracer = None
        self._runners_fn = None
        self._inner: ProcessEpisodeExecutor | None = None
        self._lock = threading.Lock()
        self._respawn_thread: threading.Thread | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, telemetry=None, faults=None, runners_fn=None,
             tracer=None) -> None:
        """Attach gateway collaborators (called before :meth:`start`)."""
        if telemetry is not None:
            self.telemetry = telemetry
        if faults is not None:
            self.faults = faults
        if runners_fn is not None:
            self._runners_fn = runners_fn
        if tracer is not None:
            self.tracer = tracer

    def _new_pool(self) -> ProcessEpisodeExecutor:
        return ProcessEpisodeExecutor(workers=self.workers,
                                      init_timeout_s=self.init_timeout_s)

    def start(self, runners: dict[str, ExperimentRunner]) -> None:
        if self._inner is not None:
            raise RuntimeError("executor already started")
        if self._runners_fn is None:
            # fall back to re-priming with the start-time snapshot
            self._runners_fn = lambda: runners
        pool = self._new_pool()
        pool.start(runners)
        self._inner = pool

    def shutdown(self) -> None:
        self._closed = True
        respawn = self._respawn_thread
        if respawn is not None and respawn.is_alive():
            respawn.join(timeout=self.init_timeout_s + 5.0)
        with self._lock:
            pool, self._inner = self._inner, None
        if pool is not None:
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether a live pool generation is installed (False mid-respawn)."""
        return self._inner is not None

    def covers(self, tenant: str) -> bool:
        pool = self._inner
        return pool is not None and pool.covers(tenant)

    def uncover(self, tenant: str) -> None:
        pool = self._inner
        if pool is not None:
            pool.uncover(tenant)

    def worker_pids(self) -> list[int]:
        pool = self._inner
        return pool.worker_pids() if pool is not None else []

    def kill_one_worker(self) -> int | None:
        pool = self._inner
        return pool.kill_one_worker() if pool is not None else None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, tenant: str, scheme: str, model: str, quant: str,
                queries: list[Query], plans: list,
                inline=None, traces=None) -> list[EpisodeResult]:
        """Run one planned group, surviving worker death mid-flight.

        ``traces`` (one :class:`~repro.obs.trace.TraceContext` or
        ``None`` per request) crosses the pickle boundary with its
        (query, plan); traced episodes come back with a ``worker-slice``
        span built inside the worker — or an ``inline-slice`` span when
        the fallback ran them on this thread — emitted through the bound
        tracer.  Retries, injected crashes and fallbacks are recorded as
        events on the owning traces.
        """
        pool = self._inner
        if pool is None:
            raise RuntimeError("executor is not running")
        if self.faults is not None:
            action = self.faults.decide("process.execute")
            if action is not None and action.kind == "crash":
                if self.kill_one_worker() is not None:
                    if self.telemetry:
                        self.telemetry.record_fault("process.execute")
                    if self.tracer is not None and traces:
                        for ctx in traces:
                            self.tracer.event(ctx, "fault",
                                              {"hook": "process.execute"})
        cell = (tenant, scheme, model, quant)
        items = list(zip(queries, plans,
                         traces if traces is not None else [None] * len(queries)))
        n_slices = min(pool.workers, len(items))
        if n_slices == 0:
            return []
        slices = [items[start::n_slices] for start in range(n_slices)]
        try:
            futures = [pool.submit_slice(cell, chunk) for chunk in slices]
        except (BrokenProcessPool, RuntimeError):
            # the pool died between covers() and dispatch
            self._note_broken(pool)
            futures = [None] * len(slices)
        episodes: list[EpisodeResult | None] = [None] * len(items)
        for start, (future, chunk) in enumerate(zip(futures, slices)):
            results = None
            if future is not None:
                try:
                    results, spans = future.result(
                        timeout=self.slice_timeout_s)
                    self._emit_spans(spans)
                except (BrokenProcessPool, FutureTimeoutError):
                    self._note_broken(pool)
            if results is None:
                results = self._recover_slice(cell, chunk, inline)
            episodes[start::n_slices] = results
        return episodes

    def _emit_spans(self, spans) -> None:
        """Emit worker-built (pickled-back) spans through the tracer."""
        if self.tracer is not None:
            for span in spans:
                self.tracer.emit(span)

    def _recover_slice(self, cell, items, inline) -> list[EpisodeResult]:
        """Retry one failed slice with backoff, then fall back inline."""
        tenant = cell[0]
        tracer = self.tracer
        for attempt in range(1, self.max_retries + 1):
            time.sleep(self.retry_backoff_s * attempt)
            pool = self._inner
            if pool is None or not pool.covers(tenant):
                continue  # respawn still in flight
            if self.telemetry:
                self.telemetry.record_slice_retry()
            if tracer is not None:
                for _, _, ctx in items:
                    tracer.event(ctx, "retry", {"attempt": attempt})
            try:
                results, spans = pool.submit_slice(cell, items).result(
                    timeout=self.slice_timeout_s)
                self._emit_spans(spans)
                return results
            except (BrokenProcessPool, FutureTimeoutError, RuntimeError):
                self._note_broken(pool)
        if self.telemetry:
            self.telemetry.record_inline_fallback()
        if inline is None:
            raise BrokenProcessPool(
                f"worker pool died executing {cell!r} and no inline "
                f"fallback was provided")
        if tracer is not None:
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
                        ctx, query.qid, started, time.monotonic(),
                        inline=True))
            return episodes
        return inline([query for query, _, _ in items],
                      [plan for _, plan, _ in items])

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def _note_broken(self, pool: ProcessEpisodeExecutor) -> None:
        """Retire a dead pool generation and kick off one async respawn."""
        with self._lock:
            if self._inner is not pool:
                return  # another slice already reported this generation
            self._inner = None
            if self.telemetry:
                self.telemetry.record_worker_restart()
            thread = threading.Thread(target=self._respawn, args=(pool,),
                                      name="serving-pool-respawn",
                                      daemon=True)
            self._respawn_thread = thread
        thread.start()

    def _respawn(self, dead: ProcessEpisodeExecutor) -> None:
        dead.shutdown(wait=False)
        if self._closed:
            return
        replacement = self._new_pool()
        try:
            # re-prime from the *current* runners: tenants hot-swapped
            # (and uncover()ed) since the last generation come back with
            # their post-swap state instead of staying inline forever
            replacement.start(dict(self._runners_fn()))
        except Exception:
            # spawn failed (resources, init barrier): stay inline — every
            # group still serves through the gateway's fallback path
            replacement.shutdown(wait=False)
            return
        with self._lock:
            if self._closed or self._inner is not None:
                replacement.shutdown(wait=False)
                return
            self._inner = replacement


# ----------------------------------------------------------------------
# worker-process side
# ----------------------------------------------------------------------
#: tenant -> runner snapshot, installed by the pool initializer
_RUNNERS: dict[str, ExperimentRunner] = {}
#: (tenant, scheme, model, quant) -> agent, built lazily per worker
_AGENTS: dict[tuple[str, str, str, str], object] = {}


def _init_worker(runners: dict[str, ExperimentRunner], barrier, arrivals,
                 timeout_s: float = 60.0) -> None:
    global _RUNNERS
    _RUNNERS = runners
    _AGENTS.clear()
    with arrivals.get_lock():
        arrivals.value += 1
    # rendezvous with the parent and every sibling (see start())
    barrier.wait(timeout=timeout_s)


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
