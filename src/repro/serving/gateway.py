"""The serving front door: request intake, batching, episode execution.

``Gateway.submit`` is the whole client API: it resolves the tenant,
applies admission control, queues the request on the micro-batch
scheduler and awaits the episode result.  Batches are planned through
the agents' vectorized :meth:`plan_batch` (one ``encode`` and one
multi-query search per index for the whole batch) and then executed
per-episode with :meth:`run_planned` — so a served episode is bitwise
identical to running the same query through the sequential
:class:`~repro.evaluation.runner.ExperimentRunner` path.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.episode import EpisodeResult
from repro.obs.cost import CostLedger, CostRecord, plan_tool_tokens
from repro.obs.trace import TraceContext, build_tracer, request_trace_id
from repro.power import BudgetController, EnergyMeter, build_signal
from repro.registry import SERVING_BACKENDS, register_serving_backend
from repro.serving.batcher import BatchScheduler, PendingRequest
from repro.serving.degrade import DegradationController, LadderArbiter
from repro.serving.faults import InjectedFaultError, as_injector
from repro.serving.session import SessionManager
from repro.serving.telemetry import Telemetry
from repro.specs import ServingSpec
from repro.suites.base import Query


@register_serving_backend("thread")
def _thread_stage(config: ServingSpec) -> None:
    """Inline execution on the gateway's batch worker (no stage object)."""
    return None


class DeadlineExceededError(TimeoutError):
    """The request's end-to-end deadline (``timeout_ms``) expired.

    Raised by :meth:`Gateway.submit`; the abandoned request is dropped
    from the queue before the next batch is cut (already-executing work
    finishes but its result is discarded), so a stalled executor can
    never hang a client future forever.
    """


class TenantShedError(RuntimeError):
    """The tenant is shed by the degradation controller; retry later.

    The final rung of the CarbonCall degradation ladder: under sustained
    overload a tenant's requests are rejected at admission (cheapest
    possible failure) until pressure clears and the controller steps the
    tenant back up.
    """


def _stamp_trace(exc: BaseException, trace_id: str) -> None:
    """Attach the request's trace id to an outgoing exception (best
    effort — exceptions with ``__slots__`` simply go unstamped)."""
    try:
        exc.trace_id = trace_id
    except AttributeError:
        pass


@dataclass(frozen=True)
class WorkItem:
    """Scheduler payload: the resolved query and its agent cell.

    ``trace`` carries the request's :class:`TraceContext` (parented to
    the root ``request`` span) across the scheduler's thread boundary;
    ``None`` for unsampled requests and untraced gateways.
    """

    query: Query
    scheme: str
    model: str
    quant: str
    trace: TraceContext | None = None


class _PlanCache:
    """Bounded LRU of ``(tenant, catalog version, query, cell) -> ToolPlan``.

    Plans are deterministic per query — the recommender, the embedder
    and the batch-invariant retrieval kernels all draw from named
    streams — so replaying a memoized plan yields an episode bitwise
    identical to re-planning (asserted in
    ``tests/test_serving_plan_cache.py``).  The query *text* rides in
    the key alongside the qid so a tenant re-registered with different
    content cannot alias a stale plan, and the tenant's **catalog
    version** rides in it so :meth:`Gateway.update_catalog` implicitly
    invalidates every plan computed against the previous catalog — a
    stale plan can never be served across a hot-swap
    (``tests/test_serving_catalog_swap.py``).

    Lock-protected: lookups run on the batch worker while ``clear`` may
    be called from anywhere.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def key(tenant: str, query: Query, scheme: str, model: str, quant: str,
            catalog_version: str = "") -> tuple:
        return (tenant, catalog_version, query.qid, query.text,
                scheme, model, quant)

    def get(self, key: tuple):
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
            return plan

    def put(self, key: tuple, plan) -> None:
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def forget(self, tenant: str) -> None:
        """Drop every plan cached under ``tenant`` (a removed name)."""
        with self._lock:
            for key in [key for key in self._entries if key[0] == tenant]:
                del self._entries[key]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


@dataclass
class ServingResponse:
    """What a client gets back for one request."""

    tenant: str
    episode: EpisodeResult
    #: size of the micro-batch this request rode in
    batch_size: int
    #: seconds spent waiting in the queue before the batch was cut
    queued_s: float
    #: total client-observed seconds, stamped by :meth:`Gateway.submit`
    latency_s: float = 0.0
    #: deterministic request id (:func:`repro.obs.trace.request_trace_id`),
    #: assigned whether or not tracing is enabled
    trace_id: str = ""


class Gateway:
    """Async front door serving function-calling requests at scale.

    Usage::

        sessions = SessionManager()
        sessions.register("home", load_suite("edgehome"))
        async with Gateway(sessions) as gateway:
            response = await gateway.submit("home", query)

    The gateway owns a :class:`BatchScheduler` (bounded queue, per-tenant
    round-robin fairness, deadline-based flushing) and a
    :class:`Telemetry` recorder exposed through :meth:`metrics`.
    """

    def __init__(
        self,
        sessions: SessionManager,
        config: ServingSpec | None = None,
        telemetry: Telemetry | None = None,
        faults=None,
        degradation=None,
        tracer=None,
    ):
        self.sessions = sessions
        self.config = config if config is not None else ServingSpec()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._faults = as_injector(faults)
        # an explicit tracer (tests, embedding hosts) wins over the
        # config's ObsSpec; both absent means tracing is off entirely.
        # stop() closes only a sink the gateway built itself
        self.tracer = tracer if tracer is not None else build_tracer(
            self.config.obs)
        self._owns_tracer = tracer is None and self.tracer is not None
        self.costs_ledger = CostLedger()
        self.scheduler = BatchScheduler(self._process_batch, self.config,
                                        telemetry=self.telemetry,
                                        faults=self._faults,
                                        tracer=self.tracer)
        self._process_stage = None
        self._plan_cache = (_PlanCache(self.config.plan_cache_size)
                            if self.config.plan_cache_size > 0 else None)
        # degradation state, written by the LadderArbiter (or an
        # operator) and read by submit(); event-loop-only, like submit()
        # and both controllers' ticks
        self._shed_tenants: frozenset[str] = frozenset()
        self._scheme_overrides: dict[str, str] = {}
        # per-(tenant, qid) repeat counter backing the deterministic
        # trace ids; no lock — submit() runs on the event loop only
        self._request_repeats: dict[tuple[str, str], int] = {}
        self._degradation_policy = degradation
        self.degradation = None  # controller, built in start() when enabled
        self._degradation_task: asyncio.Task | None = None
        # the shared rung arbiter both controllers write through
        self.ladder = LadderArbiter(self)
        # carbon/power accounting: the meter is always on (attribution
        # is cheap and read-only); the BudgetController only runs when a
        # BudgetSpec is configured
        budget = self.config.budget
        self.power_meter = EnergyMeter(
            signal=build_signal(budget),
            window_requests=budget.window_requests if budget is not None else 32)
        self.budget = None  # controller, built in start() when enabled
        self._budget_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Warm every tenant's default agent cell and begin accepting."""
        self.sessions.warm_all(self.config.default_scheme,
                               self.config.default_model,
                               self.config.default_quant)
        stage_factory = SERVING_BACKENDS.get(self.config.execution_backend)
        self._process_stage = stage_factory(self.config)
        if self._process_stage is not None:
            if hasattr(self._process_stage, "bind"):
                # the supervised stage records restarts/retries in the
                # gateway's telemetry, consults the fault injector, and
                # re-primes respawned pools from the *current* runners
                self._process_stage.bind(telemetry=self.telemetry,
                                         faults=self._faults,
                                         runners_fn=self.sessions.runners,
                                         tracer=self.tracer)
            # prime the worker pool with each tenant's warmed runner
            # (suite + Search Levels + embedder snapshot) *before* the
            # scheduler starts, so all process spawning happens while
            # only this coroutine is active
            self._process_stage.start(self.sessions.runners())
        await self.scheduler.start()
        if self._degradation_policy is not None:
            self.degradation = DegradationController(
                self, self._degradation_policy)
            self._degradation_task = asyncio.get_running_loop().create_task(
                self.degradation.run(), name="degradation-controller")
        if self.config.budget is not None:
            self.budget = BudgetController(
                self, self.config.budget, meter=self.power_meter)
            self._budget_task = asyncio.get_running_loop().create_task(
                self.budget.run(), name="budget-controller")

    async def stop(self) -> None:
        if self._budget_task is not None:
            self._budget_task.cancel()
            try:
                await self._budget_task
            except asyncio.CancelledError:
                pass
            self._budget_task = None
        if self._degradation_task is not None:
            self._degradation_task.cancel()
            try:
                await self._degradation_task
            except asyncio.CancelledError:
                pass
            self._degradation_task = None
        await self.scheduler.stop()
        if self._process_stage is not None:
            self._process_stage.shutdown()
            self._process_stage = None
        if self._owns_tracer:
            close = getattr(self.tracer.sink, "close", None)
            if close is not None:
                close()

    async def __aenter__(self) -> "Gateway":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    async def submit(
        self,
        tenant: str,
        query: Query | str,
        scheme: str | None = None,
        model: str | None = None,
        quant: str | None = None,
        timeout_ms: float | None = None,
    ) -> ServingResponse:
        """Serve one function-calling request end to end.

        ``query`` may be a :class:`Query` or a qid string resolved
        against the tenant's suite.  ``timeout_ms`` overrides the
        config's end-to-end deadline for this request.  Raises
        :class:`~repro.serving.session.UnknownTenantError` for unknown
        tenants, :class:`~repro.serving.batcher.QueueFullError` when
        admission control rejects the request, :class:`TenantShedError`
        while the degradation controller sheds the tenant, and
        :class:`DeadlineExceededError` when the deadline expires before
        a result lands.
        """
        if tenant in self._shed_tenants:
            self.telemetry.record_shed_request(tenant)
            raise TenantShedError(
                f"tenant {tenant!r} is shed under overload; retry later")
        session = self.sessions.get(tenant)
        resolved = session.resolve_query(query)
        # every request gets a deterministic trace id — a pure function
        # of (tenant, qid, repeat) — whether or not tracing is enabled;
        # responses carry it and the HTTP edge surfaces it as X-Trace-Id
        repeat_key = (tenant, resolved.qid)
        repeat = self._request_repeats.get(repeat_key, 0)
        self._request_repeats[repeat_key] = repeat + 1
        trace_id = request_trace_id(tenant, resolved.qid, repeat)
        # the root "request" span: admission to reply.  Downstream spans
        # (queue/plan/execute, worker slices) parent to it through the
        # WorkItem's TraceContext; per-sampling ctx may be None, making
        # every downstream tracing touch a single is-None branch.
        ctx = root_span = None
        if self.tracer is not None:
            ctx = self.tracer.sampled(trace_id)
            if ctx is not None:
                root_span = self.tracer.start_span(ctx, "request", attributes={
                    "tenant": tenant, "qid": resolved.qid})
                root_span.add_event("admit",
                                    {"queue_depth": self.scheduler.pending})
                ctx = ctx.child(root_span.span_id)
        item = WorkItem(
            query=resolved,
            # a degraded tenant's default traffic runs the reduced-k
            # scheme; explicit per-request schemes are honored as-is
            scheme=scheme or self._scheme_overrides.get(tenant)
            or self.config.default_scheme,
            model=model or self.config.default_model,
            quant=quant or self.config.default_quant,
            trace=ctx,
        )
        timeout_s = (timeout_ms / 1e3 if timeout_ms is not None
                     else self.config.timeout_s)
        started = time.perf_counter()
        try:
            future = self.scheduler.submit(tenant, item)
        except Exception as exc:  # admission rejected (queue full, stopped)
            _stamp_trace(exc, trace_id)
            if root_span is not None:
                root_span.attributes["error"] = type(exc).__name__
                self.tracer.end_span(root_span, status="error")
            raise
        try:
            if timeout_s is not None:
                response: ServingResponse = await asyncio.wait_for(
                    future, timeout=timeout_s)
            else:
                response = await future
        except asyncio.TimeoutError:
            # wait_for cancelled the future; if the request is still
            # queued the scheduler drops it at the next batch cut
            self.telemetry.record_deadline_timeout()
            self.telemetry.record_completion(0.0, ok=False)
            if root_span is not None:
                self.tracer.end_span(root_span, status="deadline_exceeded")
            error = DeadlineExceededError(
                f"request for tenant {tenant!r} missed its "
                f"{timeout_s * 1e3:g}ms deadline")
            _stamp_trace(error, trace_id)
            raise error from None
        except Exception as exc:
            self.telemetry.record_completion(0.0, ok=False)
            _stamp_trace(exc, trace_id)
            if root_span is not None:
                root_span.attributes["error"] = type(exc).__name__
                self.tracer.end_span(root_span, status="error")
            raise
        response.trace_id = trace_id
        response.latency_s = time.perf_counter() - started
        self.telemetry.record_completion(response.latency_s, ok=True)
        if root_span is not None:
            root_span.add_event("reply", {
                "batch_size": response.batch_size,
                "latency_ms": response.latency_s * 1e3})
            self.tracer.end_span(root_span)
        return response

    def metrics(self) -> dict:
        """Current telemetry snapshot (queue, batches, latency percentiles)."""
        return self.telemetry.snapshot()

    def health(self) -> dict:
        """Liveness summary for the HTTP ``/healthz`` endpoint.

        ``scheduler_running`` covers the event-loop side; with the
        process execution backend, ``workers_running``/``worker_pids``
        cover the pool (a supervised stage mid-respawn reports
        ``workers_running=False`` without failing the whole check —
        episodes fall back inline meanwhile).
        """
        health = {
            "scheduler_running": self.scheduler.running,
            "pending": self.scheduler.pending,
            "tenants": sorted(self.sessions.tenant_names),
            "execution_backend": self.config.execution_backend,
        }
        stage = self._process_stage
        if stage is not None:
            health["workers_running"] = bool(getattr(stage, "running", True))
            worker_pids = getattr(stage, "worker_pids", None)
            if worker_pids is not None:
                health["worker_pids"] = list(worker_pids())
        return health

    def rung(self, tenant: str) -> str:
        """The tenant's effective degradation rung (``"full"`` at rest)."""
        return self.ladder.rung(tenant)

    def rung_source(self, tenant: str) -> str:
        """Which controller pins the tenant's rung (``"pressure"``,
        ``"budget"``, both, or ``"none"`` at the top rung)."""
        return self.ladder.rung_source(tenant)

    def power_mode(self) -> str:
        """The nvpmodel mode the accounting layer costs new work under."""
        return self.power_meter.power_mode

    def budget_status(self, tenant: str) -> dict:
        """The tenant's rolling energy/carbon window plus any budgets."""
        stats = self.power_meter.window_stats(tenant)
        status = {
            "window_requests": stats.requests,
            "window_energy_j": stats.energy_j,
            "window_carbon_g": stats.carbon_g,
            "mean_energy_j": stats.mean_energy_j,
            "mean_carbon_g": stats.mean_carbon_g,
        }
        if self.config.budget is not None:
            status["energy_budget_j"] = self.config.budget.energy_budget_j
            status["carbon_budget_g"] = self.config.budget.carbon_budget_g
        return status

    def is_shed(self, tenant: str) -> bool:
        """Whether :meth:`submit` currently rejects this tenant."""
        return tenant in self._shed_tenants

    def scheme_override(self, tenant: str) -> str | None:
        """The scheme the tenant's default traffic is degraded to, if any."""
        return self._scheme_overrides.get(tenant)

    def metrics_text(self) -> str:
        """Telemetry + cost ledger in Prometheus text exposition format.

        The future ASGI ``/metrics`` endpoint is
        ``PlainTextResponse(gateway.metrics_text())`` — rendering runs
        off the telemetry *snapshot*, so a scrape never holds the
        recording locks for longer than one dict copy.
        """
        from repro.obs.prometheus import render_prometheus

        return render_prometheus(self.telemetry.snapshot(),
                                 cost=self.costs_ledger.snapshot())

    def costs(self) -> dict:
        """Per-tenant token-cost snapshot (see :class:`CostLedger`)."""
        return self.costs_ledger.snapshot()

    def update_catalog(self, tenant: str, catalog) -> str:
        """Hot-swap one tenant's tool catalog; returns the new version.

        ``catalog`` may be a ready
        :class:`~repro.tools.catalog.ToolCatalog`, a registered catalog
        name (resolved through :data:`repro.registry.CATALOGS`), or a
        :class:`~repro.specs.CatalogSpec` (name + variant + subset).

        The tenant's Search Levels are re-indexed and its default agent
        cell warmed against the new catalog *before* the atomic swap, so
        in-flight flushes finish on the complete old state and the next
        flush plans on the complete new one.  Because the plan-cache key
        carries the catalog version, plans cached under the previous
        catalog are unreachable from the moment the swap lands — no
        explicit cache flush, no stale replies.  A catalog missing a
        tool the tenant's queries still reference fails validation and
        leaves the tenant serving the old catalog.

        With the ``"process"`` execution backend, worker processes hold
        the old runner snapshot; the swapped tenant falls back to inline
        execution (same results, bitwise) until the gateway restarts.
        """
        from repro.tools.catalog import ToolCatalog, load_catalog

        if isinstance(catalog, str):
            catalog = load_catalog(catalog)
        elif hasattr(catalog, "load") and not isinstance(catalog, ToolCatalog):
            catalog = catalog.load()  # CatalogSpec (or anything spec-shaped)
        session = self.sessions.get(tenant)
        warm_cell = (self.config.default_scheme, self.config.default_model,
                     self.config.default_quant)
        version = session.swap_catalog(catalog, warm_cell=warm_cell)
        if self._process_stage is not None:
            # workers were primed with the pre-swap runner snapshot;
            # route this tenant's episodes inline from now on
            self._process_stage.uncover(tenant)
        self.telemetry.record_catalog_swap(tenant)
        return version

    def remove_tenant(self, tenant: str) -> None:
        """Deregister ``tenant`` and drop the control-plane state kept
        under its name, so a tenant re-registered as ``tenant`` starts
        clean: not shed, no scheme override, rung ``full``, an empty
        energy window with no budget streaks, request repeats (trace
        ids) from zero, no cached plans, and executed inline until the
        next pool respawn re-primes the workers from the current
        runners.  Lifetime counters (telemetry, cost ledger) do not reset.
        Unknown names raise
        :class:`~repro.serving.session.UnknownTenantError`.
        """
        self.sessions.deregister(tenant)
        self.unshed_tenant(tenant)
        self.clear_scheme_override(tenant)
        self.ladder.forget(tenant)
        self.power_meter.forget(tenant)
        if self.budget is not None:
            self.budget.forget(tenant)
        for key in [key for key in self._request_repeats if key[0] == tenant]:
            del self._request_repeats[key]
        if self._plan_cache is not None:
            self._plan_cache.forget(tenant)
        if self._process_stage is not None:
            self._process_stage.uncover(tenant)

    # ------------------------------------------------------------------
    # degradation controls (driven by the DegradationController, but
    # equally usable by an operator for manual load management)
    # ------------------------------------------------------------------
    def shed_tenant(self, tenant: str) -> None:
        """Reject this tenant's submissions with :class:`TenantShedError`."""
        self._shed_tenants = self._shed_tenants | {tenant}

    def unshed_tenant(self, tenant: str) -> None:
        """Resume accepting this tenant's submissions."""
        self._shed_tenants = self._shed_tenants - {tenant}

    def set_scheme_override(self, tenant: str, scheme: str) -> None:
        """Route the tenant's default traffic to ``scheme`` (e.g. a
        reduced-``k`` cell); requests naming an explicit scheme are
        unaffected."""
        self._scheme_overrides[tenant] = scheme

    def clear_scheme_override(self, tenant: str) -> None:
        self._scheme_overrides.pop(tenant, None)

    # ------------------------------------------------------------------
    # batch execution (worker thread)
    # ------------------------------------------------------------------
    def _process_batch(
        self, batch: list[PendingRequest],
    ) -> list[ServingResponse | Exception]:
        """Plan the whole micro-batch vectorized, then run each episode.

        Requests are grouped by ``(tenant, scheme, model, quant)``; each
        group's planning stage becomes one ``plan_batch`` call against
        that tenant's agent, coalescing every request's embedding and
        Level-1/Level-2 retrieval into single kernel invocations.  The
        planned episodes then execute either inline on this batch-worker
        thread (the default) or across the process pool when the config
        selects the ``"process"`` execution backend — tenants registered
        after the pool was primed fall back to inline execution.

        Failures are contained per group: an invalid model name (or any
        agent error) fails only the requests sharing that grid cell —
        their slots carry the exception back to the scheduler — while the
        rest of the micro-batch is served normally.
        """
        groups: dict[tuple[str, str, str, str], list[int]] = {}
        for position, request in enumerate(batch):
            item: WorkItem = request.payload
            key = (request.tenant, item.scheme, item.model, item.quant)
            groups.setdefault(key, []).append(position)

        responses: list[ServingResponse | Exception | None] = [None] * len(batch)
        tracer = self.tracer
        for (tenant, scheme, model, quant), positions in groups.items():
            group_traces = [batch[position].payload.trace
                            for position in positions]
            traced = ([trace for trace in group_traces if trace is not None]
                      if tracer is not None else [])
            try:
                if self._faults is not None:
                    action = self._faults.decide("gateway.group")
                    if action is not None:
                        self.telemetry.record_fault("gateway.group")
                        for trace in traced:
                            tracer.event(trace, "fault",
                                         {"hook": "gateway.group"})
                        raise InjectedFaultError(
                            f"injected executor fault for group "
                            f"({tenant}, {scheme}, {model}, {quant})")
                # agent and catalog version are leased together so a
                # concurrent hot-swap cannot pair an old agent's plans
                # with the new catalog's cache key (or vice versa)
                session = self.sessions.get(tenant)
                agent, catalog_version = session.leased_agent(
                    scheme, model, quant)
                queries = [batch[position].payload.query for position in positions]
                if traced:
                    # synthesize queue spans from the scheduler's own
                    # enqueue/dequeue stamps (same monotonic clock)
                    for position, trace in zip(positions, group_traces):
                        if trace is None:
                            continue
                        request = batch[position]
                        queue_span = tracer.start_span(
                            trace, "queue", start_s=request.enqueued_at,
                            attributes={"batch_size": request.batch_size})
                        tracer.end_span(queue_span,
                                        end_s=request.dequeued_at)
                plan_start = time.monotonic()
                plans, plan_hits = self._plan_group(
                    agent, tenant, scheme, model, quant, queries,
                    catalog_version)
                if traced:
                    plan_end = time.monotonic()
                    # the group plans in one vectorized pass; each traced
                    # request gets its share of the pass as a span
                    for trace, hit in zip(group_traces, plan_hits):
                        if trace is None:
                            continue
                        plan_span = tracer.start_span(
                            trace, "plan", start_s=plan_start,
                            attributes={"group_size": len(positions),
                                        "cache_hit": hit})
                        tracer.end_span(plan_span, end_s=plan_end)
                stage = self._process_stage
                use_worker = stage is not None and stage.covers(tenant)
                execute_spans = [None] * len(positions)
                if traced:
                    backend = "worker" if use_worker else "inline"
                    execute_traces: list[TraceContext | None] = []
                    for index, trace in enumerate(group_traces):
                        if trace is None:
                            execute_traces.append(None)
                            continue
                        span = tracer.start_span(
                            trace, "execute", attributes={"backend": backend})
                        execute_spans[index] = span
                        execute_traces.append(trace.child(span.span_id))
                try:
                    if use_worker:
                        episodes = stage.execute(
                            tenant, scheme, model, quant, queries, plans,
                            inline=agent.run_planned_many,
                            traces=execute_traces if traced else None)
                    else:
                        episodes = agent.run_planned_many(queries, plans)
                except Exception:
                    for span in execute_spans:
                        if span is not None:
                            tracer.end_span(span, status="error")
                    raise
                for span in execute_spans:
                    if span is not None:
                        tracer.end_span(span)
                variant = getattr(session.suite.catalog, "variant", "full")
                for plan, position, episode in zip(plans, positions, episodes):
                    request = batch[position]
                    self.costs_ledger.record(CostRecord(
                        tenant=tenant,
                        variant=variant,
                        tool_prompt_tokens=plan_tool_tokens(plan),
                        prompt_tokens=getattr(episode, "prompt_tokens", 0),
                        completion_tokens=getattr(
                            episode, "completion_tokens", 0),
                        llm_calls=getattr(episode, "n_llm_calls", 0),
                        catalog_version=catalog_version,
                    ))
                    # carbon/power accounting: re-cost the episode's
                    # token counts under the active power mode (never
                    # touches the live agents — episode bits are final)
                    energy = self.power_meter.record(
                        tenant, episode, model=model, quant=quant,
                        context_window=getattr(plan, "context_window", None))
                    self.telemetry.record_energy(
                        tenant, energy.energy_j, energy.carbon_g)
                    responses[position] = ServingResponse(
                        tenant=tenant,
                        episode=episode,
                        batch_size=request.batch_size,
                        queued_s=max(0.0,
                                     request.dequeued_at - request.enqueued_at),
                    )
            except Exception as exc:  # noqa: BLE001 - contained per group
                for position in positions:
                    if responses[position] is None:
                        responses[position] = exc
        return responses

    def _plan_group(self, agent, tenant: str, scheme: str, model: str,
                    quant: str, queries: list[Query],
                    catalog_version: str = "") -> tuple[list, list[bool]]:
        """Plan one (tenant, cell) group, serving repeats from the cache.

        Returns ``(plans, cache_hits)`` — one plan and one hit flag per
        query (all flags ``False`` with the cache disabled), so plan
        spans can attribute cache hits per request.

        With ``plan_cache_size=0`` this is exactly ``agent.plan_batch``.
        Otherwise cached queries skip planning and only the misses ride
        the vectorized ``plan_batch`` pass — the kernels are
        batch-invariant, so planning a sub-batch produces the same plans
        the full batch would have.  ``catalog_version`` namespaces the
        cache keys per hot-swap generation.
        """
        cache = self._plan_cache
        if cache is None:
            return agent.plan_batch(queries), [False] * len(queries)
        keys = [cache.key(tenant, query, scheme, model, quant, catalog_version)
                for query in queries]
        plans: list = [cache.get(key) for key in keys]
        hits = [plan is not None for plan in plans]
        for hit in hits:
            self.telemetry.record_plan_lookup(hit=hit)
        misses = [index for index, plan in enumerate(plans) if plan is None]
        if misses:
            fresh = agent.plan_batch([queries[index] for index in misses])
            for index, plan in zip(misses, fresh):
                plans[index] = plan
                cache.put(keys[index], plan)
        return plans, hits
