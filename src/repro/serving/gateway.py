"""The serving front door: request intake, batching, episode execution.

``Gateway.submit`` is the whole client API: it resolves the tenant's
:class:`~repro.serving.session.TenantSession` (once — the request
carries it to accounting), applies admission control, queues the
request on the micro-batch scheduler and awaits the episode result.
Batches are planned through the agents' vectorized :meth:`plan_batch`
(one ``encode`` and one multi-query search per index for the whole
batch) and then executed per-episode with :meth:`run_planned` — so a
served episode is bitwise identical to running the same query through
the sequential :class:`~repro.evaluation.runner.ExperimentRunner` path.
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
from repro.power import BudgetController, EnergyMeter
from repro.power.budget import REDUCED_K_SCHEME, RUNGS
from repro.serving.batcher import BatchScheduler, PendingRequest
from repro.serving.faults import InjectedFaultError, as_injector
from repro.serving.session import SessionManager, TenantSession
from repro.serving.telemetry import Telemetry
from repro.specs import ServingSpec
from repro.suites.base import Query


class DeadlineExceededError(TimeoutError):
    """The request's end-to-end deadline (``timeout_ms``) expired.

    Raised by :meth:`Gateway.submit`; the abandoned request is dropped
    from the queue before the next batch is cut (already-executing work
    finishes but its result is discarded), so a stalled executor can
    never hang a client future forever.
    """


class TenantShedError(RuntimeError):
    """The tenant is shed by the budget controller; retry later.

    The final rung of the CarbonCall ladder: a tenant that stays over its
    energy budget has its requests rejected at admission
    (cheapest possible failure) until probation steps it back up.
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
    """Scheduler payload: the resolved session, query and agent cell.

    ``session`` is the tenant registration ``submit`` resolved: the
    batch worker plans, runs and accounts the request on it without
    looking the name up again, so work queued before a DELETE + PUT
    finishes on the removed tenant and never reaches its successor.
    ``trace`` carries the request's :class:`TraceContext` (parented to
    the root ``request`` span) across the scheduler's thread boundary;
    ``None`` for unsampled requests and untraced gateways.
    """

    session: TenantSession
    query: Query
    scheme: str
    model: str
    quant: str
    trace: TraceContext | None = None


class _PlanCache:
    """Bounded LRU of ``(incarnation, catalog version, query, cell)`` -> plan.

    Plans are deterministic per query — the recommender, the embedder
    and the batch-invariant retrieval kernels all draw from named
    streams — so replaying a memoized plan yields an episode bitwise
    identical to re-planning (asserted in
    ``tests/test_serving_plan_cache.py``).  The tenant slot is the
    session's :attr:`~repro.serving.session.TenantSession.incarnation`,
    so a tenant re-registered under the same name never reaches its
    predecessor's plans (they age out of the LRU); the query *text*
    rides in the key alongside the qid, and the tenant's **catalog
    version** rides in it so :meth:`Gateway.update_catalog` implicitly
    invalidates every plan computed against the previous catalog — a
    stale plan can never be served across a hot-swap
    (``tests/test_serving_catalog_swap.py``).

    Lock-protected, so a lookup is safe from any thread.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def key(incarnation: int, query: Query, scheme: str, model: str,
            quant: str, catalog_version: str = "") -> tuple:
        return (incarnation, catalog_version, query.qid, query.text,
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
    round-robin fairness, one batch in flight) and a
    :class:`Telemetry` recorder exposed through :meth:`metrics`.
    """

    def __init__(
        self,
        sessions: SessionManager,
        config: ServingSpec | None = None,
    ):
        self.sessions = sessions
        self.config = config if config is not None else ServingSpec()
        self.telemetry = Telemetry()
        self._faults = as_injector(self.config.faults)
        # built from the config's ObsSpec (None: tracing off entirely);
        # stop() closes its sink
        self.tracer = build_tracer(self.config.obs)
        self.costs_ledger = CostLedger()
        self.scheduler = BatchScheduler(self.config, telemetry=self.telemetry)
        self._plan_cache = (_PlanCache(self.config.plan_cache_size)
                            if self.config.plan_cache_size > 0 else None)
        # carbon accounting: the meter is always on (it reads each
        # episode's joules, at the budget's grid intensity or the
        # default one); the BudgetController only runs when a
        # BudgetSpec is configured
        budget = self.config.budget
        self.power_meter = (EnergyMeter() if budget is None else EnergyMeter(
            intensity_g_per_kwh=budget.intensity_g_per_kwh,
            window_requests=budget.window_requests))
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
        await self.scheduler.start(self._process_batch)
        if self.config.budget is not None:
            self.budget = BudgetController(
                self.sessions, self.config.budget, meter=self.power_meter,
                telemetry=self.telemetry, tracer=self.tracer)
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
        await self.scheduler.stop()
        if self.tracer is not None:
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
        while the budget controller sheds the tenant, and
        :class:`DeadlineExceededError` when the deadline expires before
        a result lands.
        """
        session = self.sessions.get(tenant)
        rung = RUNGS[session.rung]
        if rung == "shed":
            self.telemetry.record_shed_request(tenant)
            raise TenantShedError(
                f"tenant {tenant!r} is shed under overload; retry later")
        resolved = session.resolve_query(query)
        # every request gets a deterministic trace id — a pure function
        # of (tenant, qid, repeat) — whether or not tracing is enabled;
        # responses carry it and the HTTP edge surfaces it as X-Trace-Id.
        # No lock: submit() runs on the event loop only
        repeat = session.repeats.get(resolved.qid, 0)
        session.repeats[resolved.qid] = repeat + 1
        trace_id = request_trace_id(tenant, resolved.qid, repeat)
        # the root "request" span: admission to reply.  Downstream spans
        # (queue/plan/execute) parent to it through the WorkItem's
        # TraceContext; per-sampling ctx may be None, making every
        # downstream tracing touch a single is-None branch.
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
            session=session,
            query=resolved,
            # a degraded tenant's default traffic runs the reduced-k
            # scheme; explicit per-request schemes are honored as-is
            scheme=scheme or (REDUCED_K_SCHEME if rung != "full"
                              else self.config.default_scheme),
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
            del future  # exc's traceback holds this frame; future holds exc
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
        """Liveness summary for the HTTP ``/healthz`` endpoint."""
        return {
            "scheduler_running": self.scheduler.running,
            "pending": self.scheduler.pending,
            "tenants": sorted(self.sessions.tenant_names),
        }

    def rung(self, tenant: str) -> str:
        """The tenant's ladder rung (``"full"`` at rest)."""
        return RUNGS[self.sessions.get(tenant).rung]

    def budget_status(self, tenant: str) -> dict:
        """The tenant's rolling energy/carbon window plus its energy budget."""
        stats = self.power_meter.window_stats(self.sessions.get(tenant))
        status = {
            "window_requests": stats.requests,
            "window_energy_j": stats.energy_j,
            "window_carbon_g": stats.carbon_g,
            "mean_energy_j": stats.mean_energy_j,
            "mean_carbon_g": stats.mean_carbon_g,
        }
        if self.config.budget is not None:
            status["energy_budget_j"] = self.config.budget.energy_budget_j
        return status

    def is_shed(self, tenant: str) -> bool:
        """Whether :meth:`submit` currently rejects this tenant."""
        return self.rung(tenant) == "shed"

    def scheme_override(self, tenant: str) -> str | None:
        """The scheme the tenant's default traffic is degraded to, if any."""
        if self.rung(tenant) == "full":
            return None
        return REDUCED_K_SCHEME

    def metrics_text(self) -> str:
        """Telemetry + cost ledger in Prometheus text exposition format.

        What the HTTP edge's ``GET /metrics`` serves — rendering runs
        off the telemetry *snapshot*, so a scrape never holds the
        recording locks for longer than one dict copy.  The process's
        resident memory and the session embedder's cache are read fresh
        for each render.
        """
        from repro.obs.prometheus import render_prometheus

        self.telemetry.record_process_memory()
        self.telemetry.record_embedder_cache(
            self.sessions.embedder.cache_info())
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
        :class:`~repro.specs.CatalogSpec` (name + variant).

        The tenant's Search Levels are re-indexed and its default agent
        cell warmed against the new catalog *before* the atomic swap, so
        in-flight flushes finish on the complete old state and the next
        flush plans on the complete new one.  Because the plan-cache key
        carries the catalog version, plans cached under the previous
        catalog are unreachable from the moment the swap lands — no
        explicit cache flush, no stale replies.  A catalog missing a
        tool the tenant's queries still reference fails validation and
        leaves the tenant serving the old catalog.
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
        self.telemetry.record_catalog_swap(tenant)
        return version

    # ------------------------------------------------------------------
    # batch execution (worker thread)
    # ------------------------------------------------------------------
    def _process_batch(
        self, batch: list[PendingRequest],
    ) -> list[ServingResponse | Exception]:
        """Plan the whole micro-batch vectorized, then run each episode.

        Requests are grouped by ``(session, scheme, model, quant)`` — the
        session ``submit`` resolved, never a fresh lookup by name; each
        group's planning stage becomes one ``plan_batch`` call against
        that session's agent, coalescing every request's embedding and
        Level-1/Level-2 retrieval into single kernel invocations.  The
        planned episodes then run on this batch-worker thread through
        ``run_planned_many``.

        Failures are contained per group: an invalid model name (or any
        agent error) fails only the requests sharing that grid cell —
        their slots carry the exception back to the scheduler — while the
        rest of the micro-batch is served normally.  Past admission, this
        is the one place a request's faults and spans are recorded: the
        chaos hooks (``batch.process`` for the whole batch, then
        ``gateway.group`` per group) fire here, on the batch worker.
        """
        tracer = self.tracer
        if self._faults is not None:
            action = self._faults.decide("batch.process")
            if action is not None:
                self.telemetry.record_fault("batch.process")
                if tracer is not None:
                    for request in batch:
                        tracer.event(request.payload.trace, "fault", {
                            "hook": "batch.process",
                            "sleep_ms": action.sleep_s * 1e3})
                time.sleep(action.sleep_s)
        groups: dict[tuple[TenantSession, str, str, str], list[int]] = {}
        for position, request in enumerate(batch):
            item: WorkItem = request.payload
            key = (item.session, item.scheme, item.model, item.quant)
            groups.setdefault(key, []).append(position)

        responses: list[ServingResponse | Exception | None] = [None] * len(batch)
        for (session, scheme, model, quant), positions in groups.items():
            tenant = session.name
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
                    agent, session, scheme, model, quant, queries,
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
                execute_spans = [tracer.start_span(trace, "execute")
                                 for trace in traced]
                try:
                    episodes = agent.run_planned_many(queries, plans)
                except Exception:
                    for span in execute_spans:
                        tracer.end_span(span, status="error")
                    raise
                for span in execute_spans:
                    tracer.end_span(span)
                variant = session.suite.catalog.variant
                for plan, position, episode in zip(plans, positions, episodes):
                    request = batch[position]
                    self.costs_ledger.record(CostRecord(
                        tenant=tenant,
                        variant=variant,
                        tool_prompt_tokens=plan_tool_tokens(plan),
                        prompt_tokens=episode.prompt_tokens,
                        completion_tokens=episode.completion_tokens,
                        llm_calls=episode.n_llm_calls,
                        catalog_version=catalog_version,
                    ))
                    energy = self.power_meter.record(session, episode)
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

    def _plan_group(self, agent, session: TenantSession, scheme: str,
                    model: str, quant: str, queries: list[Query],
                    catalog_version: str = "") -> tuple[list, list[bool]]:
        """Plan one (session, cell) group, serving repeats from the cache.

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
        keys = [cache.key(session.incarnation, query, scheme, model, quant,
                          catalog_version) for query in queries]
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
