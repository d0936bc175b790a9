"""Closed-loop load generator for the serving gateway.

``run_closed_loop`` drives a running gateway with ``concurrency``
clients, each submitting the next request from a shared workload as soon
as its previous one completes — the standard closed-loop model, whose
offered load adapts to service throughput.  The sync :func:`run_load`
wrapper owns the event loop and the gateway lifecycle, which is what
``repro load`` and the tests call.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.core.episode import EpisodeResult
from repro.obs.sinks import read_jsonl_spans
from repro.serving.gateway import Gateway
from repro.serving.telemetry import percentile
from repro.specs import ServingSpec
from repro.suites.base import BenchmarkSuite, Query


@dataclass(frozen=True)
class LoadSpec:
    """One request of the workload: tenant plus query."""

    tenant: str
    query: Query


@dataclass
class LoadReport:
    """Aggregate outcome of one closed-loop run."""

    n_requests: int
    concurrency: int
    wall_s: float
    latencies_s: list[float] = field(repr=False, default_factory=list)
    #: ``(tenant, qid, repeat) -> episode``, for equivalence checks
    #: against the offline runner.  ``repeat`` counts completions of the
    #: same (tenant, qid) pair, so a workload that cycles its query pool
    #: keeps *every* served episode — repeats never overwrite each other.
    episodes: dict[tuple[str, str, int], EpisodeResult] = field(
        repr=False, default_factory=dict)
    gateway_metrics: dict = field(default_factory=dict)
    #: per-tenant token accounting (:meth:`Gateway.costs` at run end)
    cost: dict = field(default_factory=dict)
    #: requests that failed (only populated under ``tolerate_errors``)
    n_errors: int = 0
    #: the offered requests, in order
    workload: list[LoadSpec] = field(repr=False, default_factory=list)

    @property
    def throughput_rps(self) -> float:
        """**Offered** load per wall-second — counts every request, failed
        ones included.  Use :attr:`goodput_rps` for served capacity."""
        return self.n_requests / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def goodput_rps(self) -> float:
        """Successfully served requests per wall-second.

        The honest capacity number for chaos runs: a run that failed 90%
        of its traffic reports ~10% of its offered :attr:`throughput_rps`
        here, not full throughput.
        """
        if self.wall_s <= 0:
            return 0.0
        return (self.n_requests - self.n_errors) / self.wall_s

    @property
    def success_rate(self) -> float:
        """Fraction of requests that produced an episode."""
        if self.n_requests == 0:
            return 0.0
        return (self.n_requests - self.n_errors) / self.n_requests

    def failures(self, config: ServingSpec) -> list[str]:
        """One message per invariant the drained run breaks (empty: sound).

        Telemetry accounts for every offered request (offered = admitted
        + rejected + shed, admitted = completed + failed).  ``LOST``: no
        request fails unless ``config`` makes a loss expected (fault-plan
        exceptions, a deadline or a budget; a stalled batch still
        finishes).  ``MISMATCH``: when every request was traced into a
        ``jsonl`` artifact, its ``fault`` spans' hooks are the hooks
        telemetry counted.
        """
        metrics, failures = self.gateway_metrics, []
        admitted = metrics["requests_admitted"]
        offered = (admitted + metrics["requests_rejected"]
                   + metrics["shed_requests"])
        settled = metrics["requests_completed"] + metrics["requests_failed"]
        if offered != self.n_requests:
            failures.append(f"{self.n_requests} requests offered, telemetry "
                            f"admitted, rejected or shed {offered}")
        if admitted != settled:
            failures.append(f"{admitted} requests admitted, telemetry "
                            f"completed or failed {settled}")
        if (self.n_errors and config.timeout_ms is None and config.budget is None
                and not (config.faults and config.faults.exception_rate)):
            # every served episode is kept, so what the workload offered
            # and no episode answers is what was lost
            lost = (Counter((load.tenant, load.query.qid)
                            for load in self.workload)
                    - Counter(key[:2] for key in self.episodes))
            failures.append(
                f"LOST: {self.n_errors} request(s) failed under recoverable "
                f"faults only: " + ", ".join(
                    f"{tenant}/{qid}" + (f" x{count}" if count > 1 else "")
                    for (tenant, qid), count in sorted(lost.items())))
        span_hooks = _fault_span_hooks(config.obs)
        injected_hooks = sorted(metrics["faults_injected_by_hook"])
        if span_hooks is not None and span_hooks != injected_hooks:
            # every injected fault surfaces as a fault span at the same
            # hook, deadline-abandoned requests included
            failures.append(f"MISMATCH: telemetry recorded faults at "
                            f"{injected_hooks}, fault spans cover {span_hooks}")
        return failures

    @property
    def latency_p50_ms(self) -> float:
        return percentile(self.latencies_s, 50.0) * 1e3

    @property
    def latency_p95_ms(self) -> float:
        return percentile(self.latencies_s, 95.0) * 1e3

    @property
    def latency_p99_ms(self) -> float:
        return percentile(self.latencies_s, 99.0) * 1e3


def _fault_span_hooks(obs) -> list[str] | None:
    """Hooks of a run's ``fault`` spans, sorted — or ``None`` unless
    every request was traced into a ``jsonl`` artifact."""
    if obs is None or obs.sink != "jsonl" or obs.sample_rate < 1.0:
        return None
    return sorted({span["attributes"]["hook"]
                   for span in read_jsonl_spans(obs.sink_path)
                   if span["name"] == "fault"})


async def run_closed_loop(gateway: Gateway, workload: list[LoadSpec],
                          concurrency: int,
                          tolerate_errors: bool = False) -> LoadReport:
    """Drive ``workload`` through a *running* gateway at ``concurrency``.

    With ``tolerate_errors`` a failed request (injected fault, deadline,
    shed tenant, ...) is counted in ``LoadReport.n_errors`` and the
    client moves on — the mode chaos runs use, where failures are the
    point and must not abort the surviving traffic.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    pending = iter(workload)
    latencies: list[float] = []
    episodes: dict[tuple[str, str, int], EpisodeResult] = {}
    repeats: dict[tuple[str, str], int] = {}
    errors = [0]

    async def client() -> None:
        for spec in pending:
            try:
                response = await gateway.submit(spec.tenant, spec.query)
            except Exception:
                if not tolerate_errors:
                    raise
                errors[0] += 1
                continue
            latencies.append(response.latency_s)
            # key by (tenant, qid, repeat): a cycled workload completes
            # the same query many times and every episode must be kept
            # (repeat counts completions, so under concurrency it orders
            # by completion — uniqueness is what equivalence needs)
            key = (spec.tenant, response.episode.qid)
            repeat = repeats.get(key, 0)
            repeats[key] = repeat + 1
            episodes[key + (repeat,)] = response.episode

    started = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(min(concurrency, len(workload)))))
    wall_s = time.perf_counter() - started
    return LoadReport(
        n_requests=len(workload),
        concurrency=concurrency,
        wall_s=wall_s,
        latencies_s=latencies,
        episodes=episodes,
        gateway_metrics=gateway.metrics(),
        cost=gateway.costs(),
        n_errors=errors[0],
        workload=workload,
    )


def make_workload(suites: dict[str, BenchmarkSuite], n_requests: int) -> list[LoadSpec]:
    """Interleave the tenants' eval queries into an ``n_requests`` stream."""
    if not suites:
        raise ValueError("at least one tenant suite is required")
    for tenant, suite in suites.items():
        if not suite.queries:
            raise ValueError(
                f"tenant {tenant!r} has an empty query list; every tenant "
                f"suite must contribute at least one query to the workload")
    streams = {tenant: suite.queries for tenant, suite in suites.items()}
    workload: list[LoadSpec] = []
    position = 0
    tenants = list(streams)
    while len(workload) < n_requests:
        tenant = tenants[position % len(tenants)]
        queries = streams[tenant]
        workload.append(LoadSpec(tenant, queries[(position // len(tenants)) % len(queries)]))
        position += 1
    return workload


def run_load(gateway: Gateway, n_requests: int, concurrency: int,
             tolerate_errors: bool = False) -> LoadReport:
    """Start ``gateway``, drive ``n_requests`` of its tenants' queries
    (:func:`make_workload`) closed-loop, stop it, and report.

    ``repro load`` passes the gateway :meth:`Session.serve
    <repro.session.Session.serve>` builds, so a fault plan, a budget or
    a tracer is whatever its ``ServingSpec`` says; pair a fault plan
    with ``tolerate_errors`` so failed requests are counted, not raised.
    """
    workload = make_workload(
        {session.name: session.suite for session in gateway.sessions},
        n_requests)

    async def session() -> LoadReport:
        async with gateway:
            report = await run_closed_loop(gateway, workload, concurrency,
                                           tolerate_errors=tolerate_errors)
        # snapshot once stop() has drained: a batch whose requests all
        # missed their deadline may still be running at the last reply
        report.gateway_metrics = gateway.metrics()
        report.cost = gateway.costs()
        return report

    return asyncio.run(session())
