"""Closed-loop load generator for the serving gateway.

``run_closed_loop`` drives a running gateway with ``concurrency``
clients, each submitting the next request from a shared workload as soon
as its previous one completes — the standard closed-loop model, whose
offered load adapts to service throughput.  The sync :func:`run_load`
wrapper owns the event loop and the gateway lifecycle, which is what the
bench harness and tests call.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.core.episode import EpisodeResult
from repro.serving.gateway import Gateway
from repro.serving.session import SessionManager
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

    @property
    def latency_p50_ms(self) -> float:
        return percentile(self.latencies_s, 50.0) * 1e3

    @property
    def latency_p95_ms(self) -> float:
        return percentile(self.latencies_s, 95.0) * 1e3

    @property
    def latency_p99_ms(self) -> float:
        return percentile(self.latencies_s, 99.0) * 1e3


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


def run_load(
    suites: dict[str, BenchmarkSuite],
    config: ServingSpec,
    n_requests: int,
    concurrency: int,
    embedder=None,
    faults=None,
    tolerate_errors: bool = False,
    tracer=None,
) -> LoadReport:
    """Boot a gateway over ``suites``, drive it closed-loop, shut it down.

    ``faults`` (a :class:`~repro.serving.faults.FaultPlan` or injector)
    arms the gateway's chaos hooks for the run; pair it with
    ``tolerate_errors`` so injected failures are counted, not raised.
    ``tracer`` overrides the tracer ``config.obs`` would build — pass a
    :class:`~repro.obs.trace.Tracer` over a
    :class:`~repro.obs.sinks.MemorySink` you keep a handle on to inspect
    the run's spans afterwards.
    """
    sessions = SessionManager(embedder=embedder)
    for tenant, suite in suites.items():
        sessions.register(tenant, suite)
    workload = make_workload(suites, n_requests)

    async def session() -> LoadReport:
        async with Gateway(sessions, config=config, faults=faults,
                           tracer=tracer) as gateway:
            report = await run_closed_loop(gateway, workload, concurrency,
                                           tolerate_errors=tolerate_errors)
        # snapshot once stop() has drained: a batch whose requests all
        # missed their deadline may still be running at the last reply
        report.gateway_metrics = gateway.metrics()
        report.cost = gateway.costs()
        return report

    return asyncio.run(session())
