"""The four workloads: what each runs, and one *round* of each.

A round builds a fresh system (one ``setup_s`` sample), runs an untimed
warm-up stream, then a fixed number of fixed-count measured segments,
each bracketed by the calibration kernel.  The plan — segments per
round, requests per segment — is a function of ``--seconds`` alone, so
two runs with equal arguments do exactly the same work and every count
repeats; only a round that runs past twice its time budget is cut short
(and says so in its notes).
"""

from __future__ import annotations

import asyncio
import dataclasses
import http.client
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from bench_e2e import streams
from bench_e2e.cpus import on_cpu
from bench_e2e.estimator import (
    CalibrationKernel,
    Segment,
    percentile,
    speed_factor,
)
from bench_e2e.tracing import BoundaryTracer, Span, assert_untraced, load_jsonl

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"
SERVED_SCHEME = "lis-k3"
OFFLINE_SCHEMES = ("default", "gorilla", "lis-k3")
OFFLINE_SUITES = ("bfcl", "geoengine", "edgehome", "browser")
#: rounds of an untraced run; a traced run is one untraced + one traced.
#: Five, because the first build in a process is a cold one (lazy imports,
#: process-wide caches) and ``setup_s`` is the median over the rounds.
ROUNDS = 5
#: a round stops starting segments once it has measured for this many
#: times its share of ``--seconds`` (a much slower machine, not a plan)
OVERRUN = 2.0
#: open-loop generator lateness (p99) above which a round is invalid
MAX_SCHED_LAG_P99_MS = 10.0

BANNER = re.compile(r"serving tenants \[[^\]]*\] at "
                    r"http://(?P<host>[\d.]+):(?P<port>\d+)")
BOOT_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: requests (episodes) per measured segment — fixed, so counts repeat
    segment_requests: int
    #: what one segment takes on the reference machine; sizes the plan
    segment_ref_s: float
    #: warm-up requests per round (untimed)
    warmup_requests: int
    tenants: tuple[str, ...] = ()
    clients: int = 0
    rate_per_s: float = 0.0
    plan_cache_size: int = 0
    #: Zipf pool per tenant (0 = every request is a new query)
    pool: int = 0

    def segments_per_round(self, seconds: float, rounds: int) -> int:
        return max(2, round(seconds / rounds / self.segment_ref_s))

    def quick(self) -> "Workload":
        """A seconds-long miniature for the self-tests (``--quick``)."""
        return dataclasses.replace(self, segment_requests=24,
                                   warmup_requests=24)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "offline_compare",
        "no serving: 4 suites x default/gorilla/lis-k3 via build_agent + "
        "agent.run at batch 1; core/llm/tools/embedding do all the work, "
        "a serving change must not move it",
        segment_requests=60, segment_ref_s=0.115, warmup_requests=480),
    Workload(
        "gw_closed_c32",
        "in-process gateway, 32 closed-loop clients, full batches: "
        "planning is amortised, per-request accounting/glue and the "
        "encode-miss path dominate; HTTP does nothing",
        segment_requests=192, segment_ref_s=0.30, warmup_requests=384,
        tenants=("edgehome", "geoengine"), clients=32),
    Workload(
        "http_closed_c2",
        "real `repro serve` child over sockets, 2 keep-alive closed-loop "
        "clients: HTTP parse/serialise, the max_wait_ms flush timer and "
        "batch-1 planning dominate; batching does nothing",
        segment_requests=60, segment_ref_s=0.30, warmup_requests=200,
        tenants=("edgehome", "geoengine"), clients=2),
    Workload(
        "gw_open_zipf",
        "in-process gateway, open loop: Poisson 200 req/s, Zipf(1.1) "
        "over 2000 queries/tenant, plan cache on: cache hits beside "
        "compulsory misses, timer-driven partial batches, stateful browser",
        segment_requests=60, segment_ref_s=0.30, warmup_requests=200,
        tenants=("bfcl", "browser"), rate_per_s=200.0,
        plan_cache_size=4096, pool=2000),
)}


class Output(NamedTuple):
    """One served (or run) request, kept for verification and counts."""

    segment: int
    tenant: str
    scheme: str
    qid: str
    #: ``EpisodeResult``; raw HTTP bodies are decoded after timing
    episode: object
    batch_size: int = 1
    queued_s: float = 0.0
    #: ``latency_s`` as the server stamped it (HTTP: from the body)
    server_latency_s: float = 0.0
    client_latency_ms: float = 0.0
    resp_bytes: int = 0


class Failure(NamedTuple):
    segment: int
    tenant: str
    qid: str
    kind: str  # "rejected" | "shed" | "error"
    detail: str


@dataclass
class RoundResult:
    workload: str
    round_index: int
    traced: bool
    seed: int
    #: perf_counter stamps of "start building" and "ready for a request"
    setup_started: float = 0.0
    setup_ended: float = 0.0
    setup_f: float = 1.0
    segments: list[Segment] = field(default_factory=list)
    outputs: list[Output] = field(repr=False, default_factory=list)
    failures: list[Failure] = field(default_factory=list)
    spans: list[Span] = field(repr=False, default_factory=list)
    peak_rss_mb: float = 0.0
    #: open loop: per measured segment, how late each request left the
    #: generator, ms
    sched_lag_ms: list[list[float]] = field(repr=False, default_factory=list)
    conn_opened: int = 0
    scrape_ms: list[float] = field(default_factory=list)
    #: suite -> (n_queries, seed) the round loaded, for verification
    suites: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: soft flags (unsteady or truncated segments): printed, not fatal
    notes: list[str] = field(default_factory=list)
    #: broken honesty checks: the run is reported as not correct
    violations: list[str] = field(default_factory=list)

    @property
    def setup_raw_s(self) -> float:
        return self.setup_ended - self.setup_started

    @property
    def setup_cal_s(self) -> float:
        return self.setup_raw_s / self.setup_f

    @property
    def sched_lag_p99_ms(self) -> float:
        """Median over the segments of the per-segment p99 lateness: one
        machine stall delays a burst of sends in one segment, a generator
        that cannot keep up is late in all of them."""
        if not self.sched_lag_ms:
            return 0.0
        return statistics.median(
            percentile(lags, 99.0) for lags in self.sched_lag_ms)

    @property
    def windows(self) -> list[tuple[float, float]]:
        return [(segment.started, segment.ended) for segment in self.segments]


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _vm_hwm_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _proc_cpu_s(pid: int) -> float:
    """user+sys CPU seconds of a process, all threads (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _qids(result: RoundResult, workload: Workload,
          n_queries: int) -> dict[str, list[str]]:
    """Load the benchmark's own copy of each tenant suite for its qids."""
    from repro.suites import load_suite

    seed = streams.suite_seed(result.seed, result.round_index)
    qids = {}
    for tenant in workload.tenants:
        result.suites[tenant] = (n_queries, seed)
        qids[tenant] = [query.qid for query in
                        load_suite(tenant, n_queries=n_queries,
                                   seed=seed).queries]
    return qids


def _serving_spec(workload: Workload, result: RoundResult):
    from repro.specs import ServingSpec, SuiteSpec, TenantSpec

    return ServingSpec(
        tenants=tuple(
            TenantSpec(name=tenant,
                       suite=SuiteSpec(tenant, n_queries=n, seed=seed))
            for tenant, (n, seed) in result.suites.items()),
        plan_cache_size=workload.plan_cache_size)


class _Bracket:
    """Hands each segment its calibration pair; neighbours share one."""

    def __init__(self, kernel: CalibrationKernel):
        self.kernel = kernel
        self.last = kernel.time_ms()

    def close(self) -> tuple[float, float]:
        before, self.last = self.last, self.kernel.time_ms()
        return before, self.last


def _over_budget(result: RoundResult, budget_s: float, planned: int) -> bool:
    measured = sum(segment.wall_s for segment in result.segments)
    if measured > OVERRUN * budget_s and len(result.segments) < planned:
        result.notes.append(
            f"round {result.round_index} truncated after "
            f"{len(result.segments)}/{planned} segments: {measured:.1f}s "
            f"measured against a {budget_s:.1f}s budget")
        return True
    return False


# ----------------------------------------------------------------------
# offline_compare
# ----------------------------------------------------------------------
def _offline_round(workload: Workload, result: RoundResult, n_segments: int,
                   budget_s: float, kernel: CalibrationKernel) -> None:
    from repro import AgentSpec, open_session
    from repro.embedding.cache import CachedEmbedder

    cells = len(OFFLINE_SUITES) * len(OFFLINE_SCHEMES)
    per_suite = workload.segment_requests // cells
    warm_per_suite = workload.warmup_requests // cells
    n_queries = n_segments * per_suite + warm_per_suite
    seed = streams.suite_seed(result.seed, result.round_index)

    cal = kernel.time_ms()
    result.setup_started = time.perf_counter()
    embedder = CachedEmbedder()
    agents = {}
    queries = {}
    for suite in OFFLINE_SUITES:
        session = open_session(suite, n_queries=n_queries, seed=seed,
                               embedder=embedder)
        queries[suite] = session.suite.queries
        for scheme in OFFLINE_SCHEMES:
            agents[suite, scheme] = session.build_agent(
                AgentSpec(scheme, MODEL, QUANT))
    result.setup_ended = time.perf_counter()
    result.setup_f = speed_factor(cal, kernel.time_ms())
    for suite in OFFLINE_SUITES:
        result.suites[suite] = (n_queries, seed)

    def run_slice(start: int, count: int, segment: int) -> list[float]:
        latencies = []
        for suite in OFFLINE_SUITES:
            for scheme in OFFLINE_SCHEMES:
                agent = agents[suite, scheme]
                for query in queries[suite][start:start + count]:
                    begun = time.perf_counter()
                    episode = agent.run(query)
                    latency = (time.perf_counter() - begun) * 1e3
                    latencies.append(latency)
                    if segment >= 0:
                        result.outputs.append(Output(
                            segment, suite, scheme, query.qid, episode,
                            client_latency_ms=latency))
        return latencies

    run_slice(n_segments * per_suite, warm_per_suite, -1)
    bracket = _Bracket(kernel)
    for index in range(n_segments):
        cpu = time.process_time()
        begun = time.perf_counter()
        latencies = run_slice(index * per_suite, per_suite, index)
        ended = time.perf_counter()
        cpu = time.process_time() - cpu
        before, after = bracket.close()
        result.segments.append(Segment(
            index, len(latencies), 0, begun, ended, cpu, latencies,
            before, after))
        if _over_budget(result, budget_s, n_segments):
            break
    result.peak_rss_mb = _vm_hwm_mb()


# ----------------------------------------------------------------------
# in-process gateway: gw_closed_c32, gw_open_zipf
# ----------------------------------------------------------------------
def _classify(exc: BaseException) -> str:
    from repro.serving.batcher import QueueFullError
    from repro.serving.gateway import TenantShedError

    if isinstance(exc, QueueFullError):
        return "rejected"
    if isinstance(exc, TenantShedError):
        return "shed"
    return "error"


async def _submit(gateway, result: RoundResult, segment: int, tenant: str,
                  qid: str, since: float, latencies: list[float]) -> None:
    """One request; latency is timed from ``since`` (send or due time)."""
    try:
        response = await gateway.submit(tenant, qid)
    except Exception as exc:  # noqa: BLE001 - a failed request is counted
        result.failures.append(Failure(
            segment, tenant, qid, _classify(exc), repr(exc)))
        return
    latency = (time.perf_counter() - since) * 1e3
    latencies.append(latency)
    if segment >= 0:
        result.outputs.append(Output(
            segment, tenant, SERVED_SCHEME, qid, response.episode,
            response.batch_size, response.queued_s, response.latency_s,
            latency))


async def _closed_loop(gateway, result: RoundResult, segment: int,
                       stream: list, clients: int) -> list[float]:
    pending = iter(stream)
    latencies: list[float] = []

    async def client() -> None:
        for tenant, qid in pending:
            await _submit(gateway, result, segment, tenant, qid,
                          time.perf_counter(), latencies)

    await asyncio.gather(*(client() for _ in range(clients)))
    return latencies


async def _open_loop(gateway, result: RoundResult, segment: int,
                     stream: list, due_s: list[float]) -> list[float]:
    """Send on the schedule whatever the system does; a request's
    latency runs from the instant it was *due*, so a stall is charged to
    every request it delayed."""
    latencies: list[float] = []
    lags: list[float] = []
    tasks = []
    origin = time.perf_counter() + 0.002
    for (tenant, qid), offset in zip(stream, due_s):
        due_at = origin + offset
        await asyncio.sleep(max(0.0, due_at - time.perf_counter()))
        if segment >= 0:
            lags.append(max(0.0, (time.perf_counter() - due_at) * 1e3))
        tasks.append(asyncio.ensure_future(_submit(
            gateway, result, segment, tenant, qid, due_at, latencies)))
    await asyncio.gather(*tasks)
    if segment >= 0:
        result.sched_lag_ms.append(lags)
    return latencies


async def _gateway_round(workload: Workload, result: RoundResult,
                         n_segments: int, budget_s: float,
                         kernel: CalibrationKernel) -> None:
    from repro import open_session
    from repro.embedding.cache import CachedEmbedder

    per_tenant = workload.segment_requests // len(workload.tenants)
    warm_per_tenant = workload.warmup_requests // len(workload.tenants)
    n_queries = workload.pool or n_segments * per_tenant + warm_per_tenant
    qids = _qids(result, workload, n_queries)

    def stream_for(segment: int):
        """(requests, due offsets or None) of one segment; -1 = warm-up."""
        count = (workload.warmup_requests if segment < 0
                 else workload.segment_requests)
        if workload.pool:
            return (streams.zipf_stream(
                        workload.tenants, qids, workload.pool, result.seed,
                        result.round_index, segment, count),
                    streams.poisson_due_times(
                        result.seed, result.round_index, segment, count,
                        workload.rate_per_s))
        start = n_segments * per_tenant if segment < 0 else segment * per_tenant
        return streams.served_stream(workload.tenants, qids, start,
                                     count), None

    async def drive(segment: int) -> list[float]:
        stream, due_s = stream_for(segment)
        if due_s is not None:
            return await _open_loop(gateway, result, segment, stream, due_s)
        return await _closed_loop(gateway, result, segment, stream,
                                  workload.clients)

    cal = kernel.time_ms()
    result.setup_started = time.perf_counter()
    session = open_session(_serving_spec(workload, result),
                           embedder=CachedEmbedder())
    gateway = session.serve()
    await gateway.start()
    try:
        result.setup_ended = time.perf_counter()
        result.setup_f = speed_factor(cal, kernel.time_ms())
        await drive(-1)
        bracket = _Bracket(kernel)
        for index in range(n_segments):
            failed = len(result.failures)
            cpu = time.process_time()
            begun = time.perf_counter()
            latencies = await drive(index)
            ended = time.perf_counter()
            cpu = time.process_time() - cpu
            before, after = bracket.close()
            result.segments.append(Segment(
                index, workload.segment_requests,
                len(result.failures) - failed, begun, ended, cpu, latencies,
                before, after))
            if _over_budget(result, budget_s, n_segments):
                break
    finally:
        await gateway.stop()
    result.peak_rss_mb = _vm_hwm_mb()


# ----------------------------------------------------------------------
# http_closed_c2
# ----------------------------------------------------------------------
class _CountingConnection(http.client.HTTPConnection):
    """A keep-alive client connection that counts how often it dialled.

    ``http.client`` silently redials a connection the server closed; the
    count is how the benchmark knows keep-alive was really reused.
    """

    opened = 0

    def connect(self) -> None:
        super().connect()
        self.opened += 1


def _wait_for_banner(process: subprocess.Popen) -> tuple[str, int]:
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    seen = []
    while time.monotonic() < deadline:
        ready, _, _ = select.select([process.stdout], [], [], 0.5)
        if not ready:
            if process.poll() is not None:
                break
            continue
        line = process.stdout.readline()
        if not line:
            break
        seen.append(line)
        match = BANNER.search(line)
        if match:
            return match.group("host"), int(match.group("port"))
    raise RuntimeError(
        f"`repro serve` child never printed its banner "
        f"(rc={process.poll()}): {''.join(seen)[-2000:]}")


_HTTP_HEADERS = {"Content-Type": "application/json"}


def _http_closed_loop(connections, stream: list) -> list:
    """Drive ``stream`` closed-loop, one thread per connection.

    Returns, per request, ``(client latency ms, status, raw body)`` —
    bodies are kept as bytes and decoded after timing.
    """
    bodies = [json.dumps({"tenant": tenant, "qid": qid}).encode("utf-8")
              for tenant, qid in stream]
    pending = iter(range(len(stream)))
    lock = threading.Lock()
    replies: list = [None] * len(stream)

    def client(connection) -> None:
        while True:
            with lock:
                position = next(pending, None)
            if position is None:
                return
            begun = time.perf_counter()
            try:
                connection.request("POST", "/v1/call", body=bodies[position],
                                   headers=_HTTP_HEADERS)
                reply = connection.getresponse()
                body = reply.read()
                replies[position] = (
                    (time.perf_counter() - begun) * 1e3, reply.status, body)
            except (OSError, http.client.HTTPException) as exc:
                connection.close()  # redial on the next request
                replies[position] = (0.0, 0, repr(exc).encode("utf-8"))

    threads = [threading.Thread(target=client, args=(connection,))
               for connection in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies


def _decode_replies(result: RoundResult, segment: int, stream: list,
                    replies: list) -> None:
    from repro.core.episode import EpisodeResult

    for (tenant, qid), (latency, status, body) in zip(stream, replies):
        if status != 200:
            kind = {429: "rejected", 503: "shed"}.get(status, "error")
            result.failures.append(Failure(
                segment, tenant, qid, kind,
                f"HTTP {status}: {body[:200].decode('utf-8', 'replace')}"))
            continue
        payload = json.loads(body)
        result.outputs.append(Output(
            segment, tenant, SERVED_SCHEME, qid,
            EpisodeResult.from_dict(payload["episode"]),
            payload["batch_size"], payload["queued_s"], payload["latency_s"],
            latency, len(body)))


def _http_round(workload: Workload, result: RoundResult, n_segments: int,
                budget_s: float, kernel: CalibrationKernel,
                scratch: Path) -> None:
    per_tenant = workload.segment_requests // len(workload.tenants)
    warm_per_tenant = workload.warmup_requests // len(workload.tenants)
    qids = _qids(result, workload,
                 n_segments * per_tenant + warm_per_tenant)
    spec_path = scratch / f"serve-{result.round_index}-{int(result.traced)}.json"
    spec_path.write_text(json.dumps(_serving_spec(workload, result).to_dict()))
    spans_path = scratch / f"spans-{result.round_index}.jsonl"
    serve_args = ["serve", "--spec", str(spec_path), "--port", "0"]
    if result.traced:
        command = [sys.executable, "-m", "bench_e2e.server_child",
                   "--trace-dump", str(spans_path)] + serve_args
    else:
        command = [sys.executable, "-m", "repro"] + serve_args
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC_DIR), str(REPO_ROOT)])}

    if workload.clients > (os.cpu_count() or 1):
        result.notes.append(
            f"{workload.clients} client threads on {os.cpu_count()} CPUs: "
            f"the load generator competes with itself")
    cal = kernel.time_ms()
    result.setup_started = time.perf_counter()
    with on_cpu(kernel.cpu):  # the child inherits the pin for life
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, cwd=REPO_ROOT, env=env)
    connections = []
    try:
        host, port = _wait_for_banner(process)
        result.setup_ended = time.perf_counter()
        result.setup_f = speed_factor(cal, kernel.time_ms())
        connections = [_CountingConnection(host, port, timeout=60.0)
                       for _ in range(workload.clients)]
        _http_closed_loop(connections, streams.served_stream(
            workload.tenants, qids, n_segments * per_tenant,
            workload.warmup_requests))
        bracket = _Bracket(kernel)
        for index in range(n_segments):
            stream = streams.served_stream(
                workload.tenants, qids, index * per_tenant,
                workload.segment_requests)
            failed = len(result.failures)
            cpu = _proc_cpu_s(process.pid)
            begun = time.perf_counter()
            replies = _http_closed_loop(connections, stream)
            ended = time.perf_counter()
            cpu = _proc_cpu_s(process.pid) - cpu
            before, after = bracket.close()
            _decode_replies(result, index, stream, replies)
            result.segments.append(Segment(
                index, len(stream), len(result.failures) - failed, begun,
                ended, cpu, [latency for latency, status, _ in replies
                             if status == 200], before, after))
            # one operator scrape between segments, outside every window
            scrape = time.perf_counter()
            connections[0].request("GET", "/metrics")
            connections[0].getresponse().read()
            result.scrape_ms.append((time.perf_counter() - scrape) * 1e3)
            if _over_budget(result, budget_s, n_segments):
                break
        result.peak_rss_mb = _vm_hwm_mb(process.pid)
        result.conn_opened = sum(c.opened for c in connections)
        if result.conn_opened != workload.clients:
            result.violations.append(
                f"keep-alive not reused: {result.conn_opened} connections "
                f"opened by {workload.clients} clients")
    finally:
        for connection in connections:
            connection.close()
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
        try:
            tail, _ = process.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            process.kill()
            tail, _ = process.communicate()
            result.violations.append("server child ignored SIGINT; killed")
    if process.returncode != 0:
        result.violations.append(
            f"server child exited {process.returncode}: {tail[-500:]}")
    if result.traced:
        result.spans = load_jsonl(str(spans_path))


# ----------------------------------------------------------------------
# one round of any workload
# ----------------------------------------------------------------------
def run_round(workload: Workload, seed: int, round_index: int, traced: bool,
              n_segments: int, budget_s: float, kernel: CalibrationKernel,
              gen_cpu: int, scratch: Path) -> RoundResult:
    """Build, warm, measure and tear down one round of ``workload``.

    ``budget_s`` is the measured time the plan expects the round's
    ``n_segments`` to take.  The program under test runs on
    ``kernel.cpu``; over HTTP it is a process of its own and the
    generator runs on ``gen_cpu``.  An open-loop round whose generator
    ran late is not a measurement of the system: it is re-run once, then
    reported as a violation.
    """
    over_http = workload.name == "http_closed_c2"
    with on_cpu(gen_cpu if over_http else kernel.cpu):
        for attempt in (1, 2):
            result = RoundResult(workload.name, round_index, traced, seed)
            tracer = BoundaryTracer() if traced else None
            if tracer is None:
                assert_untraced()
            elif not over_http:  # the HTTP child installs its own
                tracer.install()
            try:
                if workload.name == "offline_compare":
                    _offline_round(workload, result, n_segments, budget_s,
                                   kernel)
                elif over_http:
                    _http_round(workload, result, n_segments, budget_s,
                                kernel, scratch)
                else:
                    asyncio.run(_gateway_round(workload, result, n_segments,
                                               budget_s, kernel))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if tracer is not None and not over_http:
                result.spans = tracer.spans
            lag = result.sched_lag_p99_ms
            if lag <= MAX_SCHED_LAG_P99_MS:
                break
            if attempt == 2:
                result.violations.append(
                    f"round {round_index} generator ran late twice: "
                    f"sched_lag_p99 {lag:.1f} ms > "
                    f"{MAX_SCHED_LAG_P99_MS:g} ms")
    for segment in result.segments:
        if segment.unsteady:
            result.notes.append(
                f"round {round_index} segment {segment.index} unsteady: "
                f"bracketing calibrations differ by more than 25 %")
    return result


def make_scratch() -> Path:
    """A private directory inside the checkout for the child's files."""
    return Path(tempfile.mkdtemp(prefix=".bench_e2e_tmp-", dir=REPO_ROOT))


def drop_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
