"""Serving-gateway load benchmark: micro-batched vs sequential throughput.

Drives the async gateway with a closed-loop load generator at a given
concurrency, twice over the same workload and warmed caches:

* **batched** — the real configuration: micro-batches of up to
  ``--max-batch-size`` requests planned through one vectorized
  ``encode`` + multi-query search pass per flush;
* **sequential** — the experimental control: the identical gateway with
  ``max_batch_size=1``, i.e. per-request serving through the very same
  code path.

Each mode is preceded by an untimed warmup pass (one full cycle of the
workload) so the numbers reflect steady-state serving rather than the
one-time vocabulary ramp, and the comparison repeats ``--trials`` times
keeping the best speedup (load benches on shared machines jitter).  The
run **asserts** the acceptance criterion — batched throughput >= 2x
sequential at concurrency >= 32 — and prints p50/p95/p99 latency for
both modes.

Run:  PYTHONPATH=src python scripts/bench_serving.py [--concurrency 32]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.embedding.cache import CachedEmbedder  # noqa: E402
from repro.obs.sinks import read_jsonl_spans  # noqa: E402
from repro.serving import (  # noqa: E402
    FaultPlan,
    Gateway,
    HTTPConnection,
    LoadReport,
    SessionManager,
    TenantShedError,
    make_workload,
    percentile,
    run_load,
    serve_gateway,
)
from repro.specs import BudgetSpec, HttpSpec, ObsSpec, ServingSpec  # noqa: E402
from repro.suites import load_suite  # noqa: E402

#: The shipped coalescing window — the benches measure what ships
#: unless ``--max-wait-ms`` opts into an idle-time window.
DEFAULT_MAX_WAIT_MS = ServingSpec().max_wait_ms
#: Required batched/sequential throughput ratio (the PR's acceptance bar).
REQUIRED_SPEEDUP = 2.0
#: Required fraction of requests served under the chaos scenario.  The
#: injected faults (worker SIGKILLs) are all recoverable — retried or
#: run inline with bitwise-identical results — so anything below 1.0
#: means the supervision machinery dropped a request.
REQUIRED_CHAOS_SUCCESS = 1.0


def measure_mode(suites, spec: ServingSpec, n_requests: int,
                 concurrency: int) -> LoadReport:
    """One warmup cycle, then one measured closed-loop run."""
    embedder = CachedEmbedder()
    workload_cycle = sum(len(suite.queries) for suite in suites.values())
    run_load(suites, spec, n_requests=workload_cycle,
             concurrency=min(8, concurrency), embedder=embedder)
    return run_load(suites, spec, n_requests=n_requests,
                    concurrency=concurrency, embedder=embedder)


def bench_serving(n_requests: int = 512, concurrency: int = 32,
                  max_batch_size: int = 32,
                  max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
                  trials: int = 3, suite_name: str = "edgehome") -> dict:
    """Measure both modes, return the serving metrics dict.

    Each mode runs ``trials`` times and keeps its best trial: the
    max-over-trials throughput estimates the machine's calm capacity and
    is far more stable under transient load than any single run, for the
    batched and sequential modes alike (so the speedup ratio stays
    honest).  A third, single-trial measurement re-runs the batched mode
    with plan-result memoization enabled — the workload cycles the same
    queries, so steady state is nearly all cache hits — and its
    throughput/hit counts are reported under ``plan_cache_*`` (untracked
    by the regression guard: the win depends on workload repetition).
    """
    suites = {suite_name: load_suite(suite_name)}
    batched_spec = ServingSpec(max_batch_size=max_batch_size,
                               max_wait_ms=max_wait_ms)
    sequential_spec = ServingSpec(max_batch_size=1)

    best_batched: LoadReport | None = None
    best_sequential: LoadReport | None = None
    for _ in range(trials):
        batched = measure_mode(suites, batched_spec, n_requests, concurrency)
        sequential = measure_mode(suites, sequential_spec, n_requests, concurrency)
        if best_batched is None or batched.throughput_rps > best_batched.throughput_rps:
            best_batched = batched
        if (best_sequential is None
                or sequential.throughput_rps > best_sequential.throughput_rps):
            best_sequential = sequential

    cached_spec = batched_spec.replace(plan_cache_size=4096)
    cached = measure_mode(suites, cached_spec, n_requests, concurrency)

    speedup = (best_batched.throughput_rps / best_sequential.throughput_rps
               if best_sequential.throughput_rps > 0 else 0.0)
    return {
        "suite": suite_name,
        "n_requests": n_requests,
        "concurrency": concurrency,
        "max_batch_size": max_batch_size,
        "max_wait_ms": max_wait_ms,
        "trials": trials,
        "batched_req_per_s": best_batched.throughput_rps,
        "sequential_req_per_s": best_sequential.throughput_rps,
        "speedup_vs_sequential": speedup,
        "batched_p50_ms": best_batched.latency_p50_ms,
        "batched_p95_ms": best_batched.latency_p95_ms,
        "batched_p99_ms": best_batched.latency_p99_ms,
        "sequential_p50_ms": best_sequential.latency_p50_ms,
        "sequential_p95_ms": best_sequential.latency_p95_ms,
        "sequential_p99_ms": best_sequential.latency_p99_ms,
        "mean_batch_size": best_batched.gateway_metrics["mean_batch_size"],
        "requests_rejected": best_batched.gateway_metrics["requests_rejected"],
        "plan_cache_req_per_s": cached.throughput_rps,
        "plan_cache_hits": cached.gateway_metrics["plan_cache_hits"],
        "plan_cache_misses": cached.gateway_metrics["plan_cache_misses"],
        "plan_cache_hit_rate": cached.gateway_metrics["plan_cache_hit_rate"],
    }


def bench_serving_chaos(n_requests: int = 64, concurrency: int = 8,
                        workers: int = 2, seed: int = 0,
                        crash_rate: float = 0.25,
                        suite_name: str = "edgehome",
                        trace_out: str | None = None) -> dict:
    """Serve a workload on the process backend while SIGKILLing workers.

    The seeded :class:`FaultPlan` kills pool workers at a fixed fraction
    of planned groups; every injected fault is recoverable (slice retry
    or inline fallback, bitwise-identical either way), so the guarded
    ``success_rate`` must stay at 1.0 — a drop means the supervision
    machinery lost a request.  Recovery throughput (``req_per_s``) and
    the restart/retry counters are reported for trend-watching but not
    guarded: how much latency a crash costs depends on respawn time,
    which jitters with machine load.

    ``trace_out`` additionally records the run's spans to a JSONL
    artifact and **asserts** the injected faults surfaced as ``fault``
    span events at the very hook names telemetry counted — the tracing
    side of the chaos contract.
    """
    suites = {suite_name: load_suite(suite_name)}
    obs = (ObsSpec(sink="jsonl", sink_path=trace_out)
           if trace_out else None)
    spec = ServingSpec(max_batch_size=8,
                       execution_backend="process",
                       execution_workers=workers,
                       execution_retries=2, retry_backoff_ms=20.0,
                       slice_timeout_s=30.0, obs=obs)
    plan = FaultPlan(seed=seed, worker_crash_rate=crash_rate)
    report = run_load(suites, spec, n_requests=n_requests,
                      concurrency=concurrency, faults=plan,
                      tolerate_errors=True)
    metrics = report.gateway_metrics
    if trace_out:
        spans = read_jsonl_spans(trace_out)
        event_hooks = sorted({
            event["attributes"]["hook"]
            for span in spans for event in span["events"]
            if event["name"] == "fault"})
        injected_hooks = sorted(metrics["faults_injected_by_hook"])
        assert event_hooks == injected_hooks, (
            f"trace artifact fault events cover hooks {event_hooks}, but "
            f"telemetry injected at {injected_hooks}")
        assert len({span["trace_id"] for span in spans
                    if span["name"] == "request"}) == n_requests
    return {
        "suite": suite_name,
        "n_requests": n_requests,
        "concurrency": concurrency,
        "workers": workers,
        "seed": seed,
        "worker_crash_rate": crash_rate,
        "faults_injected": metrics["faults_injected"],
        "worker_restarts": metrics["worker_restarts"],
        "slice_retries": metrics["slice_retries"],
        "inline_fallbacks": metrics["inline_fallbacks"],
        "requests_failed": report.n_errors,
        "success_rate": report.success_rate,
        # req_per_s is *offered* load (every request, failed included);
        # goodput_rps only counts successfully served requests and is
        # the honest capacity number for a run that injects failures
        "req_per_s": report.throughput_rps,
        "goodput_rps": report.goodput_rps,
        "p95_ms": report.latency_p95_ms,
        "trace_out": trace_out,
    }


def _run_budget_waves(suite, suite_name: str, embedder, n_requests: int,
                      window: int, config) -> tuple[int, int, float, dict]:
    """Serve ``n_requests`` in waves of ``window`` with one budget tick
    between waves; returns (served, shed, wall_s, gateway metrics).

    Wave-driven ticking (instead of the controller's wall-clock loop)
    makes the ladder descent deterministic, so the guarded numbers do
    not depend on how fast this machine drains the queue.
    """

    async def scenario():
        sessions = SessionManager(embedder=embedder)
        sessions.register(suite_name, suite)
        queries = suite.queries
        async with Gateway(sessions, config=config) as gateway:
            served = shed = 0
            start = time.perf_counter()
            for wave in range(0, n_requests, window):
                batch = [queries[(wave + i) % len(queries)]
                         for i in range(min(window, n_requests - wave))]
                outcomes = await asyncio.gather(*(
                    gateway.submit(suite_name, query) for query in batch),
                    return_exceptions=True)
                for outcome in outcomes:
                    if isinstance(outcome, TenantShedError):
                        shed += 1
                    elif isinstance(outcome, BaseException):
                        raise outcome
                    else:
                        served += 1
                if gateway.budget is not None:
                    gateway.budget.tick()
            wall_s = time.perf_counter() - start
            return served, shed, wall_s, gateway.metrics()

    return asyncio.run(scenario())


def bench_serving_budget(n_requests: int = 96, window: int = 8,
                         max_batch_size: int = 8,
                         budget_fraction: float = 0.6,
                         suite_name: str = "edgehome") -> dict:
    """Energy-per-request under a self-calibrating joule budget.

    Runs the same wave-driven workload twice over warmed caches:
    uncontrolled first (to measure the baseline mean joules per
    request), then under a :class:`BudgetSpec` capped at
    ``budget_fraction`` of that baseline.  The budget controller must
    step the tenant down the ladder far enough that mean energy per
    *served* request drops below the uncontrolled mean while goodput
    stays above zero — the subsystem's acceptance criterion, guarded in
    ``BENCH_perf.json`` as ``serving.budget.goodput_rps`` (higher is
    better) and ``serving.budget.energy_j_per_req`` (lower is better).
    """
    suite = load_suite(suite_name)
    embedder = CachedEmbedder()
    base_config = ServingSpec(max_batch_size=max_batch_size)
    # untimed warmup cycle (vocabulary ramp, plan paths)
    _run_budget_waves(suite, suite_name, embedder, len(suite.queries),
                      window, base_config)

    served, _, wall_s, metrics = _run_budget_waves(
        suite, suite_name, embedder, n_requests, window, base_config)
    uncontrolled_j = metrics["energy_j"] / served

    budget_j = uncontrolled_j * budget_fraction
    spec = BudgetSpec(energy_budget_j=budget_j, window_requests=window,
                      settle_requests=window, recovery_ticks=2,
                      interval_ms=3_600_000.0)
    ctl_config = ServingSpec(max_batch_size=max_batch_size, budget=spec)
    ctl_served, ctl_shed, ctl_wall_s, ctl_metrics = _run_budget_waves(
        suite, suite_name, embedder, n_requests, window, ctl_config)
    assert ctl_served > 0, "budget run shed every request (goodput 0)"
    controlled_j = ctl_metrics["energy_j"] / ctl_served

    return {
        "suite": suite_name,
        "n_requests": n_requests,
        "window_requests": window,
        "budget_fraction": budget_fraction,
        "budget_j_per_req": budget_j,
        "uncontrolled_energy_j_per_req": uncontrolled_j,
        "uncontrolled_goodput_rps": served / wall_s,
        "energy_j_per_req": controlled_j,
        "energy_reduction": 1.0 - controlled_j / uncontrolled_j,
        "goodput_rps": ctl_served / ctl_wall_s,
        "served": ctl_served,
        "shed": ctl_shed,
        "carbon_g_per_req": ctl_metrics["carbon_g"] / ctl_served,
        "budget_transitions": ctl_metrics["budget_transitions"],
        "budget_transitions_detail": ctl_metrics["budget_transitions_detail"],
    }


def bench_serving_http(n_requests: int = 256, concurrency: int = 8,
                       max_batch_size: int = 32,
                       max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
                       suite_name: str = "edgehome") -> dict:
    """Closed-loop load over the **sockets** path: HTTP front door end
    to end.

    Boots the gateway behind :class:`AsgiServer` on an ephemeral port
    (own event loop in a background thread), then drives ``POST
    /v1/call`` from ``concurrency`` blocking client threads, each on its
    own keep-alive connection — the stdlib-only stand-in for
    ``wrk``-style load.  An untimed warmup cycle precedes the
    measurement, matching the in-process serving bench.  ``p95_ms`` is
    reported for trend-watching but not guarded (latency jitter);
    ``req_per_s`` is tracked by ``make bench-check``.
    """
    suites = {suite_name: load_suite(suite_name)}
    sessions = SessionManager(embedder=CachedEmbedder())
    for tenant, suite in suites.items():
        sessions.register(tenant, suite)
    spec = ServingSpec(max_batch_size=max_batch_size, max_wait_ms=max_wait_ms)
    gateway = Gateway(sessions, config=spec)

    bound = threading.Event()
    server_info: dict = {}

    async def serve() -> None:
        shutdown = asyncio.Event()
        server_info["loop"] = asyncio.get_running_loop()
        server_info["shutdown"] = shutdown

        def ready(server):
            server_info["port"] = server.port
            bound.set()

        await serve_gateway(gateway, http=HttpSpec(port=0), ready=ready,
                            shutdown=shutdown)

    server_thread = threading.Thread(target=lambda: asyncio.run(serve()),
                                     name="bench-http-server", daemon=True)
    server_thread.start()
    if not bound.wait(timeout=30.0):
        raise RuntimeError("HTTP bench server failed to bind within 30s")
    port = server_info["port"]

    def drive(workload, n_clients: int) -> list[float]:
        """Closed-loop: each client thread pulls the next request as
        soon as its previous one completes (shared cursor)."""
        latencies: list[float] = []
        lock = threading.Lock()
        cursor = iter(workload)

        def client() -> None:
            with HTTPConnection("127.0.0.1", port) as conn:
                while True:
                    with lock:
                        load = next(cursor, None)
                    if load is None:
                        return
                    started = time.perf_counter()
                    response = conn.post("/v1/call", {
                        "tenant": load.tenant, "qid": load.query.qid})
                    elapsed = time.perf_counter() - started
                    if response.status != 200:
                        raise RuntimeError(
                            f"HTTP bench request failed with "
                            f"{response.status}: {response.text}")
                    with lock:
                        latencies.append(elapsed)

        threads = [threading.Thread(target=client, name=f"bench-http-{i}")
                   for i in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return latencies

    try:
        cycle = sum(len(suite.queries) for suite in suites.values())
        drive(make_workload(suites, cycle), min(4, concurrency))  # warmup
        workload = make_workload(suites, n_requests)
        started = time.perf_counter()
        latencies = drive(workload, concurrency)
        wall_s = time.perf_counter() - started
    finally:
        server_info["loop"].call_soon_threadsafe(server_info["shutdown"].set)
        server_thread.join(timeout=30.0)

    metrics = gateway.metrics()
    return {
        "suite": suite_name,
        "n_requests": n_requests,
        "concurrency": concurrency,
        "max_batch_size": max_batch_size,
        "max_wait_ms": max_wait_ms,
        "req_per_s": len(latencies) / wall_s if wall_s > 0 else 0.0,
        "p50_ms": percentile(latencies, 50.0) * 1e3,
        "p95_ms": percentile(latencies, 95.0) * 1e3,
        "p99_ms": percentile(latencies, 99.0) * 1e3,
        "mean_batch_size": metrics["mean_batch_size"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-requests", type=int, default=512)
    parser.add_argument("--concurrency", type=int, default=32)
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument("--max-wait-ms", type=float,
                        default=DEFAULT_MAX_WAIT_MS,
                        help="opt-in idle coalescing window (default: the "
                             "ServingSpec default, work-conserving)")
    parser.add_argument("--trials", type=int, default=3,
                        help="repeat the comparison, keep the best speedup")
    parser.add_argument("--suite", default="edgehome")
    parser.add_argument("--output", default=None,
                        help="optional JSON file for the serving metrics")
    parser.add_argument("--no-assert", action="store_true",
                        help="report without enforcing the >=2x criterion")
    parser.add_argument("--chaos", action="store_true",
                        help="run the fault-injection scenario instead of "
                             "the throughput comparison")
    parser.add_argument("--http", action="store_true",
                        help="drive the HTTP front door over real sockets "
                             "instead of the in-process gateway")
    parser.add_argument("--budget", action="store_true",
                        help="run the carbon/power budget scenario: "
                             "energy per request under a self-calibrating "
                             "joule cap vs uncontrolled")
    parser.add_argument("--seed", type=int, default=0,
                        help="FaultPlan seed for --chaos")
    parser.add_argument("--trace-out", default="/tmp/serving_chaos_trace.jsonl",
                        metavar="PATH",
                        help="JSONL trace artifact for --chaos (the run "
                             "asserts injected faults appear as span "
                             "events); pass an empty string to disable")
    args = parser.parse_args(argv)

    if args.http:
        row = bench_serving_http(
            n_requests=min(args.n_requests, 256),
            concurrency=min(args.concurrency, 8),
            max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms, suite_name=args.suite)
        print(f"serving http ({row['suite']}, {row['n_requests']} requests, "
              f"concurrency {row['concurrency']}):")
        print(f"  sockets      : {row['req_per_s']:8.0f} req/s   "
              f"p50 {row['p50_ms']:6.1f} ms  p95 {row['p95_ms']:6.1f} ms  "
              f"p99 {row['p99_ms']:6.1f} ms  (mean batch "
              f"{row['mean_batch_size']:.1f})")
        if args.output:
            Path(args.output).write_text(json.dumps(row, indent=2) + "\n")
            print(f"wrote {args.output}")
        return 0

    if args.budget:
        row = bench_serving_budget(suite_name=args.suite)
        print(f"serving budget ({row['suite']}, {row['n_requests']} requests, "
              f"window {row['window_requests']}, cap "
              f"{row['budget_fraction']:.0%} of uncontrolled):")
        print(f"  uncontrolled : {row['uncontrolled_energy_j_per_req']:7.1f} "
              f"J/req at {row['uncontrolled_goodput_rps']:6.0f} req/s")
        print(f"  budgeted     : {row['energy_j_per_req']:7.1f} J/req at "
              f"{row['goodput_rps']:6.0f} req/s  "
              f"({row['energy_reduction']:.0%} energy saved, "
              f"{row['served']} served / {row['shed']} shed)")
        print(f"  controller   : {row['budget_transitions']} transitions "
              f"{row['budget_transitions_detail']}")
        if args.output:
            Path(args.output).write_text(json.dumps(row, indent=2) + "\n")
            print(f"wrote {args.output}")
        if not args.no_assert:
            assert row["energy_reduction"] > 0.0, (
                f"budget controller failed to reduce energy per request "
                f"({row['energy_j_per_req']:.1f} J/req vs uncontrolled "
                f"{row['uncontrolled_energy_j_per_req']:.1f} J/req)")
            print("OK: budgeted serving spends less energy per request "
                  "with goodput > 0")
        return 0

    if args.chaos:
        row = bench_serving_chaos(concurrency=min(args.concurrency, 8),
                                  seed=args.seed, suite_name=args.suite,
                                  trace_out=args.trace_out or None)
        print(f"serving chaos ({row['suite']}, {row['n_requests']} requests, "
              f"seed {row['seed']}, crash rate {row['worker_crash_rate']:.0%}):")
        print(f"  faults {row['faults_injected']} | restarts "
              f"{row['worker_restarts']} | slice retries {row['slice_retries']} "
              f"| inline fallbacks {row['inline_fallbacks']}")
        print(f"  served {row['success_rate']:.0%}: goodput "
              f"{row['goodput_rps']:.0f} req/s of {row['req_per_s']:.0f} "
              f"offered (p95 {row['p95_ms']:.1f} ms)")
        if row["trace_out"]:
            print(f"  trace artifact verified: fault span events match "
                  f"injected hooks -> {row['trace_out']}")
        if args.output:
            Path(args.output).write_text(json.dumps(row, indent=2) + "\n")
            print(f"wrote {args.output}")
        if not args.no_assert:
            assert row["success_rate"] >= REQUIRED_CHAOS_SUCCESS, (
                f"chaos run served only {row['success_rate']:.0%} of requests "
                f"(required {REQUIRED_CHAOS_SUCCESS:.0%}: every injected "
                f"fault is recoverable)")
            print("OK: all requests served through injected worker crashes")
        return 0

    row = bench_serving(
        n_requests=args.n_requests, concurrency=args.concurrency,
        max_batch_size=args.max_batch_size, max_wait_ms=args.max_wait_ms,
        trials=args.trials, suite_name=args.suite,
    )
    print(f"serving ({row['suite']}, {row['n_requests']} requests, "
          f"concurrency {row['concurrency']}):")
    print(f"  micro-batched: {row['batched_req_per_s']:8.0f} req/s   "
          f"p50 {row['batched_p50_ms']:6.1f} ms  p95 {row['batched_p95_ms']:6.1f} ms  "
          f"p99 {row['batched_p99_ms']:6.1f} ms  (mean batch "
          f"{row['mean_batch_size']:.1f})")
    print(f"  sequential   : {row['sequential_req_per_s']:8.0f} req/s   "
          f"p50 {row['sequential_p50_ms']:6.1f} ms  p95 {row['sequential_p95_ms']:6.1f} ms  "
          f"p99 {row['sequential_p99_ms']:6.1f} ms")
    print(f"  speedup      : {row['speedup_vs_sequential']:.2f}x "
          f"(required >= {REQUIRED_SPEEDUP:.1f}x)")
    print(f"  plan cache   : {row['plan_cache_req_per_s']:8.0f} req/s   "
          f"{row['plan_cache_hits']} hits / {row['plan_cache_misses']} misses "
          f"(hit rate {row['plan_cache_hit_rate']:.0%})")

    if args.output:
        Path(args.output).write_text(json.dumps(row, indent=2) + "\n")
        print(f"wrote {args.output}")

    if not args.no_assert and args.concurrency >= 32:
        assert row["speedup_vs_sequential"] >= REQUIRED_SPEEDUP, (
            f"micro-batched serving reached only "
            f"{row['speedup_vs_sequential']:.2f}x of sequential throughput "
            f"(required {REQUIRED_SPEEDUP:.1f}x)")
        print(f"OK: micro-batching >= {REQUIRED_SPEEDUP:.1f}x sequential serving")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
