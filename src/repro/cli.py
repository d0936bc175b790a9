"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``        evaluate one (scheme, model, quant) batch on a suite
``grid``       sweep a scheme x model x quant grid, cell by cell
``compare``    default vs Gorilla vs LiS side-by-side with error bars
``levels``     inspect the offline Search Levels built for a suite
``catalog``    list / show / diff registered tool catalogs and variants
``profile``    cost one hypothetical function-calling turn on the Orin
``metrics``    serve a short load, print Prometheus text exposition
``chaos``      serve a workload under seeded fault injection
``carbon``     compare uncontrolled vs carbon/power-budgeted serving
``serve``      boot the HTTP front door over registered tenant suites

Every evaluation command builds a typed spec (:mod:`repro.specs`) and
drives it through one :func:`repro.open_session` session, so the CLI,
the examples and the bench scripts all exercise the same entrypoint.
Suite and scheme names resolve through the plugin registries — a
third-party suite registered via :func:`repro.registry.register_suite`
is immediately addressable as ``--suite <name>``.

Examples::

    python -m repro run --suite bfcl --scheme lis-k3 --model llama3.1-8b
    python -m repro run --suite browser --engine-url http://127.0.0.1:8080/v1
    python -m repro grid --suite bfcl --schemes default,lis-k3 \
        --quants q4_K_M,q8_0
    python -m repro compare --suite geoengine --model hermes2-pro-8b -n 60
    python -m repro levels --suite geoengine
    python -m repro catalog list
    python -m repro catalog show edgehome --variant compressed
    python -m repro catalog diff edgehome edgehome --against-variant minimal
    python -m repro profile --tools 46 --window 16384 --quant q4_K_M
    python -m repro metrics --suite edgehome --requests 16
    python -m repro chaos --slow-rate 0.25 --trace-out /tmp/chaos_trace.jsonl
    python -m repro carbon --suite edgehome --requests 48
    python -m repro serve --tenants edgehome,bfcl --port 8080 \
        --carbon-budget 180
"""

from __future__ import annotations

import argparse

from repro.registry import SUITES
from repro.session import open_session
from repro.specs import AgentSpec, EngineSpec, ExperimentSpec, GridSpec, SuiteSpec


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--suite", default="bfcl", choices=SUITES.names())
    parser.add_argument("--model", default="llama3.1-8b")
    parser.add_argument("--quant", default="q4_K_M")
    parser.add_argument("-n", "--queries", type=int, default=60,
                        help="queries per batch (paper: 230)")


def _session(args: argparse.Namespace, agent: AgentSpec | None = None,
             grid: GridSpec | None = None):
    return open_session(ExperimentSpec(
        suite=SuiteSpec(name=args.suite, n_queries=args.queries),
        agent=agent, grid=grid,
    ))


def _engine_spec(args: argparse.Namespace) -> EngineSpec | None:
    """Build the run's :class:`EngineSpec` from ``--engine``/``--engine-url``.

    ``--engine-url`` alone implies ``openai_http``; ``--engine`` alone
    names any registered engine; neither keeps the simulated default
    (engine=None — the zero-overhead direct path).
    """
    if args.engine is None and args.engine_url is None:
        return None
    name = args.engine or "openai_http"
    return EngineSpec(name=name, base_url=args.engine_url)


def cmd_run(args: argparse.Namespace) -> int:
    from repro.evaluation.reporting import render_metric_table
    from repro.evaluation.stats import success_rate_ci

    session = _session(args, agent=AgentSpec(
        scheme=args.scheme, model=args.model, quant=args.quant,
        engine=_engine_spec(args)))
    run = session.run()
    label = f"{args.scheme} {args.model}-{args.quant}"
    print(render_metric_table({label: run.summary},
                              title=f"{args.suite} | {args.queries} queries"))
    ci = success_rate_ci(run.episodes)
    print(f"success 95% CI: [{ci.low:.1%}, {ci.high:.1%}]")
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    import time

    from repro.evaluation.reporting import render_metric_table

    grid = GridSpec(
        schemes=args.schemes,
        models=args.models or args.model,
        quants=args.quants or args.quant,
    )
    session = _session(args, grid=grid)
    start = time.perf_counter()
    results = session.run_grid()
    wall_s = time.perf_counter() - start
    print(render_metric_table(
        {f"{scheme} {model}-{quant}": run.summary
         for (scheme, model, quant), run in results.items()},
        title=f"{args.suite} | {len(results)} cells | {args.queries} queries"))
    print(f"{len(results)} cells in {wall_s:.2f}s")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.evaluation.metrics import normalize
    from repro.evaluation.reporting import render_metric_table

    session = _session(args)
    schemes = ["default", "gorilla", "lis-k3", "lis-k5"]
    runs = {scheme: session.run(AgentSpec(
                scheme=scheme, model=args.model, quant=args.quant))
            for scheme in schemes}
    print(render_metric_table(
        {scheme: run.summary for scheme, run in runs.items()},
        title=f"{args.suite} | {args.model}-{args.quant} | {args.queries} queries"))
    base = runs["default"].summary
    for scheme in schemes[1:]:
        norm = normalize(runs[scheme].summary, base)
        print(f"  {scheme:<8} vs default: time x{norm.normalized_time:.2f}, "
              f"power x{norm.normalized_power:.2f}")
    return 0


def cmd_levels(args: argparse.Namespace) -> int:
    session = _session(args)
    suite, levels = session.suite, session.levels
    print(f"{suite.name}: {suite.n_tools} tools -> Level 1 index "
          f"({len(levels.tool_index)} vectors), Level 2 "
          f"({levels.n_clusters} clusters)")
    for cluster in levels.clusters:
        print(f"  cluster {cluster.cluster_id} "
              f"({cluster.n_samples} samples): {', '.join(cluster.tools)}")
    return 0


def _catalog_tokens(catalog) -> int:
    from repro.llm.tokens import tool_prompt_tokens

    return sum(tool_prompt_tokens(tool) for tool in catalog)


def cmd_catalog_list(args: argparse.Namespace) -> int:
    from repro.registry import CATALOGS
    from repro.tools.catalog import load_catalog

    header = (f"{'catalog':<12} {'tools':>5} {'categories':>10} "
              f"{'full':>7} {'comp.':>7} {'min.':>7}  version")
    print(header)
    print("-" * len(header))
    for name in CATALOGS.names():
        catalog = load_catalog(name)
        tokens = {variant: _catalog_tokens(catalog.at(variant))
                  for variant in ("full", "compressed", "minimal")}
        print(f"{name:<12} {len(catalog):>5} {len(catalog.categories):>10} "
              f"{tokens['full']:>7} {tokens['compressed']:>7} "
              f"{tokens['minimal']:>7}  {catalog.version[:12]}")
    print("\n(token columns: total tool_prompt_tokens per description variant)")
    return 0


def cmd_catalog_show(args: argparse.Namespace) -> int:
    from repro.llm.tokens import tool_prompt_tokens
    from repro.tools.catalog import load_catalog

    catalog = load_catalog(args.name, variant=args.variant)
    print(f"catalog {catalog.name!r} | variant {catalog.variant} | "
          f"{len(catalog)} tools | {_catalog_tokens(catalog)} prompt tokens | "
          f"version {catalog.version[:12]}")
    for category in catalog.categories:
        print(f"\n[{category}]")
        for tool in catalog.by_category(category):
            print(f"  {tool.name:<28} {tool_prompt_tokens(tool):>4} tok  "
                  f"{tool.description}")
    return 0


def cmd_catalog_diff(args: argparse.Namespace) -> int:
    from repro.tools.catalog import load_catalog

    old = load_catalog(args.old, variant=args.variant)
    new = load_catalog(args.new, variant=args.against_variant or args.variant)
    diff = old.diff(new)
    old_tokens, new_tokens = _catalog_tokens(old), _catalog_tokens(new)
    print(f"{old.name}@{old.variant} ({old.version[:12]}) -> "
          f"{new.name}@{new.variant} ({new.version[:12]}): {diff.summary()}")
    delta = (f" ({(new_tokens - old_tokens) / old_tokens:+.1%})"
             if old_tokens else "")
    print(f"prompt tokens: {old_tokens} -> {new_tokens}{delta}")
    for name in diff.changed:
        before, after = old.get(name), new.get(name)
        if before.description != after.description:
            print(f"  ~ {name}:")
            print(f"      - {before.description}")
            print(f"      + {after.description}")
        else:
            print(f"  ~ {name}: parameters/metadata changed")
    return 0 if diff.is_empty and old_tokens == new_tokens else 1


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.hardware import InferenceRequest, simulate_inference
    from repro.hardware.power_modes import orin_in_mode
    from repro.llm import get_quant_spec
    from repro.llm.tokens import AGENT_SYSTEM_TOKENS

    spec = get_quant_spec(args.quant)
    device = orin_in_mode(args.power_mode)
    prompt = AGENT_SYSTEM_TOKENS + args.tools * 150 + 40
    trace = simulate_inference(InferenceRequest(
        params_b=args.params_b, bits_per_weight=spec.bits_per_weight,
        prompt_tokens=min(prompt, args.window - 1024),
        generated_tokens=args.output_tokens, context_window=args.window,
        jitter_stream="cli-profile",
    ), device=device)
    print(f"{args.tools} tools | {args.window} window | {args.quant} | "
          f"{args.power_mode}")
    print(f"  prefill {trace.prefill_s:.1f}s + decode {trace.decode_s:.1f}s "
          f"= {trace.total_s:.1f}s at {trace.avg_power_w:.1f}W "
          f"({trace.energy_j:.0f} J, {trace.peak_memory_gb:.1f} GB)")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Serve a short load and print the Prometheus text exposition.

    What a scrape of ``repro serve``'s ``GET /metrics`` returns:
    ``Gateway.metrics_text()`` — telemetry snapshot plus the per-tenant
    cost ledger — after ``--requests`` closed-loop requests.
    """
    from repro.obs.prometheus import render_prometheus
    from repro.serving import run_load
    from repro.specs import ObsSpec, ServingSpec
    from repro.suites import load_suite

    config = ServingSpec(
        max_batch_size=args.batch_size,
        obs=ObsSpec(sink="memory", sample_rate=args.sample_rate))
    report = run_load({args.suite: load_suite(args.suite)}, config,
                      n_requests=args.requests, concurrency=args.concurrency)
    print(render_prometheus(report.gateway_metrics, cost=report.cost),
          end="")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Replayable chaos run: serve a workload while injecting faults.

    Exits 1 when a request was lost although the plan injected only
    recoverable faults (``--exception-rate 0`` and no ``--timeout-ms``:
    a stalled batch still finishes), or when the hooks of the trace
    artifact's ``fault`` spans disagree with telemetry about where
    faults fired.
    """
    from collections import Counter

    from repro.obs.sinks import read_jsonl_spans
    from repro.serving import FaultPlan, make_workload, run_load
    from repro.specs import ObsSpec, ServingSpec
    from repro.suites import load_suite

    config = ServingSpec(
        max_batch_size=args.batch_size,
        timeout_ms=args.timeout_ms,
        obs=(ObsSpec(sink="jsonl", sink_path=args.trace_out)
             if args.trace_out else None),
    )
    plan = FaultPlan(seed=args.seed,
                     slow_batch_rate=args.slow_rate, slow_batch_ms=250.0,
                     exception_rate=args.exception_rate)
    suites = {args.suite: load_suite(args.suite)}
    report = run_load(suites, config,
                      n_requests=args.requests, concurrency=args.concurrency,
                      faults=plan, tolerate_errors=True)
    metrics = report.gateway_metrics
    print(f"chaos seed {args.seed}: {report.n_requests} requests, "
          f"{report.n_errors} failed ({report.success_rate:.0%} served)")
    print(f"  faults injected: {metrics['faults_injected_by_hook'] or 'none'}")
    print(f"  deadline timeouts {metrics['deadline_timeouts']}")
    print(f"  p95 latency {report.latency_p95_ms:.1f} ms at "
          f"{report.throughput_rps:.1f} req/s")
    failed = False
    if (report.n_errors and args.exception_rate == 0
            and args.timeout_ms is None):
        # the report keeps every served episode, so what the workload
        # offered and no episode answers is what was lost
        lost = (Counter((load.tenant, load.query.qid)
                        for load in make_workload(suites, args.requests))
                - Counter(key[:2] for key in report.episodes))
        print(f"  LOST: {report.n_errors} request(s) failed under "
              f"recoverable faults only: " + ", ".join(
                  f"{tenant}/{qid}" + (f" x{count}" if count > 1 else "")
                  for (tenant, qid), count in sorted(lost.items())))
        failed = True
    if args.trace_out:
        spans = read_jsonl_spans(args.trace_out)
        traces = {span["trace_id"] for span in spans}
        span_hooks = sorted({span["attributes"]["hook"] for span in spans
                             if span["name"] == "fault"})
        injected_hooks = sorted(metrics["faults_injected_by_hook"])
        print(f"  trace artifact: {len(spans)} spans / {len(traces)} traces "
              f"-> {args.trace_out}")
        print(f"  fault spans at hooks: {span_hooks or 'none'}")
        # every injected fault surfaces as a fault span at the same hook,
        # deadline-abandoned requests included
        if injected_hooks != span_hooks:
            print(f"  MISMATCH: telemetry recorded faults at "
                  f"{injected_hooks}, fault spans cover {span_hooks}")
            failed = True
    return 1 if failed else 0


def cmd_carbon(args: argparse.Namespace) -> int:
    """Serve the same load twice — uncontrolled, then under a joule
    budget — and print the energy/carbon ledger of both.

    Requests go through the gateway in waves of ``--window`` with one
    controller tick between waves, so the descent down the ladder (full
    → reduced-k → shed) is deterministic.  With no explicit ``--budget``
    the cap self-calibrates to ``--budget-fraction`` of the uncontrolled
    mean, so the command always demonstrates the controller controlling.
    """
    import asyncio
    import time

    from repro.obs.prometheus import split_labels
    from repro.serving import Gateway, SessionManager, TenantShedError
    from repro.specs import BudgetSpec, ServingSpec
    from repro.suites import load_suite

    suite = load_suite(args.suite)
    queries = suite.queries

    def run(spec: "BudgetSpec | None"):
        async def scenario():
            sessions = SessionManager()
            sessions.register(args.suite, suite)
            config = ServingSpec(max_batch_size=args.batch_size,
                                 budget=spec)
            async with Gateway(sessions, config=config) as gateway:
                start = time.perf_counter()
                served = 0
                for wave in range(0, args.requests, args.window):
                    n = min(args.window, args.requests - wave)
                    batch = [queries[(wave + i) % len(queries)]
                             for i in range(n)]
                    outcomes = await asyncio.gather(*(
                        gateway.submit(args.suite, query)
                        for query in batch), return_exceptions=True)
                    for outcome in outcomes:
                        # a tight budget may legitimately shed; anything
                        # else is a real failure
                        if isinstance(outcome, TenantShedError):
                            continue
                        if isinstance(outcome, BaseException):
                            raise outcome
                        served += 1
                    if gateway.budget is not None:
                        gateway.budget.tick()
                wall = time.perf_counter() - start
                return served, served / wall, gateway.metrics()

        served, goodput, metrics = asyncio.run(scenario())
        return served, goodput, metrics, (metrics["energy_j"] / served,
                                          metrics["carbon_g"] / served)

    served, goodput, _, (base_j, base_g) = run(None)
    print(f"uncontrolled: {served}/{args.requests} req at "
          f"{goodput:.1f} req/s | "
          f"{base_j:.1f} J/req | {base_g * 1e3:.2f} mgCO2/req")

    budget_j = (args.budget if args.budget is not None
                else base_j * args.budget_fraction)
    spec = BudgetSpec(
        energy_budget_j=budget_j,
        window_requests=args.window, settle_requests=args.window,
        recovery_ticks=2, interval_ms=3_600_000.0,
        signal=args.signal, trace_path=args.trace_path,
        intensity_g_per_kwh=args.intensity,
        intensity_high=args.intensity_high)
    served, goodput, metrics, (ctl_j, ctl_g) = run(spec)
    saved = (1.0 - ctl_j / base_j) if base_j > 0 else 0.0
    print(f"budget {budget_j:.1f} J/req: {served}/{args.requests} req at "
          f"{goodput:.1f} req/s | {ctl_j:.1f} J/req | "
          f"{ctl_g * 1e3:.2f} mgCO2/req ({saved:.0%} energy saved)")
    ladder, modes = {}, {}
    for key, count in sorted(metrics["budget_transitions_detail"].items()):
        scope = split_labels(key, 3)[0]
        (modes if scope == "device" else ladder)[key] = count
    print(f"  ladder moves: {ladder or 'none'}")
    print(f"  power-mode moves: {modes or 'none'}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the HTTP front door (``repro.serving.http``) and serve.

    Tenants come from ``--tenants`` (each named suite becomes a tenant
    of the same name) or from a full :class:`~repro.specs.ServingSpec`
    JSON file via ``--spec``.  The builtin asyncio server needs nothing
    beyond the stdlib; ``--uvicorn`` mounts the same ASGI app in uvicorn
    when that optional extra is installed.  Stop with Ctrl-C — the
    gateway drains and shuts down cleanly.
    """
    import asyncio
    import json

    from repro.serving.http import create_app, run_uvicorn, serve_gateway
    from repro.specs import HttpSpec, ServingSpec, TenantSpec

    if args.spec:
        with open(args.spec) as handle:
            serving = ServingSpec.from_dict(json.load(handle))
    else:
        serving = ServingSpec(
            tenants=tuple(
                TenantSpec(name=name,
                           suite=SuiteSpec(name, n_queries=args.queries))
                for name in args.tenants.split(",")),
            max_batch_size=args.batch_size,
            plan_cache_size=args.plan_cache,
            timeout_ms=args.timeout_ms,
        )
    if args.carbon_budget is not None:
        from repro.specs import BudgetSpec

        serving = serving.replace(
            budget=BudgetSpec(energy_budget_j=args.carbon_budget))
    http = serving.http if serving.http is not None else HttpSpec()
    if args.host is not None:
        http = http.replace(host=args.host)
    if args.port is not None:
        http = http.replace(port=args.port)
    serving = serving.replace(http=http)
    gateway = open_session(serving).serve()
    if args.uvicorn:
        run_uvicorn(create_app(gateway, http=http), http)
        return 0

    async def serve() -> None:
        def ready(server) -> None:
            tenants = ", ".join(sorted(gateway.sessions.tenant_names))
            print(f"serving tenants [{tenants}] at {server.address} "
                  f"(Ctrl-C to stop)", flush=True)

        await serve_gateway(gateway, http=http, ready=ready)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("shutdown complete")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Less-is-More reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="evaluate one batch")
    _add_common(run_parser)
    run_parser.add_argument("--scheme", default="lis-k3")
    run_parser.add_argument("--engine", default=None,
                            help="LLM engine name (registered via "
                                 "register_engine; default: the simulated "
                                 "engine)")
    run_parser.add_argument("--engine-url", default=None, metavar="URL",
                            help="base URL of an OpenAI-compatible server "
                                 "(e.g. http://127.0.0.1:8080/v1); implies "
                                 "--engine openai_http")
    run_parser.set_defaults(func=cmd_run)

    grid_parser = sub.add_parser("grid", help="sweep a grid, cell by cell")
    _add_common(grid_parser)
    grid_parser.add_argument("--schemes", default="default,gorilla,lis-k3",
                             help="comma-separated scheme names")
    grid_parser.add_argument("--models", default=None,
                             help="comma-separated model names "
                                  "(default: the --model value)")
    grid_parser.add_argument("--quants", default=None,
                             help="comma-separated quantizations "
                                  "(default: the --quant value)")
    grid_parser.set_defaults(func=cmd_grid)

    compare_parser = sub.add_parser("compare", help="all schemes side by side")
    _add_common(compare_parser)
    compare_parser.set_defaults(func=cmd_compare)

    levels_parser = sub.add_parser("levels", help="inspect Search Levels")
    _add_common(levels_parser)
    levels_parser.set_defaults(func=cmd_levels)

    catalog_parser = sub.add_parser(
        "catalog", help="inspect registered tool catalogs")
    catalog_sub = catalog_parser.add_subparsers(dest="catalog_command",
                                                required=True)

    catalog_list = catalog_sub.add_parser(
        "list", help="all registered catalogs with per-variant token totals")
    catalog_list.set_defaults(func=cmd_catalog_list)

    catalog_show = catalog_sub.add_parser(
        "show", help="one catalog's tools, grouped by category")
    catalog_show.add_argument("name", help="registered catalog name")
    catalog_show.add_argument("--variant", default="full",
                              choices=["full", "compressed", "minimal"],
                              help="description variant to present")
    catalog_show.set_defaults(func=cmd_catalog_show)

    catalog_diff = catalog_sub.add_parser(
        "diff", help="added/removed/changed tools between two catalogs "
                     "(exit 1 when they differ, like diff(1))")
    catalog_diff.add_argument("old", help="registered catalog name (before)")
    catalog_diff.add_argument("new", help="registered catalog name (after)")
    catalog_diff.add_argument("--variant", default="full",
                              choices=["full", "compressed", "minimal"],
                              help="variant for both sides")
    catalog_diff.add_argument("--against-variant", default=None,
                              choices=["full", "compressed", "minimal"],
                              help="variant for the 'after' side only "
                                   "(diff a catalog against its own "
                                   "compressed/minimal form)")
    catalog_diff.set_defaults(func=cmd_catalog_diff)

    profile_parser = sub.add_parser("profile", help="cost one LLM turn")
    profile_parser.add_argument("--tools", type=int, default=46)
    profile_parser.add_argument("--window", type=int, default=16384)
    profile_parser.add_argument("--quant", default="q4_K_M")
    profile_parser.add_argument("--params-b", type=float, default=8.0)
    profile_parser.add_argument("--output-tokens", type=int, default=130)
    profile_parser.add_argument("--power-mode", default="MAXN",
                                choices=["MAXN", "30W", "15W"])
    profile_parser.set_defaults(func=cmd_profile)

    metrics_parser = sub.add_parser(
        "metrics", help="serve a short load, print Prometheus exposition")
    metrics_parser.add_argument("--suite", default="edgehome")
    metrics_parser.add_argument("--requests", type=int, default=16)
    metrics_parser.add_argument("--concurrency", type=int, default=8)
    metrics_parser.add_argument("--batch-size", type=int, default=8)
    metrics_parser.add_argument("--sample-rate", type=float, default=1.0,
                                help="trace sample rate for the run")
    metrics_parser.set_defaults(func=cmd_metrics)

    chaos_parser = sub.add_parser(
        "chaos", help="serve a workload under seeded fault injection")
    chaos_parser.add_argument("--suite", default="edgehome")
    chaos_parser.add_argument("--seed", type=int, default=0,
                              help="FaultPlan seed (same seed, same faults)")
    chaos_parser.add_argument("--requests", type=int, default=32)
    chaos_parser.add_argument("--concurrency", type=int, default=8)
    chaos_parser.add_argument("--batch-size", type=int, default=8)
    chaos_parser.add_argument("--timeout-ms", type=float, default=None,
                              help="end-to-end per-request deadline")
    chaos_parser.add_argument("--slow-rate", type=float, default=0.0)
    chaos_parser.add_argument("--exception-rate", type=float, default=0.1)
    chaos_parser.add_argument("--trace-out", default=None, metavar="PATH",
                              help="write a JSONL trace artifact and verify "
                                   "injected faults appear as fault spans")
    chaos_parser.set_defaults(func=cmd_chaos)

    carbon_parser = sub.add_parser(
        "carbon", help="uncontrolled vs carbon/power-budgeted serving")
    carbon_parser.add_argument("--suite", default="edgehome")
    carbon_parser.add_argument("--requests", type=int, default=48)
    carbon_parser.add_argument("--batch-size", type=int, default=8)
    carbon_parser.add_argument("--window", type=int, default=8,
                               help="rolling budget window (requests)")
    carbon_parser.add_argument("--budget", type=float, default=None,
                               metavar="J_PER_REQ",
                               help="joules-per-request cap (default: "
                                    "--budget-fraction of uncontrolled)")
    carbon_parser.add_argument("--budget-fraction", type=float, default=0.6,
                               help="self-calibrated cap as a fraction of "
                                    "the uncontrolled mean")
    carbon_parser.add_argument("--signal", default="static",
                               help="registered carbon signal "
                                    "(static, sinusoid, trace, ...)")
    carbon_parser.add_argument("--trace-path", default=None, metavar="CSV",
                               help="grid-intensity CSV for --signal trace")
    carbon_parser.add_argument("--intensity", type=float, default=400.0,
                               help="grid intensity in gCO2/kWh (static "
                                    "signal / sinusoid mean)")
    carbon_parser.add_argument("--intensity-high", type=float, default=None,
                               help="step the board down power modes at or "
                                    "above this intensity")
    carbon_parser.set_defaults(func=cmd_carbon)

    serve_parser = sub.add_parser(
        "serve", help="boot the HTTP front door over tenant suites")
    serve_parser.add_argument("--tenants", default="edgehome",
                              help="comma-separated suite names; each "
                                   "becomes a tenant of the same name")
    serve_parser.add_argument("--spec", default=None, metavar="PATH",
                              help="ServingSpec JSON file (overrides "
                                   "--tenants and the batching flags)")
    serve_parser.add_argument("-n", "--queries", type=int, default=None,
                              help="queries per tenant suite")
    serve_parser.add_argument("--host", default=None,
                              help="bind host (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=None,
                              help="bind port (default 8080; 0 = ephemeral)")
    serve_parser.add_argument("--batch-size", type=int, default=32)
    serve_parser.add_argument("--plan-cache", type=int, default=0,
                              help="plan-result memoization entries")
    serve_parser.add_argument("--timeout-ms", type=float, default=None,
                              help="end-to-end per-request deadline")
    serve_parser.add_argument("--carbon-budget", type=float, default=None,
                              metavar="J_PER_REQ",
                              help="enable the carbon/power budget "
                                   "controller with this rolling "
                                   "joules-per-request cap")
    serve_parser.add_argument("--uvicorn", action="store_true",
                              help="serve through uvicorn (optional extra) "
                                   "instead of the builtin asyncio server")
    serve_parser.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
