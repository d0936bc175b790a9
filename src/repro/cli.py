"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``        evaluate one (scheme, model, quant) batch on a suite
``grid``       sweep a scheme x model x quant grid, cell by cell
``compare``    default vs Gorilla vs LiS side-by-side with error bars
``levels``     inspect the offline Search Levels built for a suite
``catalog``    list / show / diff registered tool catalogs and variants
``profile``    cost one hypothetical function-calling turn on the Orin
``load``       drive a closed-loop load through a serving spec's gateway
``serve``      boot the HTTP front door over a serving spec's gateway

Every evaluation command builds a typed spec (:mod:`repro.specs`) and
drives it through one :func:`repro.open_session` session, so the CLI,
the examples and the bench scripts all exercise the same entrypoint.
``load`` and ``serve`` read one :class:`~repro.specs.ServingSpec` (a
``--spec`` JSON file or a few flags): a fault plan is one of its sections.
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
    python -m repro load --requests 16 --prometheus
    python -m repro load --spec examples/specs/chaos_stall.json --requests 64
    python -m repro serve --tenants edgehome,bfcl --port 8080 \
        --carbon-budget 180
"""

from __future__ import annotations

import argparse

from repro.registry import SUITES
from repro.session import open_session
from repro.specs import (
    CATALOG_VARIANTS,
    POWER_MODE_NAMES,
    AgentSpec,
    EngineSpec,
    ExperimentSpec,
    GridSpec,
    ServingSpec,
    SuiteSpec,
)


def _at_least(minimum: int):
    """An argparse ``type``: an int >= ``minimum``, else a usage error
    (exit 2) that names the flag."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--suite", default="bfcl", choices=SUITES.names())
    parser.add_argument("--model", default="llama3.1-8b")
    parser.add_argument("--quant", default="q4_K_M")
    parser.add_argument("-n", "--queries", type=_at_least(1), default=60,
                        help="queries per batch (paper: 230)")


def _add_serving(parser: argparse.ArgumentParser) -> None:
    """The flags :func:`_serving_spec` builds a ServingSpec from."""
    parser.add_argument("--spec", default=None, metavar="PATH",
                        help="ServingSpec JSON file (excludes --tenants, -n "
                             "and the batching flags)")
    parser.add_argument("--tenants", default=None,
                        help="comma-separated suite names; each becomes a "
                             "tenant of the same name (default: edgehome)")
    parser.add_argument("-n", "--queries", type=_at_least(1), default=None,
                        help="queries per tenant suite")
    parser.add_argument("--batch-size", type=_at_least(1), default=None,
                        help="micro-batch cap (ServingSpec.max_batch_size)")
    parser.add_argument("--plan-cache", type=_at_least(0), default=None,
                        help="plan-result memoization entries")
    parser.add_argument("--timeout-ms", type=float, default=None,
                        help="end-to-end per-request deadline")
    parser.add_argument("--carbon-budget", type=float, default=None,
                        metavar="J_PER_REQ",
                        help="enable the carbon/power budget controller "
                             "with this rolling joules-per-request cap")
    parser.set_defaults(parser=parser)


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
    return EngineSpec(name=args.engine or "openai_http",
                      base_url=args.engine_url)


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

    prompt = AGENT_SYSTEM_TOKENS + args.tools * 150 + 40
    trace = simulate_inference(InferenceRequest(
        params_b=args.params_b,
        bits_per_weight=get_quant_spec(args.quant).bits_per_weight,
        prompt_tokens=min(prompt, args.window - 1024),
        generated_tokens=args.output_tokens, context_window=args.window,
        jitter_stream="cli-profile",
    ), device=orin_in_mode(args.power_mode))
    print(f"{args.tools} tools | {args.window} window | {args.quant} | "
          f"{args.power_mode}")
    print(f"  prefill {trace.prefill_s:.1f}s + decode {trace.decode_s:.1f}s "
          f"= {trace.total_s:.1f}s at {trace.avg_power_w:.1f}W "
          f"({trace.energy_j:.0f} J, {trace.peak_memory_gb:.1f} GB)")
    return 0


def _serving_spec(args: argparse.Namespace) -> ServingSpec:
    """The :class:`~repro.specs.ServingSpec` ``serve`` and ``load`` run:
    the ``--spec`` file, or one built from ``--tenants``, ``-n``,
    ``--batch-size``, ``--plan-cache`` and ``--timeout-ms`` over the
    spec's own defaults — never both, so no flag is dropped in silence.
    ``--carbon-budget`` applies on top of either."""
    import json

    from repro.specs import BudgetSpec, TenantSpec

    given = [flag for dest, flag in (
        ("tenants", "--tenants"), ("queries", "-n"),
        ("batch_size", "--batch-size"), ("plan_cache", "--plan-cache"),
        ("timeout_ms", "--timeout-ms")) if getattr(args, dest) is not None]
    if args.spec:
        if given:
            args.parser.error(f"{', '.join(given)} cannot be combined "
                              f"with --spec")
        with open(args.spec) as handle:
            serving = ServingSpec.from_dict(json.load(handle))
    else:
        fields = {"max_batch_size": args.batch_size,
                  "plan_cache_size": args.plan_cache,
                  "timeout_ms": args.timeout_ms}
        serving = ServingSpec(
            tenants=tuple(
                TenantSpec(name, SuiteSpec(name, n_queries=args.queries))
                for name in (args.tenants or "edgehome").split(",")),
            **{name: value for name, value in fields.items()
               if value is not None})
    if args.carbon_budget is not None:
        serving = serving.replace(
            budget=BudgetSpec(energy_budget_j=args.carbon_budget))
    return serving


def cmd_load(args: argparse.Namespace) -> int:
    """Drive ``--requests`` closed-loop requests through the gateway the
    serving spec describes; exit 1 if the drained run breaks one of the
    invariants of :meth:`~repro.serving.loadgen.LoadReport.failures`.

    ``--prometheus`` prints what a scrape of ``repro serve``'s ``GET
    /metrics`` returns instead of the summary.
    """
    from repro.serving import run_load

    spec = _serving_spec(args)
    gateway = open_session(spec).serve()
    report = run_load(gateway, args.requests, args.concurrency,
                      tolerate_errors=True)
    metrics = report.gateway_metrics
    if args.prometheus:
        print(gateway.metrics_text(), end="")
    else:
        print(f"load: {report.n_requests} requests, {report.n_errors} failed "
              f"({report.success_rate:.0%} served), p95 latency "
              f"{report.latency_p95_ms:.1f} ms at "
              f"{report.throughput_rps:.1f} req/s")
        print(f"  faults injected: {metrics['faults_injected_by_hook'] or 'none'}"
              f" | deadline timeouts {metrics['deadline_timeouts']}"
              f" | shed {metrics['shed_requests']}")
    failures = report.failures(spec)
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the HTTP front door (``repro.serving.http``) and serve.

    ``--host``/``--port`` apply on top of the spec's ``http`` section.
    The builtin asyncio server needs nothing beyond the stdlib;
    ``--uvicorn`` mounts the same ASGI app in uvicorn (optional extra).
    Stop with Ctrl-C — the gateway drains and shuts down cleanly.
    """
    import asyncio

    from repro.serving.http import create_app, run_uvicorn, serve_gateway
    from repro.specs import HttpSpec

    serving = _serving_spec(args)
    http = (serving.http or HttpSpec()).replace(**{
        name: getattr(args, name) for name in ("host", "port")
        if getattr(args, name) is not None})
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
                            help="registered LLM engine (default: simulated)")
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

    variant = argparse.ArgumentParser(add_help=False)
    variant.add_argument("--variant", default="full", choices=CATALOG_VARIANTS,
                         help="description variant (diff: of both sides)")
    catalog_show = catalog_sub.add_parser(
        "show", parents=[variant],
        help="one catalog's tools, grouped by category")
    catalog_show.add_argument("name", help="registered catalog name")
    catalog_show.set_defaults(func=cmd_catalog_show)

    catalog_diff = catalog_sub.add_parser(
        "diff", parents=[variant],
        help="added/removed/changed tools between two catalogs "
             "(exit 1 when they differ, like diff(1))")
    catalog_diff.add_argument("old", help="registered catalog name (before)")
    catalog_diff.add_argument("new", help="registered catalog name (after)")
    catalog_diff.add_argument("--against-variant", default=None,
                              choices=CATALOG_VARIANTS,
                              help="variant for the 'after' side only "
                                   "(diff a catalog against its own "
                                   "compressed/minimal form)")
    catalog_diff.set_defaults(func=cmd_catalog_diff)

    profile_parser = sub.add_parser("profile", help="cost one LLM turn")
    profile_parser.add_argument("--tools", type=_at_least(0), default=46)
    # cmd_profile reserves 1024 tokens of the window for the reply
    profile_parser.add_argument("--window", type=_at_least(1024),
                                default=16384)
    profile_parser.add_argument("--quant", default="q4_K_M")
    profile_parser.add_argument("--params-b", type=float, default=8.0)
    profile_parser.add_argument("--output-tokens", type=_at_least(0),
                                default=130)
    profile_parser.add_argument("--power-mode", default="MAXN",
                                choices=POWER_MODE_NAMES)
    profile_parser.set_defaults(func=cmd_profile)

    load_parser = sub.add_parser(
        "load", help="closed-loop load on a serving spec, invariants checked")
    _add_serving(load_parser)
    load_parser.add_argument("--requests", type=_at_least(0), default=32)
    load_parser.add_argument("--concurrency", type=_at_least(1), default=8)
    load_parser.add_argument("--prometheus", action="store_true",
                             help="print the run's Prometheus exposition "
                                  "instead of the summary")
    load_parser.set_defaults(func=cmd_load)

    serve_parser = sub.add_parser(
        "serve", help="boot the HTTP front door over tenant suites")
    _add_serving(serve_parser)
    serve_parser.add_argument("--host", default=None,
                              help="bind host (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=None,
                              help="bind port (default 8080; 0 = ephemeral)")
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
