"""Command-line interface: ``python -m repro <command>`` (``-h`` lists them).

Every evaluation command builds a typed spec (:mod:`repro.specs`) and
drives it through one :func:`repro.open_session` session, so the CLI,
the examples and the bench scripts all exercise the same entrypoint.
``load`` and ``serve`` read one :class:`~repro.specs.ServingSpec` (a
``--spec`` JSON file or a few flags): a fault plan is one of its sections.
A flag that sets a spec field is one :data:`FLAGS` row: the field gives
its type, default and help, and the spec's own validation vets it.
Suite and scheme names resolve through the plugin registries — a
third-party suite registered via :func:`repro.registry.register_suite`
is immediately addressable as ``--suite <name>``.

Examples::

    python -m repro run --suite browser --engine-url http://127.0.0.1:8080/v1
    python -m repro grid --suite bfcl --schemes default,lis-k3 --quants q8_0
    python -m repro catalog diff edgehome edgehome --against-variant minimal
    python -m repro load --spec examples/specs/chaos_stall.json --requests 64
    python -m repro serve --tenants edgehome,bfcl --carbon-budget 180
"""

from __future__ import annotations

import argparse
from dataclasses import MISSING

from repro.registry import SUITES
from repro.session import open_session
from repro.specs import (
    POWER_MODE_NAMES,
    AgentSpec,
    BudgetSpec,
    CatalogSpec,
    EngineSpec,
    ExperimentSpec,
    GridSpec,
    HttpSpec,
    ServingSpec,
    SuiteSpec,
)

#: which spec field each flag sets, plus any argparse keywords of its
#: own; ``_spec`` turns the spec's ValueError into a usage error naming
#: the flag
FLAGS = {
    "--suite": (SuiteSpec, "name", {"default": "bfcl",
                                    "choices": SUITES.names}),
    "-n/--queries": (SuiteSpec, "n_queries", {"default": 60}),
    "--scheme": (AgentSpec, "scheme"),
    "--model": (AgentSpec, "model"),
    "--quant": (AgentSpec, "quant"),
    "--engine": (EngineSpec, "name", {"default": None}),
    "--engine-url": (EngineSpec, "base_url"),
    "--schemes": (GridSpec, "schemes"),
    "--models": (GridSpec, "models"),
    "--quants": (GridSpec, "quants"),
    "--variant": (CatalogSpec, "variant"),
    "name": (CatalogSpec, "name"),
    "old": (CatalogSpec, "name"),
    "new": (CatalogSpec, "name"),
    "--against-variant": (CatalogSpec, "variant", {
        "default": None, "help": "variant of the 'after' side only"}),
    "--batch-size": (ServingSpec, "max_batch_size"),
    "--plan-cache": (ServingSpec, "plan_cache_size"),
    "--timeout-ms": (ServingSpec, "timeout_ms"),
    "--carbon-budget": (BudgetSpec, "energy_budget_j"),
    "--host": (HttpSpec, "host"),
    "--port": (HttpSpec, "port"),
}


def _add_flags(parser: argparse.ArgumentParser, *flags: str,
               unset: bool = False) -> None:
    """Add the :data:`FLAGS` rows ``flags`` to ``parser``.  With ``unset``
    (over a ``--spec`` file) every flag defaults to None, so only a
    given one sets its field."""
    rows = []
    for flag in flags:
        spec, name, *own = FLAGS[flag]
        field = spec.__dataclass_fields__[name]
        default = None if field.default is MISSING else field.default
        default = ",".join(default) if isinstance(default, tuple) else default
        kwargs = {"default": default, "help": field.metadata["help"],
                  "type": {"int": int, "float": float}.get(
                      field.type.split(" | ")[0], str),
                  **(own[0] if own else {})}
        if callable(kwargs.get("choices")):   # a registry, read late
            kwargs["choices"] = kwargs["choices"]()
        shown = default if unset else kwargs["default"]
        if shown is not None:
            kwargs["help"] += f" (default: {shown})"
        if unset:
            kwargs["default"] = None
        rows.append((parser.add_argument(*flag.split("/"), **kwargs),
                     spec, name))
    parser.set_defaults(parser=parser, rows=tuple(rows))


def _given(args: argparse.Namespace, *specs: type) -> list:
    """This command's ``(action, field)`` rows for ``specs`` with a value."""
    return [(action, name) for action, spec, name in args.rows
            if spec in specs and getattr(args, action.dest) is not None]


def _spec(args: argparse.Namespace, cls: type, base=None,
          only: tuple[str, ...] | None = None, **fields):
    """``base`` with the fields its flags set (those whose dest is in
    ``only``, default all) and ``fields``; a new ``cls`` of them without
    a base, and ``base`` itself when nothing is set."""
    rows = [(action, name) for action, name in _given(args, cls)
            if only is None or action.dest in only]
    fields.update((name, getattr(args, action.dest)) for action, name in rows)
    if not fields:
        return base
    try:
        return base.replace(**fields) if base is not None else cls(**fields)
    except ValueError as error:   # "<Spec>.<field> must ..." names a row
        field, _, rest = str(error).partition(" ")
        action = {f"{cls.__name__}.{name}": action
                  for action, name in rows}.get(field.rstrip(":"))
        args.parser.error(str(argparse.ArgumentError(action, rest)) if action
                          else str(error))


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


def _session(args: argparse.Namespace, **specs):
    return open_session(ExperimentSpec(suite=_spec(args, SuiteSpec), **specs))


def cmd_run(args: argparse.Namespace) -> int:
    from repro.evaluation.reporting import render_metric_table
    from repro.evaluation.stats import success_rate_ci

    # --engine-url alone implies openai_http; neither keeps engine=None
    args.engine = args.engine or (args.engine_url and "openai_http")
    session = _session(args, agent=_spec(
        args, AgentSpec, engine=_spec(args, EngineSpec)))
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

    session = _session(args, grid=_spec(args, GridSpec))
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

    session, agent = _session(args), _spec(args, AgentSpec)
    schemes = ["default", "gorilla", "lis-k3", "lis-k5"]
    runs = {scheme: session.run(agent.replace(scheme=scheme))
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

    catalog = _spec(args, CatalogSpec).load()
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
    old = _spec(args, CatalogSpec, only=("old", "variant")).load()
    new = _spec(args, CatalogSpec,
                only=("new", "variant", "against_variant")).load()
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
    """The ServingSpec ``serve`` and ``load`` run: the ``--spec`` file or
    one built from ``--tenants``, ``-n`` and the ServingSpec flags, never
    both; the ``budget`` and ``http`` flags set their fields on either."""
    import json

    from repro.specs import TenantSpec

    if args.spec:
        building = ["--tenants"] * bool(args.tenants) + [
            action.option_strings[0]
            for action, _ in _given(args, ServingSpec, SuiteSpec)]
        if building:
            args.parser.error(f"{', '.join(building)} cannot be combined "
                              f"with --spec")
        with open(args.spec) as handle:
            base = ServingSpec.from_dict(json.load(handle))
    else:
        base = ServingSpec(tenants=tuple(
            TenantSpec(name, _spec(args, SuiteSpec, name=name))
            for name in (args.tenants or "edgehome").split(",")))
    return _spec(args, ServingSpec, base,
                 budget=_spec(args, BudgetSpec, base.budget),
                 http=_spec(args, HttpSpec, base.http))


def cmd_load(args: argparse.Namespace) -> int:
    """Drive ``--requests`` closed-loop requests through the gateway the
    serving spec describes; exit 1 if the drained run breaks one of the
    invariants of :meth:`~repro.serving.loadgen.LoadReport.failures`.
    ``--prometheus`` prints what ``repro serve``'s ``GET /metrics`` would.
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
              f"({report.success_rate:.0%} served), "
              f"{report.goodput_rps:.1f} served req/s of "
              f"{report.throughput_rps:.1f} offered, latency p50/p95/p99 "
              f"{report.latency_p50_ms:.1f}/{report.latency_p95_ms:.1f}/"
              f"{report.latency_p99_ms:.1f} ms")
        print(f"  faults injected: {metrics['faults_injected_by_hook'] or 'none'}"
              f" | deadline timeouts {metrics['deadline_timeouts']}"
              f" | shed {metrics['shed_requests']}")
    failures = report.failures(spec)
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the HTTP front door (``repro.serving.http``) and serve.

    The builtin asyncio server needs nothing beyond the stdlib;
    ``--uvicorn`` mounts the same ASGI app in uvicorn (optional extra).
    Stop with Ctrl-C — the gateway drains and shuts down cleanly.
    """
    import asyncio

    from repro.serving.http import create_app, run_uvicorn, serve_gateway

    serving = _serving_spec(args)
    serving = serving.replace(http=serving.http or HttpSpec())
    gateway = open_session(serving).serve()
    if args.uvicorn:
        run_uvicorn(create_app(gateway), serving.http)
        return 0

    async def serve() -> None:
        def ready(server) -> None:
            tenants = ", ".join(sorted(gateway.sessions.tenant_names))
            print(f"serving tenants [{tenants}] at {server.address} "
                  f"(Ctrl-C to stop)", flush=True)

        await serve_gateway(gateway, ready=ready)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("shutdown complete")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Less-is-More reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)
    catalog = sub.add_parser(
        "catalog", help="inspect registered tool catalogs").add_subparsers(
        dest="catalog_command", required=True)
    evaluation = ("--suite", "-n/--queries")
    serving = ("-n/--queries", "--batch-size", "--plan-cache", "--timeout-ms",
               "--carbon-budget")
    for group, name, func, help, flags in (
            (sub, "run", cmd_run, "evaluate one batch", (*evaluation,
             "--model", "--quant", "--scheme", "--engine", "--engine-url")),
            (sub, "grid", cmd_grid, "sweep a grid, cell by cell",
             (*evaluation, "--schemes", "--models", "--quants")),
            (sub, "compare", cmd_compare, "all schemes side by side",
             (*evaluation, "--model", "--quant")),
            (sub, "levels", cmd_levels, "inspect Search Levels", evaluation),
            (catalog, "list", cmd_catalog_list,
             "all registered catalogs with per-variant token totals", ()),
            (catalog, "show", cmd_catalog_show,
             "one catalog's tools by category", ("--variant", "name")),
            (catalog, "diff", cmd_catalog_diff, "added/removed/changed tools "
             "between two catalogs (exit 1 when they differ, like diff(1))",
             ("--variant", "old", "new", "--against-variant")),
            (sub, "profile", cmd_profile, "cost one LLM turn", ("--quant",)),
            (sub, "load", cmd_load,
             "closed-loop load on a serving spec, invariants checked",
             serving),
            (sub, "serve", cmd_serve, "boot the HTTP front door over tenant "
             "suites", (*serving, "--host", "--port"))):
        command = group.add_parser(name, help=help)
        _add_flags(command, *flags, unset=func in (cmd_load, cmd_serve))
        command.set_defaults(func=func)

    profile, load, serve = map(sub.choices.get, ("profile", "load", "serve"))
    # cmd_profile reserves 1024 tokens of the window for the reply
    for flag, kind, default in (
            ("--tools", _at_least(0), 46), ("--params-b", float, 8.0),
            ("--window", _at_least(1024), 16384),
            ("--output-tokens", _at_least(0), 130)):
        profile.add_argument(flag, type=kind, default=default)
    profile.add_argument("--power-mode", default="MAXN",
                         choices=POWER_MODE_NAMES)
    for command in (load, serve):
        command.add_argument("--spec", metavar="PATH", help=(
            "ServingSpec JSON file (excludes --tenants, -n and the batching "
            "flags)"))
        command.add_argument("--tenants", help=(
            "comma-separated suite names; each becomes a tenant of the same "
            "name (default: edgehome)"))
    load.add_argument("--requests", type=_at_least(0), default=32)
    load.add_argument("--concurrency", type=_at_least(1), default=8)
    load.add_argument("--prometheus", action="store_true",
                      help="print the run's Prometheus exposition instead of "
                           "the summary")
    serve.add_argument("--uvicorn", action="store_true",
                       help="serve through uvicorn (optional extra) instead "
                            "of the builtin asyncio server")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
