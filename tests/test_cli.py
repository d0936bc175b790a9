"""Tests for the command-line interface."""

import argparse
import itertools
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _serving_spec, build_parser, main
from repro.serving import Gateway
from repro.specs import (
    BudgetSpec,
    FaultPlan,
    HttpSpec,
    ServingSpec,
    SuiteSpec,
    TenantSpec,
)
from repro.suites import load_suite

ROOT = Path(__file__).resolve().parent.parent


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.suite == "bfcl"
        assert args.scheme == "lis-k3"
        assert args.queries == 60

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.tools == 46
        assert args.power_mode == "MAXN"

    def test_invalid_suite(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--suite", "toolbench"])

    def test_grid_defaults(self):
        args = build_parser().parse_args(["grid"])
        assert args.schemes == "default,gorilla,lis-k3"

    def test_grid_rejects_unknown_backend(self):
        # the grid is one in-process loop: the pool flags are gone, so
        # even their formerly valid values are argparse errors
        for stale in (["--backend", "gpu"], ["--backend", "process"],
                      ["--workers", "2"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["grid", *stale])

    def test_chaos_rejects_the_pool_flags(self):
        # chaos runs are `repro load` over a fault plan; episodes run on
        # the batch worker: no pool to size or to crash
        for stale in (["--workers", "2"], ["--crash-rate", "0.25"],
                      ["--seed", "3"], ["--slow-rate", "0.25"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["load", *stale])

    @pytest.mark.parametrize("command", ["metrics", "chaos", "carbon"])
    def test_load_replaced_the_per_scenario_commands(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])

    def test_option_strings_are_pinned(self):
        """Deriving flags from spec fields adds and renames none: each
        subcommand's option strings, as they were before the flag table,
        minus ``levels --model/--quant`` (never read) and ``grid
        --model/--quant`` (they duplicated ``--models``/``--quants``)."""
        eval_flags = {"-h", "--help", "--suite", "-n", "--queries"}
        serving = {"-h", "--help", "--spec", "--tenants", "-n", "--queries",
                   "--batch-size", "--plan-cache", "--timeout-ms",
                   "--carbon-budget"}
        assert _option_strings(build_parser()) == {
            "run": eval_flags | {"--model", "--quant", "--scheme", "--engine",
                                 "--engine-url"},
            "grid": eval_flags | {"--schemes", "--models", "--quants"},
            "compare": eval_flags | {"--model", "--quant"},
            "levels": eval_flags,
            "catalog": {"-h", "--help"},
            "catalog list": {"-h", "--help"},
            "catalog show": {"-h", "--help", "--variant", "name"},
            "catalog diff": {"-h", "--help", "--variant", "old", "new",
                             "--against-variant"},
            "profile": {"-h", "--help", "--tools", "--window", "--quant",
                        "--params-b", "--output-tokens", "--power-mode"},
            "load": serving | {"--requests", "--concurrency", "--prometheus"},
            "serve": serving | {"--host", "--port", "--uvicorn"},
        }

    def test_flag_type_default_and_help_come_from_the_field(self, capsys):
        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.port == 0 and args.host is None   # unset over --spec
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        assert "bind port (0: an ephemeral one) (default: 8080)" in " ".join(
            capsys.readouterr().out.split())


def _option_strings(parser, prefix=()) -> dict:
    """``{"sub command": {option strings, positional dests}}``."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                found.update(_option_strings(child, (*prefix, name)))
    if prefix:
        found[" ".join(prefix)] = {
            option for action in parser._actions
            if not isinstance(action, argparse._SubParsersAction)
            for option in action.option_strings or [action.dest]}
    return found


def _spec_file(tmp_path, **fields) -> str:
    path = tmp_path / "serving.json"
    path.write_text(json.dumps(ServingSpec(
        tenants=(TenantSpec("edgehome", SuiteSpec("edgehome")),),
        **fields).to_dict()))
    return str(path)


class TestServingSpecFlags:
    """``serve`` and ``load`` read one ServingSpec: a ``--spec`` file or
    the flags that build one, never both."""

    @pytest.mark.parametrize("command", ["serve", "load"])
    @pytest.mark.parametrize("flag", [
        ["--tenants", "bfcl"], ["-n", "3"], ["--batch-size", "2"],
        ["--plan-cache", "8"], ["--timeout-ms", "5"]])
    def test_a_spec_flag_beside_spec_is_a_usage_error(
            self, tmp_path, capsys, command, flag):
        args = build_parser().parse_args(
            [command, "--spec", _spec_file(tmp_path), *flag])
        with pytest.raises(SystemExit) as excinfo:
            _serving_spec(args)
        assert excinfo.value.code == 2
        assert f"{flag[0]} cannot be combined with --spec" in (
            capsys.readouterr().err)

    def test_serve_names_every_dropped_flag_before_booting(
            self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--spec", _spec_file(tmp_path), "--batch-size",
                  "2", "-n", "3", "--timeout-ms", "5"])
        assert excinfo.value.code == 2
        assert ("-n, --batch-size, --timeout-ms cannot be combined with "
                "--spec") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "load"])
    def test_flags_default_to_the_spec_defaults(self, command):
        assert _serving_spec(build_parser().parse_args([command])) == \
            ServingSpec(tenants=(TenantSpec("edgehome", SuiteSpec("edgehome")),))

    def test_flags_build_the_spec(self):
        args = build_parser().parse_args([
            "load", "--tenants", "edgehome,bfcl", "-n", "4", "--batch-size",
            "2", "--plan-cache", "16", "--timeout-ms", "250"])
        assert _serving_spec(args) == ServingSpec(
            tenants=(TenantSpec("edgehome", SuiteSpec("edgehome", n_queries=4)),
                     TenantSpec("bfcl", SuiteSpec("bfcl", n_queries=4))),
            max_batch_size=2, plan_cache_size=16, timeout_ms=250.0)

    def test_carbon_budget_host_and_port_apply_over_spec(self, tmp_path):
        spec_path = _spec_file(tmp_path, max_batch_size=4)
        args = build_parser().parse_args([
            "serve", "--spec", spec_path, "--host", "0.0.0.0", "--port", "0",
            "--carbon-budget", "180"])
        assert (args.host, args.port) == ("0.0.0.0", 0)
        spec = _serving_spec(args)
        assert spec.max_batch_size == 4
        assert spec.budget == BudgetSpec(energy_budget_j=180.0)

    @pytest.mark.parametrize("command", ["serve", "load"])
    def test_carbon_budget_keeps_the_spec_files_budget(self, tmp_path,
                                                       command):
        """``--carbon-budget`` sets one field of the file's BudgetSpec, as
        ``--host``/``--port`` set fields of its HttpSpec: the window and
        the power-mode threshold survive."""
        spec_path = _spec_file(tmp_path, budget=BudgetSpec(
            window_requests=4, intensity_high=450.0))
        spec = _serving_spec(build_parser().parse_args(
            [command, "--spec", spec_path, "--carbon-budget", "150"]))
        assert spec.budget == BudgetSpec(
            energy_budget_j=150.0, window_requests=4, intensity_high=450.0)

    def test_host_and_port_keep_the_spec_files_http(self, tmp_path):
        spec_path = _spec_file(tmp_path, http=HttpSpec(
            port=9000, api_key="k", rate_limit_rps=5.0))
        spec = _serving_spec(build_parser().parse_args(
            ["serve", "--spec", spec_path, "--host", "0.0.0.0"]))
        assert spec.http == HttpSpec(host="0.0.0.0", port=9000, api_key="k",
                                     rate_limit_rps=5.0)


def _documented_commands():
    """Every ``-m repro …`` command in the README and the Makefile:
    continuation lines joined, stopped at a comment, redirection or
    ``;``, as the argv the CLI would receive."""
    for name in ("README.md", "Makefile"):
        text = (ROOT / name).read_text(encoding="utf-8").replace("\\\n", " ")
        for match in re.finditer(r"-m repro\s+(.*)", text):
            lexer = shlex.shlex(match.group(1), posix=True,
                                punctuation_chars=True)
            lexer.whitespace_split = True
            argv = list(itertools.takewhile(
                lambda token: not set(token) <= set("();<>|&"), lexer))
            yield pytest.param(argv, id=f"{name}: {' '.join(argv)}")


@pytest.mark.parametrize("argv", list(_documented_commands()))
def test_documented_commands_parse(argv):
    build_parser().parse_args(argv)


#: one bad value per bounded flag: the spec's own validation (or
#: ``_at_least`` for a flag no spec has) refuses it
_BAD_VALUES = [
    (["run", "--suite", "edgehome", "-n", "0"], "-n/--queries", "must be >= 1"),
    (["load", "-n", "0"], "-n/--queries", "must be >= 1"),
    (["load", "--concurrency", "0", "--requests", "2"], "--concurrency",
     "must be >= 1"),
    (["load", "--batch-size", "0"], "--batch-size", "must be >= 1"),
    (["profile", "--window", "512"], "--window", "must be >= 1024"),
    (["profile", "--tools", "-5"], "--tools", "must be >= 0"),
    (["load", "--requests", "-1"], "--requests", "must be >= 0"),
    (["profile", "--output-tokens", "-1"], "--output-tokens", "must be >= 0"),
    (["load", "--plan-cache", "-1"], "--plan-cache", "must be >= 0"),
    (["load", "--timeout-ms", "0"], "--timeout-ms", "must be > 0"),
    (["serve", "--carbon-budget", "-5"], "--carbon-budget", "must be > 0"),
    (["serve", "--port", "-1"], "--port", "must be in [0, 65535]"),
    (["serve", "--port", "70000"], "--port", "must be in [0, 65535]"),
    (["serve", "--host", ""], "--host", "must be a non-empty string"),
    (["grid", "--schemes", ","], "--schemes", "must name at least one entry"),
    (["grid", "--models", ","], "--models", "must name at least one entry"),
    (["grid", "--quants", ","], "--quants", "must name at least one entry"),
    (["run", "--scheme", ""], "--scheme", "must be a non-empty string"),
    (["compare", "--model", ""], "--model", "must be a non-empty string"),
    (["run", "--quant", ""], "--quant", "must be a non-empty string"),
    (["run", "--engine", "nosuch"], "--engine", "unknown engine 'nosuch'"),
    (["catalog", "show", "nosuch"], "name", "unknown catalog 'nosuch'"),
    (["catalog", "diff", "edgehome", "nosuch"], "new",
     "unknown catalog 'nosuch'"),
    (["catalog", "show", "edgehome", "--variant", "tiny"], "--variant",
     "must be one of full, compressed, minimal"),
    (["catalog", "diff", "edgehome", "edgehome", "--variant", "compressed",
      "--against-variant", "tiny"], "--against-variant",
     "must be one of full, compressed, minimal"),
    # an optional field's bound reads as a usage error: no "(or None)"
    (["run", "--suite", "edgehome", "-n", "0"], "-n/--queries",
     "must be >= 1, got 0\n"),
    # the scheme name is vetted before the suite loads
    (["run", "--scheme", "nosuch"], "--scheme", "unknown scheme 'nosuch'"),
    (["run", "--scheme", "lis-k0"], "--scheme",
     "-k<N> suffix must be >= 1, got 'lis-k0'"),
    (["grid", "--schemes", "default,nosuch"], "--schemes",
     "unknown scheme 'nosuch'"),
]


@pytest.mark.parametrize("argv,flag,message", _BAD_VALUES, ids=[
    f"argv{index}-{flag}" for index, (_, flag, _) in enumerate(_BAD_VALUES)])
def test_size_flags_out_of_range_are_usage_errors(argv, flag, message, capsys):
    """Exit 2 with argparse's message naming the flag, not a traceback."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err


def test_documented_commands_are_found():
    commands = {argv[0] for argv in
                (param.values[0] for param in _documented_commands())}
    assert {"run", "grid", "compare", "load", "serve", "catalog"} <= commands


class TestCommands:
    def test_run_command(self, capsys):
        assert main(["run", "--suite", "bfcl", "-n", "5",
                     "--model", "qwen2-7b", "--scheme", "lis-k3"]) == 0
        out = capsys.readouterr().out
        assert "success" in out
        assert "CI" in out

    def test_compare_command(self, capsys):
        assert main(["compare", "--suite", "bfcl", "-n", "4",
                     "--model", "qwen2-7b"]) == 0
        out = capsys.readouterr().out
        assert "gorilla" in out
        assert "vs default" in out

    def test_levels_command(self, capsys):
        assert main(["levels", "--suite", "geoengine", "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "Level 2" in out
        assert "cluster 0" in out

    def test_profile_command(self, capsys):
        assert main(["profile", "--tools", "19", "--window", "8192",
                     "--power-mode", "15W"]) == 0
        out = capsys.readouterr().out
        assert "prefill" in out
        assert "15W" in out


class TestChaosExitCode:
    """A chaos run is ``repro load`` over a fault plan.  It fails when a
    request was lost although nothing in the spec makes a loss expected;
    with unrecoverable faults armed (executor exceptions, a deadline)
    losses are the expected outcome."""

    @pytest.fixture
    def lossy_run(self, monkeypatch):
        """Fail the fourth offered request inside the batch worker, as a
        bug that drops a request would."""
        lost = load_suite("edgehome").queries[3].qid
        process_batch = Gateway._process_batch

        def lossy(self, batch):
            return [RuntimeError("dropped") if request.payload.query.qid == lost
                    else response
                    for request, response in zip(batch, process_batch(self, batch))]

        monkeypatch.setattr(Gateway, "_process_batch", lossy)
        return lost

    def test_loss_under_recoverable_faults_fails(self, lossy_run, tmp_path,
                                                 capsys):
        spec_path = _spec_file(tmp_path, faults=FaultPlan(
            seed=0, slow_batch_rate=0.5, slow_batch_ms=1.0))
        assert main(["load", "--spec", spec_path, "--requests", "4"]) == 1
        out = capsys.readouterr().out
        assert "1 failed" in out
        assert f"LOST: 1 request(s) failed under recoverable faults only: " \
               f"edgehome/{lossy_run}" in out

    @pytest.mark.parametrize("unrecoverable", [
        {"faults": FaultPlan(exception_rate=0.1)},
        {"timeout_ms": 50.0},
    ])
    def test_loss_under_unrecoverable_faults_is_expected(
            self, lossy_run, tmp_path, capsys, unrecoverable):
        spec_path = _spec_file(tmp_path, **unrecoverable)
        assert main(["load", "--spec", spec_path, "--requests", "4"]) == 0
        out = capsys.readouterr().out
        assert "failed" in out and "LOST" not in out

    def test_clean_run_exits_zero(self, capsys):
        assert main(["load", "--requests", "4", "--concurrency", "2"]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        line = re.fullmatch(
            r"load: 4 requests, 0 failed \(100% served\), "
            r"(?P<good>[\d.]+) served req/s of (?P<offered>[\d.]+) offered, "
            r"latency p50/p95/p99 [\d.]+/[\d.]+/[\d.]+ ms", summary)
        assert line and line["good"] == line["offered"]  # nothing failed

    def test_prometheus_prints_the_scrape(self, capsys):
        assert main(["load", "--requests", "8", "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "repro_requests_completed_total 8" in out
        assert "load:" not in out


class TestModuleEntry:
    def test_dunder_main_importable(self):
        import repro.__main__  # noqa: F401
