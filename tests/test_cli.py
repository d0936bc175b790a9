"""Tests for the command-line interface."""

import itertools
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _serving_spec, build_parser, main
from repro.serving import Gateway
from repro.specs import BudgetSpec, FaultPlan, ServingSpec, SuiteSpec, TenantSpec
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


@pytest.mark.parametrize("argv,flag", [
    (["run", "--suite", "edgehome", "-n", "0"], "-n/--queries"),
    (["load", "-n", "0"], "-n/--queries"),
    (["load", "--concurrency", "0", "--requests", "2"], "--concurrency"),
    (["load", "--batch-size", "0"], "--batch-size"),
    (["profile", "--window", "512"], "--window"),
    (["profile", "--tools", "-5"], "--tools"),
])
def test_size_flags_out_of_range_are_usage_errors(argv, flag, capsys):
    """Exit 2 with argparse's message naming the flag, not a traceback."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be >= " in capsys.readouterr().err


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
        assert "0 failed (100% served)" in capsys.readouterr().out

    def test_prometheus_prints_the_scrape(self, capsys):
        assert main(["load", "--requests", "8", "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "repro_requests_completed_total 8" in out
        assert "load:" not in out


class TestModuleEntry:
    def test_dunder_main_importable(self):
        import repro.__main__  # noqa: F401
