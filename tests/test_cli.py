"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


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
        # episodes run on the batch worker: no pool to size or to crash
        for stale in (["--workers", "2"], ["--crash-rate", "0.25"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["chaos", *stale])


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


    def test_carbon_command_reproduces_committed_budget_scenario(self, capsys):
        """The wave-driven budget scenario is deterministic (manual
        controller ticks, seeded energy model), so its numbers are exact
        (the uncontrolled row is the ``serving.budget`` value of the perf
        baseline retired at c15e7b3; see CHANGES.md, PRs 16 and 23)."""
        assert main(["carbon", "--requests", "96", "--window", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [re.search(r"(\d+)/96 req at .* \| ([\d.]+) J/req", line)
                for line in lines[:2]]
        served = [int(row.group(1)) for row in rows]
        j_per_req = [float(row.group(2)) for row in rows]
        # the subsystem's stated invariants: less energy per served
        # request than uncontrolled, with goodput left
        assert j_per_req[1] < j_per_req[0]
        assert served[1] > 0
        # ... and the committed values (48 served means 48 shed)
        assert served == [96, 48]
        assert j_per_req == [234.6, 185.6]
        assert lines[1].startswith("budget 140.7 J/req:")
        assert "20.62 mgCO2/req (21% energy saved)" in lines[1]
        assert lines[2].strip() == "ladder moves: " + str({
            "edgehome:down:reduced-k": 1, "edgehome:down:shed": 4,
            "edgehome:up:reduced-k": 3})
        assert lines[3].strip() == "power-mode moves: none"


class TestChaosExitCode:
    """``repro chaos`` fails when a request was lost although every
    injected fault was recoverable; with unrecoverable faults armed
    (executor exceptions, a deadline) losses are the expected outcome."""

    @pytest.fixture
    def lossy_run(self, monkeypatch):
        """Stub ``run_load`` with a report that served all but one of
        the offered requests."""
        import repro.serving
        from repro.serving import LoadReport, make_workload

        def run_load(suites, config, n_requests, concurrency, **_):
            served = make_workload(suites, n_requests)[:-1]
            return LoadReport(
                n_requests=n_requests, concurrency=concurrency, wall_s=1.0,
                latencies_s=[0.01] * len(served),
                episodes={(load.tenant, load.query.qid, 0): None
                          for load in served},
                gateway_metrics={"deadline_timeouts": 0,
                                 "faults_injected_by_hook": {}},
                n_errors=n_requests - len(served))

        monkeypatch.setattr(repro.serving, "run_load", run_load)

    def test_loss_under_recoverable_faults_fails(self, lossy_run, capsys):
        from repro.suites import load_suite

        assert main(["chaos", "--requests", "4",
                     "--exception-rate", "0"]) == 1
        out = capsys.readouterr().out
        lost = load_suite("edgehome").queries[3].qid
        assert "LOST: 1 request(s)" in out
        assert f"edgehome/{lost}" in out

    @pytest.mark.parametrize("unrecoverable", [
        ["--exception-rate", "0.1"],
        ["--exception-rate", "0", "--timeout-ms", "50"],
    ])
    def test_loss_under_unrecoverable_faults_is_expected(
            self, lossy_run, capsys, unrecoverable):
        assert main(["chaos", "--requests", "4", *unrecoverable]) == 0
        assert "LOST" not in capsys.readouterr().out

    def test_clean_run_exits_zero(self, capsys):
        assert main(["chaos", "--requests", "4", "--concurrency", "2",
                     "--exception-rate", "0"]) == 0
        assert "0 failed (100% served)" in capsys.readouterr().out


class TestModuleEntry:
    def test_dunder_main_importable(self):
        import repro.__main__  # noqa: F401
