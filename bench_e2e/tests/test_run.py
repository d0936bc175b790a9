"""One ``--quick`` pass over all four workloads, and what must hold."""

import dataclasses
import json
import re

import pytest

from bench_e2e import metrics, runner, workloads
from bench_e2e.__main__ import main
from bench_e2e.verify import verify_round
from bench_e2e.workloads import WORKLOADS


@pytest.fixture(scope="module")
def reports():
    return runner.run(list(WORKLOADS), seed=5, seconds=12.0,
                      untraced_rounds=1, trace=True, quick=True)


@pytest.fixture(scope="module")
def contract():
    with open(workloads.REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def test_every_workload_serves_verifies_and_fails_nothing(reports):
    for name, report in reports.items():
        assert report.correct, (name, report.violations, report.mismatch)
        assert report.verified > 0
        attempted, failed = report.counts(True)
        assert attempted > 0 and failed == 0
        assert report.per_layer["e2e.fail_frac"] == 0.0


def test_printed_names_are_the_names_in_benchmark_json(reports, contract):
    end_to_end = [entry["name"] for entry in contract["end_to_end"]]
    per_layer = [entry["name"] for entry in contract["per_layer"]]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    for report in reports.values():
        plain = json.loads(runner.driver_line(report, trace=False))
        traced = json.loads(runner.driver_line(report, trace=True))
        assert sorted(plain["metrics"]) == sorted(end_to_end)
        assert sorted(traced["metrics"]) == sorted(per_layer)
        assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    for name in end_to_end + per_layer:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name) and len(name) <= 64


def test_contract_units_directions_and_rationales_match(contract):
    declared = {entry["name"]: (entry["unit"], entry["better"])
                for entry in contract["end_to_end"] + contract["per_layer"]}
    assert declared == {name: (unit, better) for name, unit, better
                        in metrics.END_TO_END + metrics.PER_LAYER}
    assert {w["name"]: w["why"] for w in contract["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()}
    assert all(0 < entry["bound"] <= 0.25 for entry in contract["end_to_end"])
    assert contract["paths"] == ["bench_e2e"]


def test_end_to_end_metrics_are_never_zero(reports):
    for report in reports.values():
        for name, (value, _) in report.end_to_end.items():
            assert value > 0.0, (report.name, name)


def test_layers_show_up_where_the_workload_uses_them(reports):
    offline = reports["offline_compare"].per_layer
    over_http = reports["http_closed_c2"].per_layer
    zipf = reports["gw_open_zipf"].per_layer
    assert offline["llm.execute_step.self_ms_per_req"] > 0.0
    assert offline["obs.cost_record.self_ms_per_req"] == 0.0
    assert offline["serving.batch_size_mean"] == 0.0
    assert over_http["http.app.self_ms_per_req"] > 0.0
    assert over_http["http.resp_bytes_per_req"] > 0.0
    assert over_http["http.conn_opened"] == 2.0
    assert over_http["setup.spawn_to_banner_s"] > 0.0
    assert zipf["http.app.self_ms_per_req"] == 0.0
    assert zipf["serving.plan_cache.hit_frac"] > 0.0
    assert reports["gw_closed_c32"].per_layer[
        "serving.plan_cache.hit_frac"] == 0.0


def test_equal_seeds_do_equal_work(reports):
    again = runner.run(["gw_open_zipf"], seed=5, seconds=12.0,
                       untraced_rounds=1, trace=False, quick=True)
    first, second = reports["gw_open_zipf"], again["gw_open_zipf"]
    for name in ("success_rate", "sim_latency_s_per_req",
                 "sim_energy_j_per_req"):
        assert first.end_to_end[name] == second.end_to_end[name]
    assert (sorted(o.qid for o in first.untraced[0].outputs)
            == sorted(o.qid for o in second.untraced[0].outputs))


def test_a_corrupted_served_episode_fails_verification(reports):
    result = reports["gw_closed_c32"].untraced[0]
    assert verify_round(result)[1] is None
    original = result.outputs[0]
    result.outputs[0] = original._replace(episode=dataclasses.replace(
        original.episode, energy_j=original.episode.energy_j + 1e-9))
    try:
        checked, mismatch = verify_round(result)
    finally:
        result.outputs[0] = original
    assert mismatch is not None and mismatch.qid == original.qid
    assert "energy_j" in str(mismatch) and "gw_closed_c32" in str(mismatch)


def test_the_command_exits_non_zero_on_a_mismatch(monkeypatch, capsys):
    real = workloads.run_round

    def corrupting(*args, **kwargs):
        result = real(*args, **kwargs)
        first = result.outputs[0]
        result.outputs[0] = first._replace(episode=dataclasses.replace(
            first.episode, prompt_tokens=first.episode.prompt_tokens + 1))
        return result

    monkeypatch.setattr(workloads, "run_round", corrupting)
    code = main(["--workload", "gw_closed_c32", "--quick", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "output mismatch: workload=gw_closed_c32" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
