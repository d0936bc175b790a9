"""Prometheus text-exposition rendering: format validity, label
escaping, histogram bucket monotonicity, and the gateway integration.

``_parse_exposition`` is a small strict parser for the subset of the
format the renderer emits — every sample line must match the exposition
grammar and belong to a family declared by a preceding ``# TYPE`` line —
so "parses as valid Prometheus text" is checked structurally rather than
by eyeballing strings.
"""

from __future__ import annotations

import asyncio
import re

import pytest

from repro.obs import escape_label_value, render_prometheus
from repro.serving import Gateway, SessionManager, Telemetry
from repro.specs import ServingSpec
from repro.suites import load_suite

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[^ ]+)$")
_LABEL = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>.*)"$')


def _split_labels(body: str) -> dict[str, str]:
    """Split ``k1="v1",k2="v2"`` respecting escaped quotes."""
    labels: dict[str, str] = {}
    if not body:
        return labels
    parts, depth, current = [], False, []
    for char in body:
        if char == '"' and (not current or current[-1] != "\\"):
            depth = not depth
        if char == "," and not depth:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    for part in parts:
        match = _LABEL.match(part)
        assert match, f"malformed label pair: {part!r}"
        labels[match.group("key")] = match.group("value")
    return labels


def _parse_exposition(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Parse exposition text into ``{family: [(labels, value), ...]}``.

    Asserts the structural rules: HELP/TYPE precede samples, sample
    names extend a declared family only by ``_bucket``/``_sum``/
    ``_count``, values are floats, and the text ends with a newline.
    """
    assert text.endswith("\n")
    families: dict[str, str] = {}
    samples: dict[str, list[tuple[dict, float]]] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in {"counter", "gauge", "histogram", "summary"}
            assert name not in families, f"family {name} declared twice"
            families[name] = kind
            continue
        assert not line.startswith("#"), f"unknown comment line: {line!r}"
        match = _SAMPLE.match(line)
        assert match, f"malformed sample line: {line!r}"
        name = match.group("name")
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in families or family in families, \
            f"sample {name} has no declared family"
        labels = _split_labels(match.group("labels") or "")
        value = float(match.group("value"))
        samples.setdefault(name, []).append((labels, value))
    return samples


# ----------------------------------------------------------------------
# label escaping
# ----------------------------------------------------------------------
def test_escape_label_value_covers_the_three_escapes():
    assert escape_label_value('a"b') == 'a\\"b'
    assert escape_label_value("a\\b") == "a\\\\b"
    assert escape_label_value("a\nb") == "a\\nb"
    # escaping order matters: a backslash introduced by quote-escaping
    # must not be double-escaped
    assert escape_label_value('\\"') == '\\\\\\"'
    assert escape_label_value("plain") == "plain"


def test_hostile_tenant_names_render_and_parse():
    snapshot = {"shed_requests_by_tenant": {'evil"tenant\n\\': 3}}
    samples = _parse_exposition(render_prometheus(snapshot))
    [(labels, value)] = samples["repro_shed_requests_total"]
    assert value == 3.0
    assert labels["tenant"] == 'evil\\"tenant\\n\\\\'


# ----------------------------------------------------------------------
# structure
# ----------------------------------------------------------------------
def test_real_snapshot_renders_valid_exposition_text():
    telemetry = Telemetry()
    for depth in (1, 2, 3):
        telemetry.record_admission(depth)
    for size in (2, 2, 4):
        telemetry.record_flush(size)
    telemetry.record_completion(0.010)
    telemetry.record_completion(0.030)
    telemetry.record_fault("process.execute")
    telemetry.record_degradation("home", "compressed", "down")
    samples = _parse_exposition(render_prometheus(telemetry.snapshot()))
    assert samples["repro_requests_admitted_total"] == [({}, 3.0)]
    assert samples["repro_requests_completed_total"] == [({}, 2.0)]
    [(labels, value)] = samples["repro_faults_injected_total"]
    assert (labels, value) == ({"hook": "process.execute"}, 1.0)
    [(labels, value)] = samples["repro_degrade_transitions_total"]
    assert labels == {"tenant": "home", "direction": "down",
                      "rung": "compressed"}
    # gauge satellites are present
    assert samples["repro_uptime_seconds"][0][1] >= 0.0
    assert samples["repro_snapshot_seq"][0][1] == 1.0


def test_energy_carbon_and_budget_families_render():
    """The carbon/power subsystem's three families survive the strict
    parser: per-tenant joules and grams, per-scope budget transitions."""
    telemetry = Telemetry()
    telemetry.record_energy("home", 12.5, 0.002)
    telemetry.record_energy("home", 7.5, 0.001)
    telemetry.record_energy("office", 5.0, 0.0005)
    telemetry.record_budget_transition("home", "compressed", "down")
    telemetry.record_budget_transition("device", "30W", "down")
    telemetry.record_budget_transition("device", "MAXN", "up")
    samples = _parse_exposition(render_prometheus(telemetry.snapshot()))
    energy = {labels["tenant"]: value
              for labels, value in samples["repro_energy_joules_total"]}
    assert energy == {"home": 20.0, "office": 5.0}
    carbon = {labels["tenant"]: value
              for labels, value in samples["repro_carbon_grams_total"]}
    assert carbon == {"home": pytest.approx(0.003), "office": 0.0005}
    transitions = {(labels["scope"], labels["direction"], labels["target"]):
                   value
                   for labels, value in samples["repro_budget_transitions_total"]}
    assert transitions == {("home", "down", "compressed"): 1.0,
                           ("device", "down", "30W"): 1.0,
                           ("device", "up", "MAXN"): 1.0}


def test_histogram_buckets_are_cumulative_and_monotonic():
    snapshot = {"batch_size_histogram": {"2": 3, "8": 1, "4": 2}}
    samples = _parse_exposition(render_prometheus(snapshot))
    buckets = samples["repro_batch_size_bucket"]
    bounds = [labels["le"] for labels, _ in buckets]
    assert bounds == ["2", "4", "8", "+Inf"]
    counts = [value for _, value in buckets]
    assert counts == sorted(counts), "bucket counts must be monotonic"
    assert counts == [3.0, 5.0, 6.0, 6.0]
    assert samples["repro_batch_size_count"] == [({}, 6.0)]
    assert samples["repro_batch_size_sum"] == [({}, 2 * 3 + 4 * 2 + 8 * 1)]


def test_latency_summary_quantiles_carry_the_window_label():
    snapshot = {"latency_p50_ms": 10.0, "latency_p95_ms": 20.0,
                "latency_p99_ms": 30.0, "latency_mean_ms": 12.0,
                "requests_completed": 4}
    samples = _parse_exposition(render_prometheus(snapshot))
    quantiles = {labels["quantile"]: value
                 for labels, value in samples["repro_request_latency_seconds"]}
    assert quantiles == {"0.5": 0.010, "0.95": 0.020, "0.99": 0.030}
    for labels, _ in samples["repro_request_latency_seconds"]:
        assert labels["window"] == "ring"
    assert samples["repro_request_latency_seconds_count"] == [({}, 4.0)]
    assert samples["repro_request_latency_seconds_sum"] == \
        [({}, pytest.approx(4 * 0.012))]


def test_queue_wait_summary_renders_from_flush_samples():
    telemetry = Telemetry()
    telemetry.record_flush(1, [0.0])
    telemetry.record_flush(3, [0.002, 0.004, 0.006])
    snapshot = telemetry.snapshot()
    assert snapshot["queue_wait_p50_ms"] == pytest.approx(3.0)
    samples = _parse_exposition(render_prometheus(snapshot))
    quantiles = {labels["quantile"]: (labels["window"], value)
                 for labels, value in samples["repro_queue_wait_seconds"]}
    assert quantiles == {
        "0.5": ("ring", pytest.approx(0.003)),
        "0.95": ("ring", pytest.approx(snapshot["queue_wait_p95_ms"] / 1e3))}
    assert samples["repro_queue_wait_seconds_sum"] == \
        [({}, pytest.approx(0.012))]
    assert samples["repro_queue_wait_seconds_count"] == [({}, 4.0)]
    # a pre-queue-wait snapshot renders without the family
    assert "repro_queue_wait_seconds" not in _parse_exposition(
        render_prometheus({"latency_p50_ms": 1.0}))


def test_missing_keys_render_absent_families_not_errors():
    text = render_prometheus({})
    assert _parse_exposition(text) == {}
    # a partial (older) snapshot renders only what it has
    samples = _parse_exposition(render_prometheus({"requests_admitted": 7}))
    assert list(samples) == ["repro_requests_admitted_total"]


def test_cost_snapshot_renders_per_tenant_counters():
    cost = {"total": {"requests": 3},
            "by_tenant": {
                "home": {"requests": 2, "tool_prompt_tokens": 700,
                         "prompt_tokens": 40, "completion_tokens": 10,
                         "llm_calls": 2},
                "office": {"requests": 1, "tool_prompt_tokens": 250,
                           "prompt_tokens": 20, "completion_tokens": 5,
                           "llm_calls": 1}}}
    samples = _parse_exposition(render_prometheus({}, cost=cost))
    tokens = {labels["tenant"]: value for labels, value
              in samples["repro_cost_tool_prompt_tokens_total"]}
    assert tokens == {"home": 700.0, "office": 250.0}
    requests = {labels["tenant"]: value for labels, value
                in samples["repro_cost_requests_total"]}
    assert requests == {"home": 2.0, "office": 1.0}


def test_custom_namespace_prefixes_every_family():
    text = render_prometheus({"requests_admitted": 1}, namespace="edge")
    assert "edge_requests_admitted_total 1" in text
    assert "repro_" not in text


# ----------------------------------------------------------------------
# gateway integration
# ----------------------------------------------------------------------
def test_gateway_metrics_text_is_valid_and_live():
    suite = load_suite("edgehome", n_queries=4)

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        config = ServingSpec(max_batch_size=4, max_wait_ms=2.0)
        async with Gateway(sessions, config=config) as gateway:
            await asyncio.gather(*(
                gateway.submit("home", query) for query in suite.queries))
            return gateway.metrics_text()

    samples = _parse_exposition(asyncio.run(scenario()))
    assert samples["repro_requests_completed_total"] == [({}, 4.0)]
    # the scheduler feeds every dispatched request's queue wait
    assert samples["repro_queue_wait_seconds_count"] == [({}, 4.0)]
    assert samples["repro_queue_wait_seconds_sum"][0][1] >= 0.0
    # the cost ledger rides along in the same exposition
    [(labels, value)] = samples["repro_cost_requests_total"]
    assert labels == {"tenant": "home"}
    assert value == 4.0
    assert samples["repro_cost_tool_prompt_tokens_total"][0][1] > 0.0
    # every gateway meters energy/carbon, so the families are live too
    [(labels, value)] = samples["repro_energy_joules_total"]
    assert labels == {"tenant": "home"}
    assert value > 0.0
    [(labels, value)] = samples["repro_carbon_grams_total"]
    assert labels == {"tenant": "home"}
    assert value > 0.0
