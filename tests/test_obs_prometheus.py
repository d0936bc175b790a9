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
import inspect
import re

import pytest

from repro.obs import escape_label_value, render_prometheus
from repro.obs.prometheus import FAMILIES
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


def test_colon_in_a_tenant_name_stays_in_the_tenant_label():
    """``org:home`` is a legal tenant name; only the first label of a
    joined snapshot key is free-form, so it is split from the right."""
    telemetry = Telemetry()
    telemetry.record_degradation("org:home", "compressed", "down")
    telemetry.record_budget_transition("org:home", "minimal", "down")
    snapshot = telemetry.snapshot()
    assert snapshot["degrade_transitions_detail"] == {
        "org:home:down:compressed": 1}
    samples = _parse_exposition(render_prometheus(snapshot))
    assert samples["repro_degrade_transitions_total"] == [
        ({"tenant": "org:home", "direction": "down", "rung": "compressed"},
         1.0)]
    assert samples["repro_budget_transitions_total"] == [
        ({"scope": "org:home", "direction": "down", "target": "minimal"},
         1.0)]


# ----------------------------------------------------------------------
# the family table
# ----------------------------------------------------------------------
#: the parent commit's Telemetry().snapshot() keys, written out, minus
#: the worker-restart and inline-fallback counters (the worker pool is
#: gone): the table may be re-ordered or re-typed, the wire surface may
#: not move
SNAPSHOT_KEYS = {
    "uptime_s", "snapshot_seq", "requests_admitted", "requests_rejected",
    "requests_completed", "requests_failed", "n_batches", "mean_batch_size",
    "max_batch_size", "batch_size_histogram", "queue_depth_max",
    "queue_depth_mean", "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
    "latency_mean_ms", "queue_wait_p50_ms", "queue_wait_p95_ms",
    "queue_wait_sum_s", "queue_wait_count", "plan_cache_hits",
    "plan_cache_misses", "plan_cache_hit_rate", "catalog_swaps",
    "catalog_swaps_by_tenant", "batch_quarantines", "quarantined_requests", "deadline_timeouts",
    "shed_requests", "shed_requests_by_tenant", "faults_injected",
    "faults_injected_by_hook", "degrade_transitions",
    "degrade_transitions_detail", "energy_j", "energy_j_by_tenant",
    "carbon_g", "carbon_g_by_tenant", "budget_transitions",
    "budget_transitions_detail",
}

#: one example value per ``record_*`` parameter name; booleans are swept
_RECORD_ARGS = {
    "queue_depth": 1, "batch_size": 2, "queue_waits_s": [0.001],
    "tenant": "t", "hook": "h", "rung": "compressed", "direction": "down",
    "energy_j": 1.5, "carbon_g": 0.5, "scope": "t", "target": "minimal",
    "latency_s": 0.01,
}


def _record_calls():
    """``(method name, kwargs)`` covering every ``Telemetry.record_*``."""
    for name, method in sorted(vars(Telemetry).items()):
        if not name.startswith("record_"):
            continue
        params = [p for p in inspect.signature(method).parameters
                  if p != "self"]
        flags = [p for p in params if p in ("hit", "ok")]
        fixed = {p: _RECORD_ARGS[p] for p in params if p not in flags}
        for value in ((True, False) if flags else (None,)):
            yield name, {**fixed, **{flag: value for flag in flags}}


def test_snapshot_keys_are_pinned():
    assert len(SNAPSHOT_KEYS) == 40
    assert set(Telemetry().snapshot()) == SNAPSHOT_KEYS


def test_family_rows_are_unique_and_present_in_an_empty_snapshot():
    snapshot = Telemetry().snapshot()
    assert len({family.key for family in FAMILIES}) == len(FAMILIES)
    assert len({family.name for family in FAMILIES}) == len(FAMILIES)
    for family in FAMILIES:
        assert family.kind in ("counter", "gauge")
        assert family.key in snapshot, family.key
        if family.labels:
            assert snapshot[family.breakdown_key] == {}, family.key


def test_every_row_has_a_recorder_and_every_recorder_a_row():
    telemetry = Telemetry()
    row_keys = [family.key for family in FAMILIES
                if family.key not in ("uptime_s", "snapshot_seq")]
    for name, kwargs in _record_calls():
        before = telemetry.snapshot()
        getattr(telemetry, name)(**kwargs)
        after = telemetry.snapshot()
        assert any(before[key] != after[key] for key in row_keys), \
            f"{name}({kwargs}) moved no FAMILIES row"
    snapshot = telemetry.snapshot()
    assert [family.key for family in FAMILIES
            if not snapshot[family.key]] == []
    text = render_prometheus(snapshot)
    _parse_exposition(text)  # every family declared exactly once
    for family in FAMILIES:
        assert text.count(f"# HELP repro_{family.name} ") == 1, family.name
        assert text.count(
            f"# TYPE repro_{family.name} {family.kind}\n") == 1, family.name


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
    telemetry.record_fault("batch.process")
    telemetry.record_degradation("home", "compressed", "down")
    samples = _parse_exposition(render_prometheus(telemetry.snapshot()))
    assert samples["repro_requests_admitted_total"] == [({}, 3.0)]
    assert samples["repro_requests_completed_total"] == [({}, 2.0)]
    [(labels, value)] = samples["repro_faults_injected_total"]
    assert (labels, value) == ({"hook": "batch.process"}, 1.0)
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
