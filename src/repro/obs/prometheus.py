"""Prometheus text-exposition rendering of telemetry snapshots.

:func:`render_prometheus` turns :meth:`Telemetry.snapshot`'s plain dict
into the `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ —
``# HELP`` / ``# TYPE`` headers, escaped label values, cumulative
monotonic histogram buckets, summary quantiles.  It renders from the
*snapshot*, not the live :class:`Telemetry`, so the same function serves
``Gateway.metrics_text()``, the ``repro metrics`` CLI, offline
``LoadReport`` dumps, and the future ASGI ``/metrics`` endpoint.

The latency and queue-wait percentiles are exported as ``summary``
families with a ``window="ring"`` label: they come from Telemetry's
fixed-capacity sample rings, i.e. they describe the most recent
``max_samples`` observations, not the process lifetime.
"""

from __future__ import annotations


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format.

    Backslash, double-quote and newline are the three characters the
    format requires escaping inside ``label="..."``.
    """
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels(pairs: dict[str, str]) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{key}="{escape_label_value(value)}"'
                    for key, value in pairs.items())
    return "{" + body + "}"


def _fmt(value: float | int) -> str:
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Writer:
    """Accumulates exposition lines, one metric family at a time."""

    def __init__(self, namespace: str):
        self.namespace = namespace
        self.lines: list[str] = []

    def family(self, name: str, kind: str, help_text: str) -> str:
        full = f"{self.namespace}_{name}"
        self.lines.append(f"# HELP {full} {help_text}")
        self.lines.append(f"# TYPE {full} {kind}")
        return full

    def sample(self, full_name: str, value: float | int,
               labels: dict[str, str] | None = None) -> None:
        self.lines.append(f"{full_name}{_labels(labels or {})} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_prometheus(snapshot: dict, cost: dict | None = None,
                      namespace: str = "repro") -> str:
    """Render a telemetry snapshot (and optional cost-ledger snapshot)
    as Prometheus text exposition format.

    Parameters
    ----------
    snapshot:
        A :meth:`Telemetry.snapshot` dict.  Missing keys render as
        absent families, so older snapshots stay renderable.
    cost:
        An optional :meth:`CostLedger.snapshot` dict; adds per-tenant
        token counters.
    namespace:
        Metric-name prefix (``repro_requests_admitted_total`` …).
    """
    out = _Writer(namespace)

    counters = [
        ("requests_admitted_total", "requests_admitted",
         "Requests accepted into the scheduler queue."),
        ("requests_rejected_total", "requests_rejected",
         "Requests bounced by admission control."),
        ("requests_completed_total", "requests_completed",
         "Requests finished successfully."),
        ("requests_failed_total", "requests_failed",
         "Requests finished with an error."),
        ("batches_total", "n_batches", "Micro-batches cut and dispatched."),
        ("plan_cache_hits_total", "plan_cache_hits", "Plan-cache hits."),
        ("plan_cache_misses_total", "plan_cache_misses", "Plan-cache misses."),
        ("worker_restarts_total", "worker_restarts",
         "Worker-pool crashes detected and respawned."),
        ("slice_retries_total", "slice_retries",
         "Failed worker slices resubmitted to the pool."),
        ("inline_fallbacks_total", "inline_fallbacks",
         "Failed worker slices executed inline after retries ran out."),
        ("batch_quarantines_total", "batch_quarantines",
         "Failed micro-batches re-processed request-by-request."),
        ("quarantined_requests_total", "quarantined_requests",
         "Requests re-processed solo inside quarantined batches."),
        ("deadline_timeouts_total", "deadline_timeouts",
         "Requests abandoned on an expired end-to-end deadline."),
    ]
    for name, key, help_text in counters:
        if key in snapshot:
            full = out.family(name, "counter", help_text)
            out.sample(full, snapshot[key])

    gauges = [
        ("uptime_seconds", "uptime_s",
         "Seconds since this Telemetry instance was created (monotonic)."),
        ("snapshot_seq", "snapshot_seq",
         "Snapshots taken from this Telemetry instance; use to detect "
         "restarts between scrapes."),
        ("queue_depth_max", "queue_depth_max",
         "Maximum observed queue depth (windowed sample ring)."),
        ("queue_depth_mean", "queue_depth_mean",
         "Mean observed queue depth (windowed sample ring)."),
        ("plan_cache_hit_rate", "plan_cache_hit_rate",
         "Plan-cache hit rate over all lookups."),
        ("mean_batch_size", "mean_batch_size",
         "Mean size of dispatched micro-batches."),
    ]
    for name, key, help_text in gauges:
        if key in snapshot:
            full = out.family(name, "gauge", help_text)
            out.sample(full, snapshot[key])

    # ------------------------------------------------------------------
    # per-tenant / per-hook labeled counters
    # ------------------------------------------------------------------
    labeled = [
        ("catalog_swaps_total", "catalog_swaps_by_tenant", "tenant",
         "Tool-catalog hot-swaps applied, per tenant."),
        ("shed_requests_total", "shed_requests_by_tenant", "tenant",
         "Requests rejected while their tenant was shed, per tenant."),
        ("faults_injected_total", "faults_injected_by_hook", "hook",
         "Chaos faults fired, per fault hook."),
        ("energy_joules_total", "energy_j_by_tenant", "tenant",
         "Estimated energy attributed to served requests, per tenant "
         "(joules; accounting-layer re-cost under the active power mode)."),
        ("carbon_grams_total", "carbon_g_by_tenant", "tenant",
         "Estimated operational carbon attributed to served requests, "
         "per tenant (gCO2 via the configured grid-intensity signal)."),
    ]
    for name, key, label, help_text in labeled:
        by = snapshot.get(key)
        if by:
            full = out.family(name, "counter", help_text)
            for value_key in sorted(by):
                out.sample(full, by[value_key], {label: value_key})

    transitions = snapshot.get("degrade_transitions_detail")
    if transitions:
        full = out.family(
            "degrade_transitions_total", "counter",
            "Degradation-ladder transitions, per tenant/direction/rung.")
        for key in sorted(transitions):
            tenant, direction, rung = (key.split(":", 2) + ["", ""])[:3]
            out.sample(full, transitions[key],
                       {"tenant": tenant, "direction": direction,
                        "rung": rung})

    budget_transitions = snapshot.get("budget_transitions_detail")
    if budget_transitions:
        full = out.family(
            "budget_transitions_total", "counter",
            "Carbon/power budget-controller actions, per "
            "scope/direction/target (tenant ladder moves and device "
            "power-mode moves).")
        for key in sorted(budget_transitions):
            scope, direction, target = (key.split(":", 2) + ["", ""])[:3]
            out.sample(full, budget_transitions[key],
                       {"scope": scope, "direction": direction,
                        "target": target})

    # ------------------------------------------------------------------
    # batch-size histogram (cumulative, monotonic buckets)
    # ------------------------------------------------------------------
    sizes = snapshot.get("batch_size_histogram")
    if sizes is not None:
        full = out.family("batch_size", "histogram",
                          "Distribution of dispatched micro-batch sizes.")
        counts = {int(size): int(count) for size, count in sizes.items()}
        total = sum(counts.values())
        weighted = sum(size * count for size, count in counts.items())
        cumulative = 0
        for bound in sorted(counts):
            cumulative += counts[bound]
            out.sample(f"{full}_bucket", cumulative, {"le": str(bound)})
        out.sample(f"{full}_bucket", total, {"le": "+Inf"})
        out.sample(f"{full}_sum", weighted)
        out.sample(f"{full}_count", total)

    # ------------------------------------------------------------------
    # summaries (windowed percentiles from the sample rings)
    # ------------------------------------------------------------------
    def summary(name, help_text, quantiles, total, count):
        if not any(key in snapshot for _, key in quantiles):
            return
        full = out.family(name, "summary", help_text)
        for quantile, key in quantiles:
            if key in snapshot:
                out.sample(full, snapshot[key] / 1e3,
                           {"quantile": quantile, "window": "ring"})
        out.sample(f"{full}_sum", total)
        out.sample(f"{full}_count", count)

    completed = snapshot.get("requests_completed", 0)
    summary("request_latency_seconds",
            "End-to-end request latency; quantiles are windowed over the "
            "telemetry sample ring, not the process lifetime.",
            [("0.5", "latency_p50_ms"), ("0.95", "latency_p95_ms"),
             ("0.99", "latency_p99_ms")],
            completed * snapshot.get("latency_mean_ms", 0.0) / 1e3,
            completed)
    summary("queue_wait_seconds",
            "Time a request waited in the scheduler queue before its "
            "micro-batch was cut; quantiles are windowed over the "
            "telemetry sample ring, sum and count are lifetime-exact.",
            [("0.5", "queue_wait_p50_ms"), ("0.95", "queue_wait_p95_ms")],
            snapshot.get("queue_wait_sum_s", 0.0),
            snapshot.get("queue_wait_count", 0))

    # ------------------------------------------------------------------
    # cost ledger (per-tenant token counters)
    # ------------------------------------------------------------------
    if cost:
        tenants = cost.get("by_tenant", {})
        families = [
            ("cost_requests_total", "requests",
             "Requests accounted by the cost ledger, per tenant."),
            ("cost_tool_prompt_tokens_total", "tool_prompt_tokens",
             "Prompt tokens spent on tool schemas, per tenant."),
            ("cost_prompt_tokens_total", "prompt_tokens",
             "Episode prompt tokens, per tenant."),
            ("cost_completion_tokens_total", "completion_tokens",
             "Episode completion tokens, per tenant."),
            ("cost_llm_calls_total", "llm_calls",
             "LLM calls made by episodes, per tenant."),
        ]
        for name, key, help_text in families:
            if not tenants:
                break
            full = out.family(name, "counter", help_text)
            for tenant in sorted(tenants):
                out.sample(full, tenants[tenant].get(key, 0),
                           {"tenant": tenant})

    return out.text()
