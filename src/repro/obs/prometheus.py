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

from typing import NamedTuple


class Family(NamedTuple):
    """One metric family: where it lives in a snapshot and how it is exposed.

    ``key`` is the :meth:`Telemetry.snapshot` key holding the family's
    total; a labelled family's per-label values sit beside it under
    :attr:`breakdown_key`, keyed by the label values joined with ``:``
    (:func:`join_labels` / :func:`split_labels` — the only two places
    that know the format).  ``name`` is the exposition name under the
    namespace, ``kind`` its ``# TYPE``.
    """

    key: str
    name: str
    help: str
    labels: tuple[str, ...] = ()
    kind: str = "counter"

    @property
    def breakdown_key(self) -> str:
        """Snapshot key of the per-label breakdown (labelled rows only)."""
        if len(self.labels) == 1:
            return f"{self.key}_by_{self.labels[0]}"
        return f"{self.key}_detail"


def join_labels(values: tuple[str, ...]) -> str:
    """The snapshot's JSON key for one label tuple."""
    return ":".join(values)


def split_labels(joined: str, n_labels: int) -> list[str]:
    """Invert :func:`join_labels`.  Split from the right: only the first
    label (tenant / scope / hook) is free-form and may itself hold ``:``;
    directions, rungs and power modes never do."""
    return joined.rsplit(":", n_labels - 1)


#: Every scalar and labelled family of a telemetry snapshot — the one
#: table :class:`~repro.serving.telemetry.Telemetry` allocates its
#: counters from and :func:`render_prometheus` walks.  A new counter is
#: one row here plus the ``record_*`` method that increments it.
FAMILIES: tuple[Family, ...] = (
    Family("requests_admitted", "requests_admitted_total",
           "Requests accepted into the scheduler queue."),
    Family("requests_rejected", "requests_rejected_total",
           "Requests bounced by admission control."),
    Family("requests_completed", "requests_completed_total",
           "Requests finished successfully."),
    Family("requests_failed", "requests_failed_total",
           "Requests finished with an error."),
    Family("n_batches", "batches_total", "Micro-batches cut and dispatched."),
    Family("plan_cache_hits", "plan_cache_hits_total", "Plan-cache hits."),
    Family("plan_cache_misses", "plan_cache_misses_total",
           "Plan-cache misses."),
    Family("worker_restarts", "worker_restarts_total",
           "Worker-pool crashes detected and respawned."),
    Family("slice_retries", "slice_retries_total",
           "Failed worker slices resubmitted to the pool."),
    Family("inline_fallbacks", "inline_fallbacks_total",
           "Failed worker slices executed inline after retries ran out."),
    Family("batch_quarantines", "batch_quarantines_total",
           "Failed micro-batches re-processed request-by-request."),
    Family("quarantined_requests", "quarantined_requests_total",
           "Requests re-processed solo inside quarantined batches."),
    Family("deadline_timeouts", "deadline_timeouts_total",
           "Requests abandoned on an expired end-to-end deadline."),
    Family("catalog_swaps", "catalog_swaps_total",
           "Tool-catalog hot-swaps applied, per tenant.", ("tenant",)),
    Family("shed_requests", "shed_requests_total",
           "Requests rejected while their tenant was shed, per tenant.",
           ("tenant",)),
    Family("faults_injected", "faults_injected_total",
           "Chaos faults fired, per fault hook.", ("hook",)),
    Family("degrade_transitions", "degrade_transitions_total",
           "Degradation-ladder transitions, per tenant/direction/rung.",
           ("tenant", "direction", "rung")),
    Family("energy_j", "energy_joules_total",
           "Estimated energy attributed to served requests, per tenant "
           "(joules; accounting-layer re-cost under the active power mode).",
           ("tenant",)),
    Family("carbon_g", "carbon_grams_total",
           "Estimated operational carbon attributed to served requests, "
           "per tenant (gCO2 via the configured grid-intensity signal).",
           ("tenant",)),
    Family("budget_transitions", "budget_transitions_total",
           "Carbon/power budget-controller actions, per "
           "scope/direction/target (tenant ladder moves and device "
           "power-mode moves).", ("scope", "direction", "target")),
    Family("uptime_s", "uptime_seconds",
           "Seconds since this Telemetry instance was created (monotonic).",
           kind="gauge"),
    Family("snapshot_seq", "snapshot_seq",
           "Snapshots taken from this Telemetry instance; use to detect "
           "restarts between scrapes.", kind="gauge"),
    Family("queue_depth_max", "queue_depth_max",
           "Maximum observed queue depth (windowed sample ring).",
           kind="gauge"),
    Family("queue_depth_mean", "queue_depth_mean",
           "Mean observed queue depth (windowed sample ring).", kind="gauge"),
    Family("plan_cache_hit_rate", "plan_cache_hit_rate",
           "Plan-cache hit rate over all lookups.", kind="gauge"),
    Family("mean_batch_size", "mean_batch_size",
           "Mean size of dispatched micro-batches.", kind="gauge"),
)

#: The cost ledger's families: ``key`` is a field of
#: ``CostLedger.snapshot()["by_tenant"][tenant]``.
COST_FAMILIES: tuple[Family, ...] = (
    Family("requests", "cost_requests_total",
           "Requests accounted by the cost ledger, per tenant.", ("tenant",)),
    Family("tool_prompt_tokens", "cost_tool_prompt_tokens_total",
           "Prompt tokens spent on tool schemas, per tenant.", ("tenant",)),
    Family("prompt_tokens", "cost_prompt_tokens_total",
           "Episode prompt tokens, per tenant.", ("tenant",)),
    Family("completion_tokens", "cost_completion_tokens_total",
           "Episode completion tokens, per tenant.", ("tenant",)),
    Family("llm_calls", "cost_llm_calls_total",
           "LLM calls made by episodes, per tenant.", ("tenant",)),
)


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

    for family in FAMILIES:
        if not family.labels:
            if family.key in snapshot:
                out.sample(out.family(family.name, family.kind, family.help),
                           snapshot[family.key])
            continue
        by = snapshot.get(family.breakdown_key)
        if by:
            full = out.family(family.name, family.kind, family.help)
            for joined in sorted(by):
                out.sample(full, by[joined], dict(zip(
                    family.labels, split_labels(joined, len(family.labels)))))

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
    tenants = (cost or {}).get("by_tenant")
    if tenants:
        for family in COST_FAMILIES:
            full = out.family(family.name, family.kind, family.help)
            for tenant in sorted(tenants):
                out.sample(full, tenants[tenant].get(family.key, 0),
                           {"tenant": tenant})

    return out.text()
