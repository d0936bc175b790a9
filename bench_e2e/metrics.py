"""Metric vocabulary and how each number is derived from the rounds.

``END_TO_END`` and ``PER_LAYER`` are the names ``BENCHMARK.json`` lists
(a self-test keeps the two in step).  End-to-end metrics come from the
untraced rounds only; per-layer metrics come from the traced round's
spans plus counts any round yields without tracing (``batch_size``,
``queued_s``, response sizes, ...).
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict

from bench_e2e.estimator import median_spread, percentile
from bench_e2e.tracing import outermost, self_times
from bench_e2e.workloads import RoundResult, Workload

#: (name, unit, better) — what a user of the system sees
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cal_req_per_s", "req/s", "higher"),
    ("cal_latency_p50_ms", "ms", "lower"),
    ("cal_latency_p90_ms", "ms", "lower"),
    ("cal_cpu_ms_per_req", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "ratio", "higher"),
    ("sim_latency_s_per_req", "s", "lower"),
    ("sim_energy_j_per_req", "J", "lower"),
)

#: layer boundaries whose self time is reported as ``<span>.self_ms_per_req``
_SELF_TIME_SPANS = (
    "embedding.encode", "vectorstore.search_arrays", "core.plan_batch",
    "core.decide_batch", "core.run_planned", "llm.recommend_tools",
    "llm.execute_step", "tools.execute", "tools.catalog_select",
    "hardware.simulate_inference", "obs.cost_record", "power.meter_record",
    "serving.telemetry", "http.app", "http.parse_json", "http.send_json",
)
_SETUP_SPANS = ("setup.load_suite", "setup.build_levels", "setup.warm",
                "setup.gateway_start")

PER_LAYER = tuple(
    [(f"{span}.self_ms_per_req", "ms", "lower") for span in _SELF_TIME_SPANS]
    + [
        ("embedding.encode.texts_per_call", "count", "higher"),
        ("embedding.encode.miss_frac", "ratio", "lower"),
        ("vectorstore.search_arrays.rows_per_call", "count", "higher"),
        ("core.plan_batch.queries_per_call", "count", "higher"),
        ("llm.execute_step.calls_per_req", "count", "lower"),
        ("tools.execute.calls_per_req", "count", "lower"),
        ("tools.execute.reject_frac", "ratio", "lower"),
        ("serving.queue_wait_ms_p50", "ms", "lower"),
        ("serving.batch_size_mean", "count", "higher"),
        ("serving.flushes_per_req", "count", "lower"),
        ("serving.plan_cache.hit_frac", "ratio", "higher"),
        ("serving.rejected_frac", "ratio", "lower"),
        ("serving.shed_frac", "ratio", "lower"),
        ("http.resp_bytes_per_req", "bytes", "lower"),
        ("http.edge_ms_p50", "ms", "lower"),
        ("http.conn_opened", "count", "lower"),
        ("obs.metrics_text.ms_per_call", "ms", "lower"),
    ]
    + [(f"{span}_s", "s", "lower") for span in _SETUP_SPANS]
    + [
        ("setup.spawn_to_banner_s", "s", "lower"),
        ("core.plan.level1_frac", "ratio", "higher"),
        ("core.plan.level2_frac", "ratio", "higher"),
        ("core.plan.level3_frac", "ratio", "lower"),
        ("core.plan.tools_per_req", "count", "lower"),
        ("obs.cost.tool_tokens_per_req", "tokens", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.unattributed_cpu_frac", "ratio", "lower"),
        ("machine.cal_ms_p50", "ms", "lower"),
        ("machine.cal_spread", "ratio", "lower"),
        ("gen.sched_lag_p99_ms", "ms", "lower"),
        ("e2e.req_per_s_raw", "req/s", "higher"),
        ("e2e.latency_p99_ms_raw", "ms", "lower"),
        ("e2e.fail_frac", "ratio", "lower"),
        ("e2e.unsteady_frac", "ratio", "lower"),
    ])

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _segments(rounds: list[RoundResult]):
    return [segment for result in rounds for segment in result.segments]


def _episodes(rounds: list[RoundResult]):
    return [output.episode for result in rounds for output in result.outputs]


def end_to_end(rounds: list[RoundResult],
               workload: Workload) -> dict[str, tuple[float, float]]:
    """``name -> (value, spread)`` over the untraced ``rounds``."""
    segments = _segments(rounds)
    episodes = _episodes(rounds)
    pinned = workload.rate_per_s > 0
    metrics = {
        "setup_s": median_spread([r.setup_cal_s for r in rounds]),
        "cal_req_per_s": median_spread(
            [s.cal_req_per_s(pinned) for s in segments]),
        "cal_latency_p50_ms": median_spread(
            [s.cal_latency_ms(50.0) for s in segments]),
        "cal_latency_p90_ms": median_spread(
            [s.cal_latency_ms(90.0) for s in segments]),
        "cal_cpu_ms_per_req": median_spread(
            [s.cal_cpu_ms_per_req for s in segments]),
        "peak_rss_mb": (max(r.peak_rss_mb for r in rounds), 0.0),
    }
    n = max(1, len(episodes))
    # the paper's claims: exact for a given seed, nothing is timed
    metrics["success_rate"] = (sum(e.success for e in episodes) / n, 0.0)
    metrics["sim_latency_s_per_req"] = (
        sum(e.time_s for e in episodes) / n, 0.0)
    metrics["sim_energy_j_per_req"] = (
        sum(e.energy_j for e in episodes) / n, 0.0)
    return metrics


def attempted_failed(rounds: list[RoundResult]) -> tuple[int, int]:
    return (sum(s.requests for s in _segments(rounds)),
            sum(len(r.failures) for r in rounds))


# ----------------------------------------------------------------------
# per-layer
# ----------------------------------------------------------------------
class _SpanTable:
    """Per measured segment and span name: self time and counts."""

    def __init__(self, result: RoundResult):
        self.result = result
        selfs = self_times(result.spans)
        starts = [start for start, _ in result.windows]
        ends = [end for _, end in result.windows]
        outer = {span.id for span in outermost(result.spans)}
        n_segments = len(result.segments)
        self.self_s = [defaultdict(float) for _ in range(n_segments)]
        self.calls = [defaultdict(int) for _ in range(n_segments)]
        self.n = [defaultdict(int) for _ in range(n_segments)]
        self.m = [defaultdict(int) for _ in range(n_segments)]
        for span in result.spans:
            index = bisect.bisect_right(starts, span.start) - 1
            if index < 0 or span.start >= ends[index]:
                continue  # warm-up, set-up or a between-segment scrape
            self.self_s[index][span.name] += selfs[span.id]
            if span.id in outer:
                self.calls[index][span.name] += 1
                self.n[index][span.name] += span.n
                self.m[index][span.name] += span.m

    def median(self, per_segment) -> float:
        values = [per_segment(index, segment)
                  for index, segment in enumerate(self.result.segments)]
        return statistics.median(values) if values else 0.0

    def self_ms_per_req(self, *names: str) -> float:
        return self.median(lambda i, seg: 1e3 * sum(
            self.self_s[i][name] for name in names) / seg.requests)

    def per_req(self, table, name: str) -> float:
        return self.median(lambda i, seg: table[i][name] / seg.requests)

    def ratio(self, top, bottom, name: str) -> float:
        return self.median(lambda i, seg: (
            top[i][name] / bottom[i][name] if bottom[i][name] else 0.0))


def _setup_seconds(result: RoundResult) -> dict[str, float]:
    """Seconds in each set-up span, exclusive of nested set-up spans."""
    spans = [span for span in result.spans
             if span.name in _SETUP_SPANS
             and result.setup_started <= span.start < result.setup_ended]
    by_id = {span.id: span for span in result.spans}
    kept = {span.id for span in spans}
    reparented = []
    for span in spans:
        parent = span.parent
        while parent is not None and parent not in kept:
            ancestor = by_id.get(parent)
            parent = ancestor.parent if ancestor is not None else None
        reparented.append(span._replace(parent=parent))
    selfs = self_times(reparented)
    totals = {name: 0.0 for name in _SETUP_SPANS}
    for span in reparented:
        totals[span.name] += selfs[span.id]
    return totals


def per_layer(traced: RoundResult, untraced: list[RoundResult],
              workload: Workload) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one workload."""
    table = _SpanTable(traced)
    metrics = {f"{span}.self_ms_per_req": table.self_ms_per_req(span)
               for span in _SELF_TIME_SPANS}
    # the episode dict is built for, and only for, the JSON reply
    metrics["http.send_json.self_ms_per_req"] = table.self_ms_per_req(
        "http.send_json", "http.episode_to_dict")
    metrics["embedding.encode.texts_per_call"] = table.ratio(
        table.n, table.calls, "embedding.encode")
    metrics["embedding.encode.miss_frac"] = table.ratio(
        table.m, table.n, "embedding.encode")
    metrics["vectorstore.search_arrays.rows_per_call"] = table.ratio(
        table.n, table.calls, "vectorstore.search_arrays")
    metrics["core.plan_batch.queries_per_call"] = table.ratio(
        table.n, table.calls, "core.plan_batch")
    metrics["llm.execute_step.calls_per_req"] = table.per_req(
        table.calls, "llm.execute_step")
    metrics["tools.execute.calls_per_req"] = table.per_req(
        table.calls, "tools.execute")
    metrics["tools.execute.reject_frac"] = table.ratio(
        table.m, table.n, "tools.execute")
    metrics["serving.plan_cache.hit_frac"] = table.ratio(
        table.m, table.n, "serving.telemetry")
    metrics["obs.cost.tool_tokens_per_req"] = table.per_req(
        table.n, "obs.cost_record")
    scrapes = [span.duration * 1e3 for span in traced.spans
               if span.name == "obs.metrics_text"]
    metrics["obs.metrics_text.ms_per_call"] = (
        statistics.fmean(scrapes) if scrapes else 0.0)
    for name, seconds in _setup_seconds(traced).items():
        metrics[f"{name}_s"] = seconds
    metrics["setup.spawn_to_banner_s"] = (
        traced.setup_raw_s if workload.name == "http_closed_c2" else 0.0)

    # CPU of the segment no span accounts for: asyncio, the scheduler,
    # _process_batch glue, the socket server, the in-process generator.
    # serving.submit's self time is a client waiting, not work.
    worked = {span.name for span in traced.spans} - {"serving.submit"}
    metrics["trace.unattributed_cpu_frac"] = table.median(
        lambda i, seg: 1.0 - sum(table.self_s[i][name] for name in worked)
        / seg.cpu_s if seg.cpu_s else 0.0)
    pinned = workload.rate_per_s > 0
    plain, spied = _segments(untraced), traced.segments
    if pinned:  # the schedule pins the rate; tracing shows up as CPU
        metrics["trace.overhead_frac"] = 1.0 - (
            statistics.median(s.cal_cpu_ms_per_req for s in plain)
            / statistics.median(s.cal_cpu_ms_per_req for s in spied))
    else:
        metrics["trace.overhead_frac"] = 1.0 - (
            statistics.median(s.cal_req_per_s() for s in spied)
            / statistics.median(s.cal_req_per_s() for s in plain))

    # counts no tracing is needed for, read from the untraced rounds
    outputs = [output for result in untraced for output in result.outputs]
    served = workload.tenants != ()
    flushes = sum(1.0 / output.batch_size for output in outputs)
    metrics["serving.queue_wait_ms_p50"] = percentile(
        [output.queued_s * 1e3 for output in outputs], 50.0) if served else 0.0
    metrics["serving.batch_size_mean"] = (
        len(outputs) / flushes if served and flushes else 0.0)
    metrics["serving.flushes_per_req"] = (
        flushes / len(outputs) if served and outputs else 0.0)
    attempted, _ = attempted_failed(untraced + [traced])
    kinds = [failure.kind for result in untraced + [traced]
             for failure in result.failures]
    metrics["serving.rejected_frac"] = kinds.count("rejected") / attempted
    metrics["serving.shed_frac"] = kinds.count("shed") / attempted
    metrics["e2e.fail_frac"] = len(kinds) / attempted
    over_http = [output for output in outputs if output.resp_bytes]
    metrics["http.resp_bytes_per_req"] = (
        statistics.fmean(o.resp_bytes for o in over_http) if over_http else 0.0)
    metrics["http.edge_ms_p50"] = percentile(
        [o.client_latency_ms - o.server_latency_s * 1e3 for o in over_http],
        50.0)
    metrics["http.conn_opened"] = float(
        max(result.conn_opened for result in untraced))

    episodes = _episodes(untraced)
    n = max(1, len(episodes))
    for level in (1, 2, 3):
        metrics[f"core.plan.level{level}_frac"] = sum(
            episode.selected_level == level for episode in episodes) / n
    metrics["core.plan.tools_per_req"] = sum(
        episode.mean_tools_presented for episode in episodes) / n

    every = _segments(untraced + [traced])
    samples = [ms for segment in every
               for ms in (segment.cal_before, segment.cal_after)]
    metrics["machine.cal_ms_p50"], metrics["machine.cal_spread"] = (
        median_spread(samples))
    metrics["gen.sched_lag_p99_ms"] = max(
        result.sched_lag_p99_ms for result in untraced)
    metrics["e2e.req_per_s_raw"] = statistics.median(
        segment.raw_req_per_s for segment in plain)
    metrics["e2e.latency_p99_ms_raw"] = percentile(
        [ms for segment in plain for ms in segment.latencies_ms], 99.0)
    metrics["e2e.unsteady_frac"] = sum(
        segment.unsteady for segment in every) / len(every)
    return metrics
