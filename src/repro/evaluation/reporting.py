"""Rendering of the paper's tables and figure series: plain-text panels
and the markdown grid report (per-model panels, normalized columns,
bootstrap error bars — the format EXPERIMENTS.md is built from)."""

from __future__ import annotations

from repro.evaluation.metrics import MetricSummary, NormalizedMetrics, normalize
from repro.evaluation.runner import EvaluationRun
from repro.evaluation.stats import success_rate_ci, two_proportion_z


def render_metric_table(rows: dict[str, MetricSummary], title: str = "") -> str:
    """Render absolute metrics, one row per configuration label."""
    header = (f"{'configuration':<34} {'success':>8} {'tool acc':>9} "
              f"{'time (s)':>9} {'power (W)':>10} {'#tools':>7}")
    lines = [title, header, "-" * len(header)] if title else [header, "-" * len(header)]
    for label, summary in rows.items():
        lines.append(
            f"{label:<34} {summary.success_rate:>7.1%} {summary.tool_accuracy:>8.1%} "
            f"{summary.mean_time_s:>9.2f} {summary.avg_power_w:>10.2f} "
            f"{summary.mean_tools_presented:>7.1f}"
        )
    return "\n".join(lines)


def render_series(rows: dict[str, NormalizedMetrics], title: str = "") -> str:
    """Render a Figure-2/3-style series: normalized time/power columns."""
    header = (f"{'configuration':<34} {'success':>8} {'tool acc':>9} "
              f"{'norm time':>10} {'norm power':>11}")
    lines = [title, header, "-" * len(header)] if title else [header, "-" * len(header)]
    for label, row in rows.items():
        lines.append(
            f"{label:<34} {row.success_rate:>7.1%} {row.tool_accuracy:>8.1%} "
            f"{row.normalized_time:>10.3f} {row.normalized_power:>11.3f}"
        )
    return "\n".join(lines)


def figure_series(runs: dict, model: str, quants: list[str],
                  schemes: list[str]) -> dict[str, NormalizedMetrics]:
    """Build one model's Figure-2/3 panel from a grid of runs.

    Normalization follows the paper: each (model, quant) cell is divided
    by the *default* scheme of the same (model, quant).
    """
    rows: dict[str, NormalizedMetrics] = {}
    for quant in quants:
        baseline = runs[("default", model, quant)].summary
        for scheme in schemes:
            summary = runs[(scheme, model, quant)].summary
            rows[f"{model}-{quant} {scheme}"] = normalize(summary, baseline)
    return rows


def grid_report(
    runs: dict[tuple[str, str, str], EvaluationRun],
    models: list[str],
    quants: list[str],
    schemes: list[str],
    title: str = "Evaluation report",
    baseline_scheme: str = "default",
) -> str:
    """Render a full grid as markdown.

    Every (model, quant) cell is normalized against ``baseline_scheme``
    of the same cell, matching the paper's Figure 2/3 convention.
    """
    lines = [f"# {title}", ""]
    for model in models:
        lines.append(f"## {model}")
        lines.append("")
        lines.append("| quant | scheme | success (95% CI) | tool acc | "
                      "norm time | norm power | #tools |")
        lines.append("|---|---|---|---|---|---|---|")
        for quant in quants:
            baseline = runs[(baseline_scheme, model, quant)].summary
            for scheme in schemes:
                run = runs[(scheme, model, quant)]
                summary = run.summary
                norm = normalize(summary, baseline)
                ci = success_rate_ci(run.episodes)
                lines.append(
                    f"| {quant} | {scheme} | {summary.success_rate:.1%} "
                    f"[{ci.low:.1%}, {ci.high:.1%}] | {summary.tool_accuracy:.1%} "
                    f"| {norm.normalized_time:.2f} | {norm.normalized_power:.2f} "
                    f"| {summary.mean_tools_presented:.1f} |")
        lines.append("")
    return "\n".join(lines)


def comparison_paragraph(runs: dict[tuple[str, str, str], EvaluationRun],
                         model: str, quant: str,
                         scheme_a: str = "lis-k3",
                         scheme_b: str = "default") -> str:
    """One-sentence textual comparison with significance annotation."""
    run_a = runs[(scheme_a, model, quant)]
    run_b = runs[(scheme_b, model, quant)]
    rate_a = run_a.summary.success_rate
    rate_b = run_b.summary.success_rate
    p_value = two_proportion_z(
        sum(episode.success for episode in run_a.episodes), len(run_a.episodes),
        sum(episode.success for episode in run_b.episodes), len(run_b.episodes),
    )
    verdict = "significant" if p_value < 0.05 else "not significant"
    direction = "improves on" if rate_a > rate_b else "trails"
    return (f"{scheme_a} {direction} {scheme_b} for {model}-{quant}: "
            f"{rate_a:.1%} vs {rate_b:.1%} success "
            f"(p={p_value:.3f}, {verdict} at alpha=0.05).")
