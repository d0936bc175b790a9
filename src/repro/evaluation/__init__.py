"""Evaluation harness: metrics, sweep runner and table/figure rendering."""

from repro.evaluation.metrics import MetricSummary, NormalizedMetrics, summarize
from repro.evaluation.reporting import render_metric_table, render_series
from repro.evaluation.runner import EvaluationRun, ExperimentRunner
from repro.evaluation.stats import (
    ConfidenceInterval,
    bootstrap_ci,
    compare_runs,
    success_rate_ci,
    two_proportion_z,
)

__all__ = [
    "ConfidenceInterval",
    "EvaluationRun",
    "ExperimentRunner",
    "MetricSummary",
    "NormalizedMetrics",
    "bootstrap_ci",
    "compare_runs",
    "render_metric_table",
    "render_series",
    "success_rate_ci",
    "summarize",
    "two_proportion_z",
]
