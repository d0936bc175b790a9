"""Uncertainty quantification for evaluation batches.

The paper reports point estimates over 230-query mini-batches; this
module adds seeded bootstrap confidence intervals and a two-proportion
significance test so reproduced comparisons ("LiS beats default") can be
stated with error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.episode import EpisodeResult
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with a bootstrap interval."""

    point: float
    low: float
    high: float
    confidence: float

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high


def bootstrap_ci(
    values: list[float] | np.ndarray,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed_stream: str = "bootstrap",
) -> ConfidenceInterval:
    """Percentile-bootstrap CI of the mean (deterministic per stream)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.5 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0.5, 1), got {confidence}")
    rng = derive_rng(seed_stream, values.size, n_resamples)
    indices = rng.integers(0, values.size, size=(n_resamples, values.size))
    means = values[indices].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    return ConfidenceInterval(
        point=float(values.mean()),
        low=float(np.quantile(means, alpha)),
        high=float(np.quantile(means, 1.0 - alpha)),
        confidence=confidence,
    )


def success_rate_ci(episodes: list[EpisodeResult], confidence: float = 0.95,
                    metric: str = "success") -> ConfidenceInterval:
    """Bootstrap CI over a batch's success (or tool-accuracy) indicator."""
    if metric == "success":
        values = [float(episode.success) for episode in episodes]
    elif metric == "tool_accuracy":
        values = [float(episode.tool_accuracy) for episode in episodes]
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return bootstrap_ci(values, confidence=confidence,
                        seed_stream=f"ci-{metric}-{len(episodes)}")


def two_proportion_z(successes_a: int, n_a: int, successes_b: int, n_b: int) -> float:
    """Two-sided p-value for H0: rate_a == rate_b (pooled z-test).

    Used to flag whether a scheme comparison at the evaluated batch size
    is statistically meaningful rather than sampling noise.
    """
    if min(n_a, n_b) <= 0:
        raise ValueError("sample sizes must be positive")
    if not (0 <= successes_a <= n_a and 0 <= successes_b <= n_b):
        raise ValueError("successes out of range")
    p_a, p_b = successes_a / n_a, successes_b / n_b
    pooled = (successes_a + successes_b) / (n_a + n_b)
    variance = pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b)
    if variance == 0.0:
        return 1.0
    z = (p_a - p_b) / math.sqrt(variance)
    # two-sided normal tail via erfc
    return float(math.erfc(abs(z) / math.sqrt(2.0)))


def compare_runs(episodes_a: list[EpisodeResult], episodes_b: list[EpisodeResult]) -> dict:
    """Summary comparison of two batches: rates, CIs and the p-value."""
    ci_a = success_rate_ci(episodes_a)
    ci_b = success_rate_ci(episodes_b)
    p_value = two_proportion_z(
        sum(episode.success for episode in episodes_a), len(episodes_a),
        sum(episode.success for episode in episodes_b), len(episodes_b),
    )
    return {
        "rate_a": ci_a,
        "rate_b": ci_b,
        "p_value": p_value,
        "significant_05": p_value < 0.05,
    }
