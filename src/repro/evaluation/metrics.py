"""Aggregation of episode results into the paper's four metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.episode import EpisodeResult


@dataclass(frozen=True)
class MetricSummary:
    """Aggregate metrics over one evaluation batch (absolute units)."""

    n_episodes: int
    success_rate: float
    tool_accuracy: float
    mean_time_s: float
    mean_energy_j: float
    avg_power_w: float
    mean_tools_presented: float
    fallback_rate: float
    level_histogram: dict[int, int]


@dataclass(frozen=True)
class NormalizedMetrics:
    """Figure 2/3 row: success/accuracy absolute, time/power vs baseline."""

    success_rate: float
    tool_accuracy: float
    normalized_time: float
    normalized_power: float


def summarize(episodes: list[EpisodeResult]) -> MetricSummary:
    """Reduce a batch of episodes to a :class:`MetricSummary`.

    Average power is energy-weighted (total energy over total time),
    matching how a power meter attached to the board would average.
    """
    if not episodes:
        raise ValueError("cannot summarize an empty episode list")
    times = np.array([episode.time_s for episode in episodes])
    energies = np.array([episode.energy_j for episode in episodes])
    levels: dict[int, int] = {}
    for episode in episodes:
        if episode.selected_level is not None:
            levels[episode.selected_level] = levels.get(episode.selected_level, 0) + 1
    return MetricSummary(
        n_episodes=len(episodes),
        success_rate=float(np.mean([episode.success for episode in episodes])),
        tool_accuracy=float(np.mean([episode.tool_accuracy for episode in episodes])),
        mean_time_s=float(np.mean(times)),
        mean_energy_j=float(np.mean(energies)),
        avg_power_w=float(energies.sum() / times.sum()) if times.sum() else 0.0,
        mean_tools_presented=float(np.mean(
            [episode.mean_tools_presented for episode in episodes])),
        fallback_rate=float(np.mean([episode.fallback_used for episode in episodes])),
        level_histogram=levels,
    )


def normalize(candidate: MetricSummary, baseline: MetricSummary) -> NormalizedMetrics:
    """Express time/power relative to the baseline scheme (default=1.0)."""
    if baseline.mean_time_s <= 0 or baseline.avg_power_w <= 0:
        raise ValueError("baseline must have positive time and power")
    return NormalizedMetrics(
        success_rate=candidate.success_rate,
        tool_accuracy=candidate.tool_accuracy,
        normalized_time=candidate.mean_time_s / baseline.mean_time_s,
        normalized_power=candidate.avg_power_w / baseline.avg_power_w,
    )
