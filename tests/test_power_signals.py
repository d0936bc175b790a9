"""The EnergyMeter: each episode's joules, the tenant windows, and gCO₂
as joules times the gateway's one grid intensity
(``BudgetSpec.intensity_g_per_kwh``).  The same law over served
episodes and ``/metrics`` is ``tests/test_power_laws.py`` law (b)."""

from __future__ import annotations

import pytest

from repro.power import EnergyMeter
from repro.power.meter import J_PER_KWH
from repro.serving import SessionManager
from repro.specs import BudgetSpec
from repro.suites import load_suite


# ----------------------------------------------------------------------
# the EnergyMeter: the episode's joules, windows, carbon
# ----------------------------------------------------------------------
class _Episode:
    def __init__(self, qid, energy_j):
        self.qid = qid
        self.energy_j = energy_j


def _session(name):
    """A registered tenant: the meter keeps its window on the session."""
    return SessionManager().register(name, load_suite("edgehome", n_queries=1))


def test_meter_attribution_is_deterministic():
    meter = EnergyMeter(intensity_g_per_kwh=500.0)
    home = _session("home")
    episode = _Episode("q1", 183.25)
    first = meter.record(home, episode)
    second = meter.record(home, episode)
    assert first.energy_j == second.energy_j == episode.energy_j
    assert first.carbon_g == episode.energy_j / J_PER_KWH * 500.0
    assert (first.tenant, first.qid) == ("home", "q1")
    stats = meter.window_stats(home)
    assert stats.requests == 2
    assert stats.total_requests == 2
    assert stats.mean_energy_j == pytest.approx(episode.energy_j)


def test_meter_window_rolls_and_totals_accumulate():
    meter = EnergyMeter(window_requests=2)
    home, other = _session("home"), _session("other")
    small = _Episode("small", 20.0)
    big = _Episode("big", 300.0)
    meter.record(home, small)
    meter.record(home, big)
    meter.record(home, big)
    stats = meter.window_stats(home)
    assert stats.requests == 2           # the window dropped the first
    assert stats.total_requests == 3     # totals never forget
    assert stats.energy_j == 600.0
    assert stats.mean_energy_j == 300.0
    meter.record(other, big)
    assert meter.window_stats(home).total_requests == 3
    assert meter.window_stats(other).total_requests == 1


def test_meter_edge_cases():
    meter = EnergyMeter()
    # a gateway without a budget attributes at the spec's default
    assert meter.intensity_g_per_kwh == BudgetSpec.intensity_g_per_kwh == 400.0
    assert meter.window_requests == BudgetSpec.window_requests
    # a tenant with nothing attributed yet: clean zero stats
    assert meter.window_stats(_session("ghost")).requests == 0
    with pytest.raises(ValueError):
        EnergyMeter(window_requests=0)
