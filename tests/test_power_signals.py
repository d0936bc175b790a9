"""Carbon-intensity signals, the trace CSV loader and the EnergyMeter."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from repro.power import EnergyMeter, load_intensity_trace, signals
from repro.power.signals import (
    DAY_S,
    StaticSignal,
    TraceSignal,
    build_signal,
)
from repro.registry import CARBON_SIGNALS, register_carbon_signal
from repro.serving import SessionManager
from repro.specs import BudgetSpec
from repro.suites import load_suite

COMMITTED_TRACE = (Path(__file__).resolve().parent.parent
                   / "benchmarks" / "data" / "grid_intensity_day.csv")


# ----------------------------------------------------------------------
# signals are pure functions of time
# ----------------------------------------------------------------------
def test_static_signal():
    signal = StaticSignal(intensity_g_per_kwh=123.0)
    assert signal.intensity(0.0) == 123.0
    assert signal.intensity(1e9) == 123.0
    with pytest.raises(ValueError):
        StaticSignal(intensity_g_per_kwh=-1.0)


@pytest.fixture
def two_hour_day(monkeypatch):
    """Trace signals built under it replay a 7200 s cycle."""
    monkeypatch.setattr(signals, "DAY_S", 7200.0)


def test_trace_signal_interpolation_and_wrap(two_hour_day):
    signal = TraceSignal([(0.0, 100.0), (3600.0, 200.0)])
    assert signal.intensity(0.0) == 100.0
    assert signal.intensity(1800.0) == pytest.approx(150.0)
    assert signal.intensity(3600.0) == 200.0
    # the wrap segment interpolates last -> first across the period edge
    assert signal.intensity(5400.0) == pytest.approx(150.0)
    # cyclic: any t and t + period agree exactly
    for t in (0.0, 417.0, 1800.0, 5400.0, 7199.0):
        assert signal.intensity(t) == pytest.approx(signal.intensity(t + 7200.0))
    # a single point is a constant
    assert TraceSignal([(0.0, 321.0)]).intensity(1e6) == 321.0


def test_trace_signal_validation(two_hour_day):
    with pytest.raises(ValueError):
        TraceSignal([])
    with pytest.raises(ValueError):
        TraceSignal([(0.0, 1.0), (0.0, 2.0)])  # not strictly increasing
    with pytest.raises(ValueError):
        TraceSignal([(0.0, 1.0), (9000.0, 2.0)])
    with pytest.raises(ValueError):
        TraceSignal([(0.0, -1.0)])


# ----------------------------------------------------------------------
# the committed grid CSV and its loader
# ----------------------------------------------------------------------
def test_committed_trace_loads_and_replays():
    signal = load_intensity_trace(COMMITTED_TRACE)
    assert len(signal.points) == 24
    # duck-curve shape: midday solar dip well below the evening peak
    midday = signal.intensity(13 * 3600.0)
    evening = signal.intensity(20 * 3600.0)
    assert midday < 300.0 < evening
    assert evening > signal.intensity(4 * 3600.0)  # night is mild
    # tomorrow replays today exactly
    for hour in (0.0, 6.5, 13.0, 20.0, 23.9):
        t = hour * 3600.0
        assert signal.intensity(t) == pytest.approx(signal.intensity(t + DAY_S))


def test_trace_round_trip(tmp_path):
    original = load_intensity_trace(COMMITTED_TRACE)
    copy_path = tmp_path / "copy.csv"
    copy_path.write_text("hour,intensity_g_per_kwh\n" + "".join(
        f"{t_s / 3600.0:g},{value:g}\n" for t_s, value in original.points))
    reloaded = load_intensity_trace(copy_path)
    assert reloaded.points == original.points


def _write(tmp_path, text):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    return path


def test_loader_rejects_bad_header(tmp_path):
    path = _write(tmp_path, "time,carbon\n0,100\n")
    with pytest.raises(ValueError, match="bad header"):
        load_intensity_trace(path)


def test_loader_rejects_missing_file(tmp_path):
    with pytest.raises(ValueError, match="not found"):
        load_intensity_trace(tmp_path / "nope.csv")


def test_loader_errors_carry_line_numbers(tmp_path):
    path = _write(tmp_path,
                  "hour,intensity_g_per_kwh\n0,100\n1,100,extra\n")
    with pytest.raises(ValueError, match=r":3: expected 2 columns"):
        load_intensity_trace(path)
    path = _write(tmp_path, "hour,intensity_g_per_kwh\n0,abc\n")
    with pytest.raises(ValueError, match=r":2: non-numeric"):
        load_intensity_trace(path)
    path = _write(tmp_path, "hour,intensity_g_per_kwh\n24,100\n")
    with pytest.raises(ValueError, match=r":2: hour must be in \[0, 24\)"):
        load_intensity_trace(path)
    path = _write(tmp_path, "hour,intensity_g_per_kwh\n3,-5\n")
    with pytest.raises(ValueError, match=r":2: intensity must be >= 0"):
        load_intensity_trace(path)


def test_loader_rejects_empty_inputs(tmp_path):
    with pytest.raises(ValueError, match="empty file"):
        load_intensity_trace(_write(tmp_path, ""))
    with pytest.raises(ValueError, match="no data rows"):
        load_intensity_trace(_write(tmp_path, "hour,intensity_g_per_kwh\n"))


def test_loader_tolerates_blank_lines_and_fractional_hours(tmp_path):
    path = _write(tmp_path,
                  "hour,intensity_g_per_kwh\n0,100\n\n6.5,250\n\n")
    signal = load_intensity_trace(path)
    assert signal.points == [(0.0, 100.0), (6.5 * 3600.0, 250.0)]


# ----------------------------------------------------------------------
# the CARBON_SIGNALS registry and build_signal
# ----------------------------------------------------------------------
def test_builtin_signals_registered():
    assert CARBON_SIGNALS.names() == ["static", "trace"]


def test_build_signal_from_spec():
    assert isinstance(build_signal(None), StaticSignal)
    static = build_signal(BudgetSpec(energy_budget_j=100.0,
                                     intensity_g_per_kwh=222.0))
    assert static.intensity(0.0) == 222.0
    trace = build_signal(BudgetSpec(energy_budget_j=100.0, signal="trace",
                                    trace_path=str(COMMITTED_TRACE)))
    assert isinstance(trace, TraceSignal)


def test_custom_signal_registration():
    @register_carbon_signal("test-square")
    def _square(spec):
        class Square:
            def intensity(self, t_s):
                return (100.0 if math.sin(2 * math.pi * t_s / 100.0)
                        >= 0.0 else 500.0)
        return Square()

    try:
        spec = BudgetSpec(energy_budget_j=1.0, signal="test-square")
        signal = build_signal(spec)
        assert signal.intensity(10.0) == 100.0
        assert signal.intensity(60.0) == 500.0
    finally:
        CARBON_SIGNALS.unregister("test-square")
    with pytest.raises(ValueError, match="unknown carbon signal"):
        BudgetSpec(energy_budget_j=1.0, signal="test-square")


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
    meter = EnergyMeter(signal=StaticSignal(500.0), clock=lambda: 0.0)
    home = _session("home")
    episode = _Episode("q1", 183.25)
    first = meter.record(home, episode)
    second = meter.record(home, episode)
    assert first.energy_j == second.energy_j == episode.energy_j
    assert first.carbon_g == episode.energy_j / 3.6e6 * 500.0
    assert (first.tenant, first.qid) == ("home", "q1")
    assert first.power_mode == "MAXN"
    stats = meter.window_stats(home)
    assert stats.requests == 2
    assert stats.total_requests == 2
    assert stats.mean_energy_j == pytest.approx(episode.energy_j)


def test_meter_stamps_the_power_mode_it_holds():
    meter = EnergyMeter(signal=StaticSignal(400.0), clock=lambda: 0.0)
    home = _session("home")
    meter.set_power_mode("30w")  # case-insensitive
    assert meter.power_mode == "30W"
    capped = meter.record(home, _Episode("q1", 99.5))
    assert capped.power_mode == "30W"
    assert capped.energy_j == 99.5  # the episode's joules, never re-costed
    with pytest.raises(ValueError, match="unknown power mode"):
        meter.set_power_mode("5W")
    assert meter.power_mode == "30W"


def test_meter_window_rolls_and_totals_accumulate():
    meter = EnergyMeter(signal=StaticSignal(400.0), clock=lambda: 0.0,
                        window_requests=2)
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
    meter = EnergyMeter(clock=lambda: 0.0)
    # a tenant with nothing attributed yet: clean zero stats
    assert meter.window_stats(_session("ghost")).requests == 0
    with pytest.raises(ValueError):
        EnergyMeter(window_requests=0)


def test_meter_signal_drives_carbon_through_time(two_hour_day):
    signal = TraceSignal([(0.0, 100.0), (3600.0, 500.0)])
    meter = EnergyMeter(signal=signal, clock=lambda: 0.0)
    home = _session("home")
    episode = _Episode("q1", 150.0)
    cheap = meter.record(home, episode, now_s=0.0)
    dirty = meter.record(home, episode, now_s=3600.0)
    assert cheap.energy_j == dirty.energy_j        # joules ignore the grid
    assert dirty.carbon_g == pytest.approx(5 * cheap.carbon_g)
    assert cheap.intensity_g_per_kwh == 100.0
    assert dirty.intensity_g_per_kwh == 500.0
