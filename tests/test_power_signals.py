"""Carbon-intensity signals, the trace CSV loader and the EnergyMeter."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from repro.power import EnergyMeter, load_intensity_trace
from repro.power.signals import (
    DAY_S,
    SinusoidSignal,
    StaticSignal,
    TraceSignal,
    build_signal,
    dump_intensity_trace,
)
from repro.registry import CARBON_SIGNALS, register_carbon_signal
from repro.specs import BudgetSpec

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


def test_sinusoid_signal():
    signal = SinusoidSignal(mean_g_per_kwh=400.0, amplitude_g_per_kwh=100.0,
                            period_s=86400.0, phase_s=3600.0)
    # at the phase origin the curve sits on the mean, heading up
    assert signal.intensity(3600.0) == pytest.approx(400.0)
    # a quarter period later it peaks; three quarters later it troughs
    assert signal.intensity(3600.0 + 21600.0) == pytest.approx(500.0)
    assert signal.intensity(3600.0 + 64800.0) == pytest.approx(300.0)
    # purity: the same t always gives the same value
    assert signal.intensity(12345.0) == signal.intensity(12345.0)
    # a trough below zero clamps (a grid cannot emit negative carbon)
    deep = SinusoidSignal(mean_g_per_kwh=50.0, amplitude_g_per_kwh=150.0)
    assert deep.intensity(0.75 * DAY_S) == 0.0
    with pytest.raises(ValueError):
        SinusoidSignal(period_s=0.0)
    with pytest.raises(ValueError):
        SinusoidSignal(amplitude_g_per_kwh=-1.0)


def test_trace_signal_interpolation_and_wrap():
    signal = TraceSignal([(0.0, 100.0), (3600.0, 200.0)], period_s=7200.0)
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


def test_trace_signal_validation():
    with pytest.raises(ValueError):
        TraceSignal([])
    with pytest.raises(ValueError):
        TraceSignal([(0.0, 1.0), (0.0, 2.0)])  # not strictly increasing
    with pytest.raises(ValueError):
        TraceSignal([(0.0, 1.0), (9000.0, 2.0)], period_s=7200.0)
    with pytest.raises(ValueError):
        TraceSignal([(0.0, -1.0)])
    with pytest.raises(ValueError):
        TraceSignal([(0.0, 1.0)], period_s=0.0)


# ----------------------------------------------------------------------
# the committed grid CSV and its loader
# ----------------------------------------------------------------------
def test_committed_trace_loads_and_replays():
    signal = load_intensity_trace(COMMITTED_TRACE)
    assert len(signal.points) == 24
    assert signal.period_s == DAY_S
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
    dump_intensity_trace(original, copy_path)
    reloaded = load_intensity_trace(copy_path)
    assert reloaded.points == original.points
    assert reloaded.period_s == original.period_s


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
    for name in ("static", "sinusoid", "trace"):
        assert name in CARBON_SIGNALS


def test_build_signal_from_spec():
    assert isinstance(build_signal(None), StaticSignal)
    static = build_signal(BudgetSpec(energy_budget_j=100.0,
                                     intensity_g_per_kwh=222.0))
    assert static.intensity(0.0) == 222.0
    sinusoid = build_signal(BudgetSpec(energy_budget_j=100.0,
                                       signal="sinusoid",
                                       intensity_g_per_kwh=300.0,
                                       intensity_amplitude=50.0,
                                       period_s=1000.0, phase_s=10.0))
    assert isinstance(sinusoid, SinusoidSignal)
    assert sinusoid.intensity(10.0) == pytest.approx(300.0)
    trace = build_signal(BudgetSpec(energy_budget_j=100.0, signal="trace",
                                    trace_path=str(COMMITTED_TRACE)))
    assert isinstance(trace, TraceSignal)


def test_custom_signal_registration():
    @register_carbon_signal("test-square")
    def _square(spec):
        class Square:
            def intensity(self, t_s):
                return (100.0 if math.sin(2 * math.pi * t_s / spec.period_s)
                        >= 0.0 else 500.0)
        return Square()

    try:
        spec = BudgetSpec(energy_budget_j=1.0, signal="test-square",
                          period_s=100.0)
        signal = build_signal(spec)
        assert signal.intensity(10.0) == 100.0
        assert signal.intensity(60.0) == 500.0
    finally:
        CARBON_SIGNALS.unregister("test-square")
    with pytest.raises(ValueError, match="unknown carbon signal"):
        BudgetSpec(energy_budget_j=1.0, signal="test-square")


# ----------------------------------------------------------------------
# the EnergyMeter: attribution, windows, power modes
# ----------------------------------------------------------------------
class _Episode:
    def __init__(self, qid, prompt_tokens, completion_tokens):
        self.qid = qid
        self.prompt_tokens = prompt_tokens
        self.completion_tokens = completion_tokens


def test_meter_attribution_is_deterministic():
    meter = EnergyMeter(signal=StaticSignal(500.0), clock=lambda: 0.0)
    episode = _Episode("q1", 1000, 120)
    first = meter.record("home", episode, model="hermes2-pro-8b",
                         quant="q4_K_M")
    second = meter.record("home", episode, model="hermes2-pro-8b",
                          quant="q4_K_M")
    assert first.energy_j > 0.0
    assert first.energy_j == second.energy_j  # same stream, same joules
    assert first.carbon_g == pytest.approx(
        first.energy_j / 3.6e6 * 500.0)
    assert first.power_mode == "MAXN"
    stats = meter.window_stats("home")
    assert stats.requests == 2
    assert stats.total_requests == 2
    assert stats.mean_energy_j == pytest.approx(first.energy_j)


def test_meter_power_mode_changes_accounting_only():
    episode = _Episode("q1", 1000, 120)
    meter = EnergyMeter(signal=StaticSignal(400.0), clock=lambda: 0.0)
    maxn = meter.record("home", episode, model="hermes2-pro-8b",
                        quant="q4_K_M")
    meter.set_power_mode("30w")  # case-insensitive
    assert meter.power_mode == "30W"
    capped = meter.record("home", episode, model="hermes2-pro-8b",
                          quant="q4_K_M")
    assert capped.power_mode == "30W"
    # 30W trades longer runtime for lower board power: net joules drop
    assert capped.energy_j < maxn.energy_j
    with pytest.raises(ValueError, match="unknown power mode"):
        meter.set_power_mode("5W")


def test_meter_window_rolls_and_totals_accumulate():
    meter = EnergyMeter(signal=StaticSignal(400.0), clock=lambda: 0.0,
                        window_requests=2)
    small = _Episode("small", 100, 10)
    big = _Episode("big", 4000, 400)
    meter.record("home", small, model="hermes2-pro-8b", quant="q4_K_M")
    big_record = meter.record("home", big, model="hermes2-pro-8b",
                              quant="q4_K_M")
    meter.record("home", big, model="hermes2-pro-8b", quant="q4_K_M")
    stats = meter.window_stats("home")
    assert stats.requests == 2           # the window dropped the first
    assert stats.total_requests == 3     # totals never forget
    assert stats.mean_energy_j == pytest.approx(big_record.energy_j)
    meter.record("other", big, model="hermes2-pro-8b", quant="q4_K_M")
    assert meter.window_stats("home").total_requests == 3
    assert meter.window_stats("other").total_requests == 1


def test_meter_edge_cases():
    meter = EnergyMeter(clock=lambda: 0.0)
    # unknown tenant: clean zero stats
    assert meter.window_stats("ghost").requests == 0
    # a token-free episode costs nothing
    empty = meter.record("home", _Episode("q0", 0, 0),
                         model="hermes2-pro-8b", quant="q4_K_M")
    assert empty.energy_j == 0.0
    # unknown model/quant falls back to the reference 8B/q4 shape
    fallback = meter.record("home", _Episode("q1", 500, 50),
                            model="mystery-model", quant="mystery-quant")
    reference = meter.record("home", _Episode("q1", 500, 50),
                             model="hermes2-pro-8b", quant="q4_K_M")
    assert fallback.energy_j == pytest.approx(reference.energy_j)
    with pytest.raises(ValueError):
        EnergyMeter(window_requests=0)


def test_meter_signal_drives_carbon_through_time():
    signal = TraceSignal([(0.0, 100.0), (3600.0, 500.0)], period_s=7200.0)
    meter = EnergyMeter(signal=signal, clock=lambda: 0.0)
    episode = _Episode("q1", 1000, 100)
    cheap = meter.record("home", episode, model="hermes2-pro-8b",
                         quant="q4_K_M", now_s=0.0)
    dirty = meter.record("home", episode, model="hermes2-pro-8b",
                         quant="q4_K_M", now_s=3600.0)
    assert cheap.energy_j == dirty.energy_j        # joules ignore the grid
    assert dirty.carbon_g == pytest.approx(5 * cheap.carbon_g)
    assert cheap.intensity_g_per_kwh == 100.0
    assert dirty.intensity_g_per_kwh == 500.0
