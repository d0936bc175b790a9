"""Grid carbon-intensity signals for carbon-aware serving.

A carbon signal maps a point in time to the grid's carbon intensity in
gCO₂ per kWh.  Signals are *pure functions of time* — they hold no
clock of their own, so the same ``intensity(t_s)`` call always returns
the same value (the determinism contract).  Whoever consumes a signal
(:class:`~repro.power.meter.EnergyMeter`,
:class:`~repro.power.budget.BudgetController`) owns the injectable
clock that produces ``t_s``.

Two builtins ship behind the :data:`repro.registry.CARBON_SIGNALS`
registry:

``static``
    A constant intensity — the simplest budget scenario, and what a
    deployment without a grid feed would configure.
``trace``
    Replays a committed grid-intensity CSV
    (``benchmarks/data/grid_intensity_day.csv`` ships a real-shaped
    duck curve) cyclically with piecewise-linear interpolation.

Registered factories take the :class:`~repro.specs.BudgetSpec` (or any
object with the same attributes) and return a signal; third-party
signals register with :func:`repro.registry.register_carbon_signal`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from repro.registry import register_carbon_signal

#: gCO₂/kWh default when no signal is configured — roughly a mixed
#: fossil/renewables grid annual average
DEFAULT_INTENSITY_G_PER_KWH = 400.0

#: expected header of a grid-intensity trace CSV
TRACE_HEADER = ("hour", "intensity_g_per_kwh")

#: seconds per replayed day of a trace signal
DAY_S = 86400.0


@dataclass(frozen=True)
class StaticSignal:
    """A constant grid intensity (gCO₂/kWh)."""

    intensity_g_per_kwh: float = DEFAULT_INTENSITY_G_PER_KWH

    def __post_init__(self):
        if self.intensity_g_per_kwh < 0.0:
            raise ValueError(
                f"intensity_g_per_kwh must be >= 0, "
                f"got {self.intensity_g_per_kwh}")

    def intensity(self, t_s: float) -> float:
        return self.intensity_g_per_kwh


class TraceSignal:
    """Cyclic replay of ``(t_s, intensity)`` breakpoints.

    Intensity between breakpoints is linearly interpolated; past the
    last breakpoint the curve wraps to the first one :data:`DAY_S`
    seconds after it started, so a 24-hour trace replays forever.
    """

    def __init__(self, points: list[tuple[float, float]]):
        if not points:
            raise ValueError("TraceSignal needs at least one (t, intensity) point")
        times = [float(t) for t, _ in points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("TraceSignal times must be strictly increasing")
        if times[0] < 0.0 or times[-1] >= DAY_S:
            raise ValueError(
                f"TraceSignal times must lie in [0, {DAY_S:g}), got "
                f"[{times[0]}, {times[-1]}]")
        for t, value in points:
            if value < 0.0:
                raise ValueError(
                    f"intensity must be >= 0, got {value} at t={t}")
        self.points = [(float(t), float(v)) for t, v in points]

    def intensity(self, t_s: float) -> float:
        points = self.points
        if len(points) == 1:
            return points[0][1]
        t = t_s % DAY_S
        # find the segment [points[i], points[i+1]) containing t, with
        # the wrap segment [last, first + period) closing the cycle
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            if t0 <= t < t1:
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        t0, v0 = points[-1]
        t1, v1 = points[0][0] + DAY_S, points[0][1]
        if t < t0:  # before the first breakpoint: still the wrap segment
            t += DAY_S
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def load_intensity_trace(path: str | Path) -> TraceSignal:
    """Load a grid-intensity CSV (``hour,intensity_g_per_kwh``) as a signal.

    The committed trace lives at ``benchmarks/data/grid_intensity_day.csv``.
    Hours may be fractional but must be strictly increasing within
    ``[0, 24)``; every malformed row fails with its line number and
    content so a broken feed is diagnosable from the error alone.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"grid-intensity trace not found: {path}")
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file; expected header "
                             f"{','.join(TRACE_HEADER)}") from None
        if tuple(column.strip() for column in header) != TRACE_HEADER:
            raise ValueError(
                f"{path}: bad header {','.join(header)!r}; expected "
                f"{','.join(TRACE_HEADER)}")
        points: list[tuple[float, float]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # trailing blank line
            if len(row) != 2:
                raise ValueError(
                    f"{path}:{line_no}: expected 2 columns "
                    f"(hour,intensity_g_per_kwh), got {len(row)}: {row!r}")
            try:
                hour, value = float(row[0]), float(row[1])
            except ValueError:
                raise ValueError(
                    f"{path}:{line_no}: non-numeric value in row {row!r}"
                ) from None
            if not 0.0 <= hour < 24.0:
                raise ValueError(
                    f"{path}:{line_no}: hour must be in [0, 24), got {hour}")
            if value < 0.0:
                raise ValueError(
                    f"{path}:{line_no}: intensity must be >= 0, got {value}")
            points.append((hour * 3600.0, value))
    if not points:
        raise ValueError(f"{path}: no data rows after the header")
    try:
        return TraceSignal(points)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def build_signal(spec) -> object:
    """Construct the carbon signal named by ``spec.signal``.

    ``spec`` is a :class:`~repro.specs.BudgetSpec` (or anything with the
    same attributes); ``None`` yields the default static signal.
    """
    from repro.registry import CARBON_SIGNALS

    if spec is None:
        return StaticSignal()
    return CARBON_SIGNALS.get(spec.signal)(spec)


# ----------------------------------------------------------------------
# registered builtin factories (factory(spec) -> signal, like TRACE_SINKS)
# ----------------------------------------------------------------------
@register_carbon_signal("static")
def _static_signal(spec) -> StaticSignal:
    return StaticSignal(intensity_g_per_kwh=spec.intensity_g_per_kwh)


@register_carbon_signal("trace")
def _trace_signal(spec) -> TraceSignal:
    if not spec.trace_path:
        raise ValueError("BudgetSpec(signal='trace') requires trace_path "
                         "to name the grid-intensity CSV")
    return load_intensity_trace(spec.trace_path)
