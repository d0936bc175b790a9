"""Carbon/power-budget-aware serving (the CarbonCall closed loop).

Joins three layers that already exist in this repo but did not talk:
the per-request latency/energy model (:mod:`repro.hardware.inference`),
the nvpmodel power modes (:mod:`repro.hardware.power_modes`) and the
serving degradation ladder (:mod:`repro.serving.degrade`).

* :mod:`repro.power.signals` — grid carbon-intensity signals (gCO₂/kWh
  as a pure function of time) behind the
  :data:`repro.registry.CARBON_SIGNALS` registry.
* :mod:`repro.power.meter` — the :class:`EnergyMeter`, attributing
  estimated joules and gCO₂ per request/tenant in the accounting layer
  (episode bits never change).
* :mod:`repro.power.budget` — the :class:`BudgetController`, stepping
  tenants down the serving ladder on a rolling joule/gCO₂ budget and
  the simulated board down power modes while grid intensity is high.
"""

from repro.power.budget import MODE_LADDER, BudgetController
from repro.power.meter import EnergyMeter, EnergyRecord, WindowStats
from repro.power.signals import (
    DEFAULT_INTENSITY_G_PER_KWH,
    SinusoidSignal,
    StaticSignal,
    TraceSignal,
    build_signal,
    dump_intensity_trace,
    load_intensity_trace,
)

__all__ = [
    "BudgetController",
    "DEFAULT_INTENSITY_G_PER_KWH",
    "EnergyMeter",
    "EnergyRecord",
    "MODE_LADDER",
    "SinusoidSignal",
    "StaticSignal",
    "TraceSignal",
    "WindowStats",
    "build_signal",
    "dump_intensity_trace",
    "load_intensity_trace",
]
