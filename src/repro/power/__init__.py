"""Carbon/power-budget-aware serving (the CarbonCall closed loop).

Joins three layers that already exist in this repo but did not talk:
the per-request latency/energy model (:mod:`repro.hardware.inference`),
the nvpmodel power modes (:mod:`repro.hardware.power_modes`) and the
gateway's admission path (:mod:`repro.serving.gateway`).

* :mod:`repro.power.signals` — grid carbon-intensity signals (gCO₂/kWh
  as a pure function of time) behind the
  :data:`repro.registry.CARBON_SIGNALS` registry.
* :mod:`repro.power.meter` — the :class:`EnergyMeter`, holding the
  board's power mode and attributing each episode's joules (and their
  gCO₂) per request/tenant.
* :mod:`repro.power.budget` — the serving ladder (:data:`RUNGS`) and
  its one controller, the :class:`BudgetController`, stepping tenants down
  it on a rolling joule budget and the simulated board down power
  modes while grid intensity is high.
"""

from repro.power.budget import MODE_LADDER, BudgetController
from repro.power.meter import EnergyMeter, EnergyRecord, WindowStats
from repro.power.signals import (
    DEFAULT_INTENSITY_G_PER_KWH,
    StaticSignal,
    TraceSignal,
    build_signal,
    load_intensity_trace,
)

__all__ = [
    "BudgetController",
    "DEFAULT_INTENSITY_G_PER_KWH",
    "EnergyMeter",
    "EnergyRecord",
    "MODE_LADDER",
    "StaticSignal",
    "TraceSignal",
    "WindowStats",
    "build_signal",
    "load_intensity_trace",
]
