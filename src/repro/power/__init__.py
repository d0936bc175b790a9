"""Carbon/power-budget-aware serving (the CarbonCall closed loop).

Joins the per-request latency/energy model
(:mod:`repro.hardware.inference`) to the gateway's admission path
(:mod:`repro.serving.gateway`).  The nvpmodel power modes
(:mod:`repro.hardware.power_modes`) are not a serving axis: under this
model a lower mode does not lower joules per request enough to pay for
its time (``tests/test_power_laws.py``), so the board serves at MAXN.

* :mod:`repro.power.signals` — grid carbon-intensity signals (gCO₂/kWh
  as a pure function of time) behind the
  :data:`repro.registry.CARBON_SIGNALS` registry.
* :mod:`repro.power.meter` — the :class:`EnergyMeter`, attributing each
  episode's joules (and their gCO₂) per request/tenant.
* :mod:`repro.power.budget` — the serving ladder (:data:`RUNGS`) and
  its one controller, the :class:`BudgetController`, stepping tenants down
  it on a rolling joule budget.
"""

from repro.power.budget import BudgetController
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
    "StaticSignal",
    "TraceSignal",
    "WindowStats",
    "build_signal",
    "load_intensity_trace",
]
