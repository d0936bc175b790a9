"""Carbon/power-budget-aware serving (the CarbonCall closed loop).

Joins the per-request latency/energy model
(:mod:`repro.hardware.inference`) to the gateway's admission path
(:mod:`repro.serving.gateway`).  CarbonCall's two intensity-steered
knobs are not serving axes here: under this model neither a lower
nvpmodel power mode (:mod:`repro.hardware.power_modes`) nor a lighter
quantization lowers joules per request enough to pay for itself
(``tests/test_power_laws.py`` pins both tables), so the board serves at
MAXN on the agent's own quantization, and gCO₂ is joules times one grid
intensity, :attr:`BudgetSpec.intensity_g_per_kwh
<repro.specs.BudgetSpec>`.

* :mod:`repro.power.meter` — the :class:`EnergyMeter`, attributing each
  episode's joules (and their gCO₂) per request/tenant.
* :mod:`repro.power.budget` — the serving ladder (:data:`RUNGS`) and
  its one controller, the :class:`BudgetController`, stepping tenants down
  it on a rolling joule budget.
"""

from repro.power.budget import BudgetController
from repro.power.meter import EnergyMeter, EnergyRecord, WindowStats

__all__ = [
    "BudgetController",
    "EnergyMeter",
    "EnergyRecord",
    "WindowStats",
]
