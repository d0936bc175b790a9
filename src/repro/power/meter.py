"""Per-request energy and carbon attribution for the serving gateway.

An episode's ``energy_j`` is already the board's joules for the whole
request: one :func:`~repro.hardware.inference.simulate_inference` trace
per LLM call plus every wait, on the agent's device.  The
:class:`EnergyMeter` reads those joules as they are, converts them to
gCO₂ through the configured carbon signal, and keeps each tenant's
rolling window for the budget controller.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

# not called here: the repo benchmark's tracer patches every name bound
# to simulate_inference and looks this one up with vars(module)
from repro.hardware.inference import simulate_inference  # noqa: F401
from repro.specs import BudgetSpec

#: joules per kWh (converts attributed energy to grid-intensity units)
J_PER_KWH = 3.6e6


def elapsed_clock(start: float | None = None):
    """The default meter clock: seconds elapsed since construction.

    Monotonic wall time is fine here — carbon attribution observes the
    live serving loop and never feeds back into episode bits; tests
    inject a fake clock (or pass ``now_s`` explicitly) instead.
    """
    if start is None:
        start = time.monotonic()
    return lambda: time.monotonic() - start


@dataclass(frozen=True)
class EnergyRecord:
    """One request's attributed energy/carbon."""

    tenant: str
    qid: str
    energy_j: float
    carbon_g: float
    intensity_g_per_kwh: float


@dataclass(frozen=True)
class WindowStats:
    """Rolling per-tenant attribution over the last ``window`` requests."""

    requests: int            #: records currently in the window
    total_requests: int      #: records ever attributed to the tenant
    energy_j: float          #: joules spent inside the window
    carbon_g: float          #: gCO₂ emitted inside the window
    mean_energy_j: float     #: joules per request inside the window
    mean_carbon_g: float     #: gCO₂ per request inside the window


class EnergyMeter:
    """Attributes each request's joules and gCO₂ to its tenant.

    One meter per gateway.  The rolling window and the request count it
    keeps are the tenant session's (``energy_window``,
    ``energy_requests``), so they die with the registration.  ``record``
    runs on the gateway's batch worker while the event loop reads
    ``window_stats`` — one lock keeps every window coherent across the
    two.  Lifetime joules/gCO₂ live in the gateway's
    ``Telemetry`` (``record_energy``), the one ledger ``/metrics`` reads.
    """

    def __init__(self, signal=None, clock=None,
                 window_requests: int = BudgetSpec.window_requests):
        from repro.power.signals import StaticSignal

        if window_requests < 1:
            raise ValueError(
                f"window_requests must be >= 1, got {window_requests}")
        self.signal = signal if signal is not None else StaticSignal()
        self._clock = clock if clock is not None else elapsed_clock()
        self.window_requests = window_requests
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # attribution
    # ------------------------------------------------------------------
    def record(self, session, episode, *,
               now_s: float | None = None) -> EnergyRecord:
        """Attribute one completed episode's joules to the tenant
        ``session``; returns the record."""
        energy_j = episode.energy_j
        t_s = self._clock() if now_s is None else now_s
        intensity = self.signal.intensity(t_s)
        with self._lock:
            record = EnergyRecord(
                tenant=session.name, qid=episode.qid, energy_j=energy_j,
                carbon_g=energy_j / J_PER_KWH * intensity,
                intensity_g_per_kwh=intensity)
            session.energy_requests += 1
            window = session.energy_window
            window.append(record)
            if len(window) > self.window_requests:
                window.popleft()
        return record

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def window_stats(self, session) -> WindowStats:
        """Stats over the session's last ``window_requests`` records."""
        with self._lock:
            window = session.energy_window
            n = len(window)
            if not n:
                return WindowStats(0, session.energy_requests,
                                   0.0, 0.0, 0.0, 0.0)
            energy = sum(record.energy_j for record in window)
            carbon = sum(record.carbon_g for record in window)
            return WindowStats(
                requests=n,
                total_requests=session.energy_requests,
                energy_j=energy,
                carbon_g=carbon,
                mean_energy_j=energy / n,
                mean_carbon_g=carbon / n,
            )
