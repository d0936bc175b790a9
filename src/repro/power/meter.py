"""Per-request energy and carbon attribution for the serving gateway.

The gateway's episodes already carry token counts; the hardware layer
already knows how to cost tokens on the edge board
(:func:`repro.hardware.inference.simulate_inference`) under any
nvpmodel power mode (:mod:`repro.hardware.power_modes`).  The
:class:`EnergyMeter` joins the two in the *accounting layer*: after an
episode completes, its token counts are re-costed against the device
profile in the currently active power mode, and the estimated joules
are converted to gCO₂ through the configured carbon signal.

Crucially the meter never touches the live agents' device profile —
stepping the simulated board down a power mode changes only how
completed work is costed, so served episodes stay bitwise identical to
the same rung's uncontrolled configuration (the determinism contract).

Attribution is first-order: each episode is costed as one aggregate
LLM call (total prompt tokens in, total completion tokens out) rather
than replaying the per-call breakdown, mirroring how an external power
rail would integrate over the whole request.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.hardware.device import JETSON_AGX_ORIN, DeviceProfile
from repro.hardware.inference import InferenceRequest, simulate_inference
from repro.hardware.power_modes import POWER_MODES, apply_power_mode

#: joules per kWh (converts attributed energy to grid-intensity units)
J_PER_KWH = 3.6e6

#: fallback model shape when an episode's model/quant is not in the
#: registries (custom engines serving arbitrary checkpoints): the
#: reference 8B / q4_K_M cell the device profile is calibrated on
_FALLBACK_PARAMS_B = 8.0
_FALLBACK_BITS = 4.85

#: context window assumed when a plan does not carry one
DEFAULT_CONTEXT_WINDOW = 16384


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
    power_mode: str
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
    """Attributes estimated joules and gCO₂ per request and tenant.

    One meter per gateway.  It costs episodes under the active
    ``power_mode``; the rolling window and the request count it keeps are
    the tenant session's (``energy_window``, ``energy_requests``), so
    they die with the registration.  ``record`` runs on the gateway's
    batch worker while the event loop reads ``window_stats`` and swaps
    the power mode — one lock keeps the mode and every window coherent
    across the two.  Lifetime joules/gCO₂ live in the gateway's
    ``Telemetry`` (``record_energy``), the one ledger ``/metrics`` reads.
    """

    def __init__(self, signal=None, device: DeviceProfile = JETSON_AGX_ORIN,
                 clock=None, window_requests: int = 32):
        from repro.power.signals import StaticSignal

        if window_requests < 1:
            raise ValueError(
                f"window_requests must be >= 1, got {window_requests}")
        self.signal = signal if signal is not None else StaticSignal()
        self.base_device = device
        self._clock = clock if clock is not None else elapsed_clock()
        self.window_requests = window_requests
        self._lock = threading.Lock()
        self._mode = "MAXN"
        self._mode_device = device  # MAXN == the base profile

    # ------------------------------------------------------------------
    # clock / power mode
    # ------------------------------------------------------------------
    def now(self) -> float:
        """The meter's notion of time (drives the carbon signal)."""
        return self._clock()

    @property
    def power_mode(self) -> str:
        """The active nvpmodel mode new work is costed under."""
        return self._mode

    def set_power_mode(self, mode: str) -> None:
        """Switch the accounting device profile to an nvpmodel mode."""
        mode = mode.upper()
        if mode not in POWER_MODES:
            raise ValueError(f"unknown power mode {mode!r}; choose from "
                             f"{sorted(POWER_MODES)}")
        with self._lock:
            self._mode = mode
            self._mode_device = (self.base_device if mode == "MAXN"
                                 else apply_power_mode(self.base_device, mode))

    # ------------------------------------------------------------------
    # attribution
    # ------------------------------------------------------------------
    def record(self, session, episode, *, model: str, quant: str,
               context_window: int | None = None,
               now_s: float | None = None) -> EnergyRecord:
        """Attribute one completed episode to the tenant ``session``;
        returns the costed record."""
        tenant = session.name
        params_b, bits = self._model_shape(model, quant)
        prompt = int(getattr(episode, "prompt_tokens", 0) or 0)
        completion = int(getattr(episode, "completion_tokens", 0) or 0)
        qid = str(getattr(episode, "qid", ""))
        with self._lock:
            mode, device = self._mode, self._mode_device
        if prompt or completion:
            trace = simulate_inference(InferenceRequest(
                params_b=params_b,
                bits_per_weight=bits,
                prompt_tokens=prompt,
                generated_tokens=completion,
                context_window=context_window or DEFAULT_CONTEXT_WINDOW,
                jitter_stream=f"energy:{tenant}:{qid}",
            ), device=device)
            energy_j = trace.energy_j
        else:
            energy_j = 0.0
        t_s = self._clock() if now_s is None else now_s
        intensity = self.signal.intensity(t_s)
        carbon_g = energy_j / J_PER_KWH * intensity
        record = EnergyRecord(tenant=tenant, qid=qid, energy_j=energy_j,
                              carbon_g=carbon_g, power_mode=mode,
                              intensity_g_per_kwh=intensity)
        with self._lock:
            session.energy_requests += 1
            window = session.energy_window
            window.append(record)
            if len(window) > self.window_requests:
                window.popleft()
        return record

    def _model_shape(self, model: str, quant: str) -> tuple[float, float]:
        from repro.llm import get_model_spec, get_quant_spec

        try:
            params_b = get_model_spec(model).params_b
        except ValueError:
            params_b = _FALLBACK_PARAMS_B
        try:
            bits = get_quant_spec(quant).bits_per_weight
        except ValueError:
            bits = _FALLBACK_BITS
        return params_b, bits

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
