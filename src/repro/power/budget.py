"""Carbon/power budget control: drive the degradation ladder from joules.

CarbonCall's (arXiv 2504.20348) other half: where
:class:`~repro.serving.degrade.DegradationController` steps tenants down
the serving ladder on *queue pressure*, the :class:`BudgetController`
steps them down on a *power/carbon budget* — a rolling
joules-per-request or gCO₂-per-request cap read from the
:class:`~repro.power.meter.EnergyMeter` — and additionally steps the
simulated board down nvpmodel power modes (MAXN → 30W → 15W) while the
grid's carbon intensity is high, climbing back with hysteresis once it
clears.

Both controllers write through the gateway's shared
:class:`~repro.serving.degrade.LadderArbiter` under distinct source
names, so they compose instead of fighting: the deeper desire wins, the
effective rung moves at most when a desire changes, and transition
counts cannot oscillate between two disagreeing controllers.

Like the pressure controller, the core is a synchronous :meth:`tick`
(pass ``now_s`` to drive the carbon signal without any clock);
:meth:`run` is the thin async loop the gateway starts when configured
with a :class:`~repro.specs.BudgetSpec`.

The controller reads its knobs straight off the
:class:`~repro.specs.BudgetSpec`, whose docstring is the one home of
their semantics (request-count windows, settling, hysteresis).
"""

from __future__ import annotations

import asyncio

from repro.hardware.power_modes import POWER_MODES
from repro.specs import BudgetSpec

#: the nvpmodel ladder, fastest first
MODE_LADDER = tuple(POWER_MODES)


class BudgetController:
    """Steps tenants down the ladder and the board down power modes.

    One controller per gateway, sharing the gateway's
    :class:`~repro.serving.degrade.LadderArbiter` (source ``"budget"``)
    with the queue-pressure controller and its
    :class:`~repro.power.meter.EnergyMeter` with the accounting layer.
    Every action lands in telemetry as a ``budget_transitions`` entry
    (``<tenant>:<direction>:<rung>`` for ladder moves,
    ``device:<direction>:<mode>`` for power-mode moves).  The per-tenant
    streaks and settle mark are the tenant session's.
    """

    SOURCE = "budget"

    def __init__(self, gateway, spec: BudgetSpec, meter=None,
                 signal=None, clock=None):
        self.gateway = gateway
        self.spec = spec
        self.meter = meter if meter is not None else gateway.power_meter
        self.signal = signal if signal is not None else self.meter.signal
        self._clock = clock if clock is not None else self.meter.now
        self._mode_index = 0
        self._mode_floor = MODE_LADDER.index(spec.min_power_mode)
        self._mode_clear_streak = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def power_mode(self) -> str:
        return MODE_LADDER[self._mode_index]

    def status(self) -> dict:
        """Controller state for operators: mode plus per-tenant desires."""
        arbiter = self.gateway.ladder
        tenants = {}
        for session in self.gateway.sessions:
            tenants[session.name] = {
                "desired_rung": arbiter.desired_rung(self.SOURCE, session),
                "effective_rung": arbiter.rung(session),
                "rung_source": arbiter.rung_source(session),
            }
        return {"power_mode": self.power_mode, "tenants": tenants}

    # ------------------------------------------------------------------
    # the feedback loop
    # ------------------------------------------------------------------
    def tick(self, now_s: float | None = None) -> None:
        """One control step; pass ``now_s`` to drive it without a clock."""
        t_s = self._clock() if now_s is None else now_s
        intensity = self.signal.intensity(t_s)
        self._tick_power_mode(intensity)
        if (self.spec.energy_budget_j is not None
                or self.spec.carbon_budget_g is not None):
            for session in self.gateway.sessions:
                self._tick_tenant(session)

    async def run(self) -> None:
        """Poll-and-tick loop; cancelled by ``Gateway.stop``.

        Ticks run on the event loop, like the pressure controller's: a
        rung move writes the state ``submit`` reads there.
        """
        while True:
            await asyncio.sleep(self.spec.interval_s)
            self.tick()

    # ------------------------------------------------------------------
    # power-mode ladder
    # ------------------------------------------------------------------
    def _tick_power_mode(self, intensity: float) -> None:
        spec = self.spec
        if spec.intensity_high is None:
            return
        if intensity >= spec.intensity_high:
            self._mode_clear_streak = 0
            if self._mode_index < self._mode_floor:
                self._set_mode(self._mode_index + 1, "down")
        elif intensity <= spec.effective_intensity_low:
            self._mode_clear_streak += 1
            if self._mode_clear_streak >= spec.recovery_ticks:
                self._mode_clear_streak = 0
                if self._mode_index > 0:
                    self._set_mode(self._mode_index - 1, "up")
        else:
            # in-between band: hold the mode, restart the recovery streak
            self._mode_clear_streak = 0

    def _set_mode(self, index: int, direction: str) -> None:
        self._mode_index = index
        mode = MODE_LADDER[index]
        self.meter.set_power_mode(mode)
        self.gateway.telemetry.record_budget_transition(
            "device", mode, direction)
        tracer = getattr(self.gateway, "tracer", None)
        if tracer is not None:
            tracer.marker("budget", {"scope": "device", "power_mode": mode,
                                     "direction": direction})

    # ------------------------------------------------------------------
    # per-tenant budget ladder
    # ------------------------------------------------------------------
    def _tick_tenant(self, session) -> None:
        spec = self.spec
        desired = self.gateway.ladder.desired_rung(self.SOURCE, session)
        if desired == "shed":
            # a shed tenant generates no fresh evidence: probation —
            # after recovery_ticks quiet ticks, try one rung up
            session.shed_streak += 1
            if session.shed_streak >= spec.recovery_ticks:
                session.shed_streak = 0
                self._step(session, -1)
            return
        session.shed_streak = 0
        stats = self.meter.window_stats(session)
        if stats.requests == 0:
            return
        fresh = stats.total_requests - session.settle_mark
        if fresh < min(spec.effective_settle_requests, spec.window_requests):
            return  # the window hasn't refilled since the last move
        over = False
        under = True
        if spec.energy_budget_j is not None:
            over = over or stats.mean_energy_j > spec.energy_budget_j
            under = under and (stats.mean_energy_j
                               <= spec.energy_budget_j
                               * spec.recovery_margin)
        if spec.carbon_budget_g is not None:
            over = over or stats.mean_carbon_g > spec.carbon_budget_g
            under = under and (stats.mean_carbon_g
                               <= spec.carbon_budget_g
                               * spec.recovery_margin)
        if over:
            session.clear_streak = 0
            self._step(session, +1)
        elif under and desired != "full":
            session.clear_streak += 1
            if session.clear_streak >= spec.recovery_ticks:
                session.clear_streak = 0
                self._step(session, -1)
        else:
            # within the hysteresis band: hold, restart the streak
            session.clear_streak = 0

    def _step(self, session, direction: int) -> None:
        new_rung = self.gateway.ladder.step(self.SOURCE, session, direction)
        if new_rung is None:
            return  # clamped at a ladder edge, nothing moved
        session.settle_mark = session.energy_requests
        direction_name = "down" if direction > 0 else "up"
        self.gateway.telemetry.record_budget_transition(
            session.name, new_rung, direction_name)
        tracer = getattr(self.gateway, "tracer", None)
        if tracer is not None:
            tracer.marker("budget", {"scope": session.name, "rung": new_rung,
                                     "direction": direction_name})
