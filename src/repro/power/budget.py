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
    ``device:<direction>:<mode>`` for power-mode moves).
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
        self._tenant_clear_streak: dict[str, int] = {}
        self._shed_streak: dict[str, int] = {}
        #: per-tenant total_requests watermark at the last ladder move
        self._settle_marks: dict[str, int] = {}

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
        for tenant in self.gateway.sessions.tenant_names:
            tenants[tenant] = {
                "desired_rung": arbiter.desired_rung(self.SOURCE, tenant),
                "effective_rung": arbiter.rung(tenant),
                "rung_source": arbiter.rung_source(tenant),
            }
        return {"power_mode": self.power_mode, "tenants": tenants}

    def forget(self, tenant: str) -> None:
        """Drop a removed tenant's streaks and settle mark (a watermark
        on the meter's count, which restarts at zero with it)."""
        for table in (self._tenant_clear_streak, self._shed_streak,
                      self._settle_marks):
            table.pop(tenant, None)

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
            for tenant in self.gateway.sessions.tenant_names:
                self._tick_tenant(tenant)

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
    def _tick_tenant(self, tenant: str) -> None:
        spec = self.spec
        desired = self.gateway.ladder.desired_rung(self.SOURCE, tenant)
        if desired == "shed":
            # a shed tenant generates no fresh evidence: probation —
            # after recovery_ticks quiet ticks, try one rung up
            streak = self._shed_streak.get(tenant, 0) + 1
            if streak >= spec.recovery_ticks:
                self._shed_streak[tenant] = 0
                self._step(tenant, -1)
            else:
                self._shed_streak[tenant] = streak
            return
        self._shed_streak[tenant] = 0
        stats = self.meter.window_stats(tenant)
        if stats.requests == 0:
            return
        fresh = stats.total_requests - self._settle_marks.get(tenant, 0)
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
            self._tenant_clear_streak[tenant] = 0
            self._step(tenant, +1)
        elif under and desired != "full":
            streak = self._tenant_clear_streak.get(tenant, 0) + 1
            if streak >= spec.recovery_ticks:
                self._tenant_clear_streak[tenant] = 0
                self._step(tenant, -1)
            else:
                self._tenant_clear_streak[tenant] = streak
        else:
            # within the hysteresis band: hold, restart the streak
            self._tenant_clear_streak[tenant] = 0

    def _step(self, tenant: str, direction: int) -> None:
        arbiter = self.gateway.ladder
        new_rung = arbiter.step(self.SOURCE, tenant, direction)
        if new_rung is None:
            return  # clamped at a ladder edge, nothing moved
        self._settle_marks[tenant] = (
            self.meter.window_stats(tenant).total_requests)
        direction_name = "down" if direction > 0 else "up"
        self.gateway.telemetry.record_budget_transition(
            tenant, new_rung, direction_name)
        tracer = getattr(self.gateway, "tracer", None)
        if tracer is not None:
            tracer.marker("budget", {"scope": tenant, "rung": new_rung,
                                     "direction": direction_name})
