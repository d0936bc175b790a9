"""Carbon/power budget control: the one controller of the serving ladder.

CarbonCall's (arXiv 2504.20348) closed loop: the
:class:`BudgetController` steps tenants down the serving ladder

``full`` → reduced-``k`` scheme → ``shed``

on a *power budget* — a rolling joules-per-request cap read from the
:class:`~repro.power.meter.EnergyMeter` — and additionally steps the
simulated board down nvpmodel power modes (MAXN → 30W → 15W) while
the grid's carbon intensity is high, climbing back with hysteresis once
it clears.  The mode lives on the meter; the
gateway runs each batch's episodes on that mode's device, so a step
changes the latency and joules of every episode served after it.

The reduced-``k`` rung reroutes default traffic through
:data:`REDUCED_K_SCHEME` (fewer tools presented — the paper's lever);
the last rung sheds the tenant at admission.  Each rung down costs
strictly fewer joules and tool tokens per request on all four suites,
pinned per rung in ``tests/test_serving_degrade.py``.  A tenant's rung is
one integer on its session, which only :meth:`BudgetController._step`
writes and ``Gateway.submit`` reads.

The core is a synchronous :meth:`~BudgetController.tick` (pass
``now_s`` to drive the carbon signal without any clock);
:meth:`~BudgetController.run` is the thin async loop the gateway starts
when configured with a :class:`~repro.specs.BudgetSpec`.

The controller reads its knobs straight off the
:class:`~repro.specs.BudgetSpec`, whose docstring is the one home of
their semantics (request-count windows, settling, hysteresis).
"""

from __future__ import annotations

import asyncio

from repro.hardware.power_modes import POWER_MODES
from repro.specs import RECOVERY_MARGIN, BudgetSpec

#: the nvpmodel ladder, fastest first
MODE_LADDER = tuple(POWER_MODES)
#: the serving ladder, cheapest last, the same for every tenant
RUNGS = ("full", "reduced-k", "shed")
#: the scheme a tenant's default traffic runs from ``reduced-k`` down
REDUCED_K_SCHEME = "lis-k1"


class BudgetController:
    """Steps tenants down the ladder and the board down power modes.

    One controller per gateway, sharing the gateway's
    :class:`~repro.power.meter.EnergyMeter`, whose ``power_mode`` is the
    one home of the board's mode and of the carbon signal: the
    controller reads its place on :data:`MODE_LADDER` from there and
    writes only there.
    It holds the sessions, meter, telemetry and tracer, never the gateway.
    Every action lands in telemetry as one ``budget_transitions`` entry
    (``<tenant>:<direction>:<rung>`` for ladder moves,
    ``device:<direction>:<mode>`` for power-mode moves) and, on a traced
    gateway, one ``budget`` marker span.  The per-tenant rung, streaks
    and settle mark are the tenant session's.
    """

    def __init__(self, sessions, spec: BudgetSpec, *, meter, telemetry,
                 tracer=None):
        self.sessions = sessions
        self.spec = spec
        self.meter = meter
        self.telemetry = telemetry
        self.tracer = tracer
        self._mode_floor = MODE_LADDER.index(spec.min_power_mode)
        self._mode_clear_streak = 0

    # ------------------------------------------------------------------
    # the feedback loop
    # ------------------------------------------------------------------
    def tick(self, now_s: float | None = None) -> None:
        """One control step; pass ``now_s`` to drive it without a clock."""
        t_s = self.meter.now() if now_s is None else now_s
        intensity = self.meter.signal.intensity(t_s)
        self._tick_power_mode(intensity)
        if self.spec.energy_budget_j is not None:
            for session in self.sessions:
                self._tick_tenant(session)

    async def run(self) -> None:
        """Poll-and-tick loop; cancelled by ``Gateway.stop``.

        Ticks run on the event loop: a rung move writes the state
        ``submit`` reads there.
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
        index = MODE_LADDER.index(self.meter.power_mode)
        if intensity >= spec.intensity_high:
            self._mode_clear_streak = 0
            if index < self._mode_floor:
                self._set_mode(index + 1, "down")
        elif intensity <= spec.effective_intensity_low:
            self._mode_clear_streak += 1
            if self._mode_clear_streak >= spec.recovery_ticks:
                self._mode_clear_streak = 0
                if index > 0:
                    self._set_mode(index - 1, "up")
        else:
            # in-between band: hold the mode, restart the recovery streak
            self._mode_clear_streak = 0

    def _set_mode(self, index: int, direction: str) -> None:
        mode = MODE_LADDER[index]
        self.meter.set_power_mode(mode)
        self.telemetry.record_budget_transition("device", mode, direction)
        if self.tracer is not None:
            self.tracer.marker("budget", {
                "scope": "device", "power_mode": mode, "direction": direction})

    # ------------------------------------------------------------------
    # per-tenant budget ladder
    # ------------------------------------------------------------------
    def _tick_tenant(self, session) -> None:
        spec = self.spec
        if session.rung == len(RUNGS) - 1:
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
        over = stats.mean_energy_j > spec.energy_budget_j
        under = stats.mean_energy_j <= spec.energy_budget_j * RECOVERY_MARGIN
        if over:
            session.clear_streak = 0
            self._step(session, +1)
        elif under and session.rung:
            session.clear_streak += 1
            if session.clear_streak >= spec.recovery_ticks:
                session.clear_streak = 0
                self._step(session, -1)
        else:
            # within the hysteresis band: hold, restart the streak
            session.clear_streak = 0

    def _step(self, session, direction: int) -> str | None:
        """Move the tenant one rung (``+1`` down, ``-1`` up).

        Returns the new rung name, or ``None`` when the rung was already
        clamped at the ladder edge (nothing moved, nothing recorded).
        """
        new = min(max(session.rung + direction, 0), len(RUNGS) - 1)
        if new == session.rung:
            return None
        session.rung = new
        session.settle_mark = session.energy_requests
        rung = RUNGS[new]
        direction_name = "down" if direction > 0 else "up"
        self.telemetry.record_budget_transition(
            session.name, rung, direction_name)
        if self.tracer is not None:
            self.tracer.marker("budget", {
                "scope": session.name, "rung": rung,
                "direction": direction_name})
        return rung
