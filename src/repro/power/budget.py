"""Carbon/power budget control: the one controller of the serving ladder.

CarbonCall's (arXiv 2504.20348) closed loop: the
:class:`BudgetController` steps tenants down the serving ladder

``full`` → reduced-``k`` scheme → ``shed``

on a *power budget* — a rolling joules-per-request cap read from the
:class:`~repro.power.meter.EnergyMeter` — climbing back with hysteresis
once a tenant's window clears.  CarbonCall also steps the board down
nvpmodel power modes; under this repo's hardware model that raises the
joules per request at 15W and saves 1–6% at 30W for 22–34% more time
(``tests/test_power_laws.py`` pins the table), so the board serves at
MAXN and the modes stay an offline ablation
(:func:`~repro.hardware.power_modes.orin_in_mode`).

The reduced-``k`` rung reroutes default traffic through
:data:`REDUCED_K_SCHEME` (fewer tools presented — the paper's lever);
the last rung sheds the tenant at admission.  Each rung down costs
strictly fewer joules and tool tokens per request on all four suites,
pinned per rung in ``tests/test_serving_degrade.py``.  A tenant's rung is
one integer on its session, which only :meth:`BudgetController._step`
writes and ``Gateway.submit`` reads.

The core is a synchronous :meth:`~BudgetController.tick`;
:meth:`~BudgetController.run` is the thin async loop the gateway starts
when configured with a :class:`~repro.specs.BudgetSpec`.

The controller reads its knobs straight off the
:class:`~repro.specs.BudgetSpec`, whose docstring is the one home of
their semantics (request-count windows, settling, hysteresis).
"""

from __future__ import annotations

import asyncio

from repro.specs import RECOVERY_MARGIN, BudgetSpec

#: the serving ladder, cheapest last, the same for every tenant
RUNGS = ("full", "reduced-k", "shed")
#: the scheme a tenant's default traffic runs from ``reduced-k`` down
REDUCED_K_SCHEME = "lis-k1"


class BudgetController:
    """Steps tenants down the ladder on their rolling joules per request.

    One controller per gateway, reading each tenant's window off the
    gateway's :class:`~repro.power.meter.EnergyMeter`.
    It holds the sessions, meter, telemetry and tracer, never the gateway.
    Every move lands in telemetry as one ``budget_transitions`` entry
    (``<tenant>:<direction>:<rung>``) and, on a traced gateway, one
    ``budget`` marker span.  The per-tenant rung, streaks and settle mark
    are the tenant session's.
    """

    def __init__(self, sessions, spec: BudgetSpec, *, meter, telemetry,
                 tracer=None):
        self.sessions = sessions
        self.spec = spec
        self.meter = meter
        self.telemetry = telemetry
        self.tracer = tracer

    # ------------------------------------------------------------------
    # the feedback loop
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One control step over every tenant."""
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
