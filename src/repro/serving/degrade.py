"""Closed-loop degradation: trade answer richness for survival under load.

CarbonCall-style admission control (arXiv 2504.20348) as a feedback
controller: watch queue depth and tail latency through the gateway's
:class:`~repro.serving.telemetry.Telemetry`, and when pressure stays
high, step every tenant down a ladder of progressively cheaper serving
configurations —

``full`` → reduced-``k`` scheme → ``shed``

— then climb back up one rung at a time once pressure clears.  The
reduced-``k`` rung reroutes default traffic through a cheaper scheme
cell (fewer tools presented — the paper's lever); the last rung sheds
the tenant at admission.  Each rung down costs strictly fewer joules
and tool tokens per request on all four suites, pinned per rung in
``tests/test_serving_degrade.py``.  Catalog description variants
failed that law as rungs and are an offline catalog feature only — no
controller ever swaps a tenant's catalog.  Every transition is counted
in telemetry (``degrade_transitions``).

Two controllers can drive the same ladder: this module's queue-pressure
:class:`DegradationController` and the carbon/power
:class:`~repro.power.budget.BudgetController`.  They compose through a
shared :class:`LadderArbiter` owned by the gateway: each controller
records its *desired* rung on the tenant's session under a source name
(``"pressure"`` / ``"budget"``) and the deepest desire is the rung.
Telemetry transitions fire only when the effective rung actually moves,
so two controllers that disagree hold the ladder steady instead of
fighting over it.

The controller is deliberately synchronous at its core —
:meth:`DegradationController.tick` takes pressure readings as plain
numbers — so tests drive the ladder deterministically without any clock
or traffic; :meth:`DegradationController.run` is the thin async loop the
gateway starts when constructed with a :class:`DegradationPolicy`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

#: the ladder, cheapest-last, the same for every tenant
RUNGS = ("full", "reduced-k", "shed")


@dataclass(frozen=True)
class DegradationPolicy:
    """Thresholds and knobs of the degradation feedback loop.

    Parameters
    ----------
    queue_high:
        Queue depth at or above which one :meth:`tick` steps every
        tenant down a rung.
    queue_low:
        Queue depth at or below which a tick counts toward recovery;
        between ``queue_low`` and ``queue_high`` the ladder holds and
        the recovery streak resets (hysteresis).
    p95_high_ms:
        Optional latency trigger: when set, a p95 at or above it is
        treated as high pressure even if the queue is short, and
        recovery additionally requires p95 below it.
    recovery_ticks:
        Consecutive clear ticks required before stepping tenants back
        up one rung.
    reduced_k_scheme:
        Scheme default traffic runs from the ``reduced-k`` rung down (any
        registered scheme; parameterized ``lis-k<N>`` names work).
    interval_ms:
        Poll period of the async :meth:`DegradationController.run` loop.
    """

    queue_high: int = 16
    queue_low: int = 2
    p95_high_ms: float | None = None
    recovery_ticks: int = 3
    reduced_k_scheme: str = "lis-k1"
    interval_ms: float = 100.0

    def __post_init__(self):
        if self.queue_high < 1:
            raise ValueError(f"queue_high must be >= 1, got {self.queue_high}")
        if not 0 <= self.queue_low < self.queue_high:
            raise ValueError(
                f"queue_low must be in [0, queue_high), got {self.queue_low}")
        if self.p95_high_ms is not None and self.p95_high_ms <= 0.0:
            raise ValueError(
                f"p95_high_ms must be > 0 (or None), got {self.p95_high_ms}")
        if self.recovery_ticks < 1:
            raise ValueError(
                f"recovery_ticks must be >= 1, got {self.recovery_ticks}")
        if self.interval_ms <= 0.0:
            raise ValueError(
                f"interval_ms must be > 0, got {self.interval_ms}")

    @property
    def interval_s(self) -> float:
        return self.interval_ms / 1e3


class LadderArbiter:
    """Arbitrates rung requests from several controllers onto one gateway.

    Each controller steps its own *desired* ladder index per tenant under
    a stable source name, kept on the tenant's session
    (:attr:`~repro.serving.session.TenantSession.desired`); the effective
    rung is the deepest desire (``session.rung``), so there is no applied
    state to keep in step with it.  What a rung does is read off the rung
    where it is used: ``submit`` reroutes default traffic to
    :attr:`reduced_k_scheme` from ``reduced-k`` down and sheds at
    ``shed``.  A move walks one rung at a time, so the recorded
    transitions are exactly the single-step sequence a lone controller
    would produce.  Not thread-safe: every caller runs on the event loop.
    Telemetry records one ``degrade_transitions`` entry per effective
    rung moved — a controller whose desire is already dominated by
    another source moves nothing and records nothing.
    """

    def __init__(self, gateway, reduced_k_scheme: str = "lis-k1"):
        self.gateway = gateway
        self.reduced_k_scheme = reduced_k_scheme

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def rung(self, session) -> str:
        """The tenant's effective rung name (``"full"`` when undegraded)."""
        return RUNGS[session.rung]

    def desired_rung(self, source: str, session) -> str:
        """``source``'s current desired rung name for the tenant."""
        return RUNGS[session.desired.get(source, 0)]

    def rung_source(self, session) -> str:
        """Which source(s) pin the tenant at its effective rung.

        ``"none"`` at the top rung; otherwise the source name
        (``"pressure"``, ``"budget"``), or ``"pressure+budget"`` when
        both desire exactly the effective rung.
        """
        rung = session.rung
        if rung == 0:
            return "none"
        return "+".join(sorted(source for source, desired
                               in session.desired.items() if desired == rung))

    # ------------------------------------------------------------------
    # rung transitions
    # ------------------------------------------------------------------
    def step(self, source: str, session, direction: int) -> str | None:
        """Move ``source``'s desired rung one step.

        Returns the source's new desired rung name, or ``None`` when the
        desire was already clamped at the ladder edge (no change).
        """
        old = session.desired.get(source, 0)
        new = min(max(old + direction, 0), len(RUNGS) - 1)
        if new == old:
            return None
        self._desire(source, session, new)
        return RUNGS[new]

    def release(self, source: str, session) -> None:
        """Drop ``source``'s desire back to the top rung."""
        if session.desired.get(source, 0):
            self._desire(source, session, 0)

    def _desire(self, source: str, session, index: int) -> None:
        """Set ``source``'s desire; record each effective rung crossed."""
        old = session.rung
        session.desired[source] = index
        target = session.rung
        tracer = getattr(self.gateway, "tracer", None)
        while old != target:
            new = old + (1 if target > old else -1)
            direction_name = "down" if new > old else "up"
            self.gateway.telemetry.record_degradation(
                session.name, RUNGS[new], direction_name)
            if tracer is not None:
                # control-plane transition: not owned by any one request,
                # so it lands as a standalone marker span
                tracer.marker("degrade", {"tenant": session.name,
                                          "rung": RUNGS[new],
                                          "from_rung": RUNGS[old],
                                          "direction": direction_name})
            old = new


class DegradationController:
    """Steps tenants down/up the degradation ladder as pressure moves.

    One controller per gateway.  All rung mutations go through the
    gateway's shared :class:`LadderArbiter` (source ``"pressure"``) onto
    each tenant's session; the shed flag and the scheme override an
    operator reads (``Gateway.is_shed``, ``Gateway.scheme_override``) are
    functions of the resulting rung.
    """

    SOURCE = "pressure"

    def __init__(self, gateway, policy: DegradationPolicy):
        self.gateway = gateway
        self.policy = policy
        self.arbiter: LadderArbiter = gateway.ladder
        self.arbiter.reduced_k_scheme = policy.reduced_k_scheme
        self._clear_streak = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def rung(self, tenant: str) -> str:
        """The tenant's current rung name (``"full"`` when undegraded)."""
        return self.gateway.rung(tenant)

    def status(self) -> dict[str, str]:
        """``{tenant: rung}`` for every registered tenant."""
        return {session.name: self.arbiter.rung(session)
                for session in self.gateway.sessions}

    # ------------------------------------------------------------------
    # the feedback loop
    # ------------------------------------------------------------------
    def tick(self, depth: int | None = None,
             p95_ms: float | None = None) -> None:
        """One control step; pass readings explicitly to drive it in tests.

        ``depth`` defaults to the scheduler's live queue depth and
        ``p95_ms`` to the telemetry snapshot's ``latency_p95_ms`` (only
        measured when the policy sets ``p95_high_ms``).
        """
        policy = self.policy
        if depth is None:
            depth = self.gateway.scheduler.pending
        if p95_ms is None and policy.p95_high_ms is not None:
            p95_ms = self.gateway.telemetry.snapshot()["latency_p95_ms"]
        latency_high = (policy.p95_high_ms is not None
                        and (p95_ms or 0.0) >= policy.p95_high_ms)
        if depth >= policy.queue_high or latency_high:
            self._clear_streak = 0
            for session in self.gateway.sessions:
                self.arbiter.step(self.SOURCE, session, +1)
        elif depth <= policy.queue_low and not latency_high:
            self._clear_streak += 1
            if self._clear_streak >= policy.recovery_ticks:
                self._clear_streak = 0
                for session in self.gateway.sessions:
                    self.arbiter.step(self.SOURCE, session, -1)
        else:
            # in-between zone: hold the ladder, restart the recovery
            # streak so a brief dip cannot mask sustained pressure
            self._clear_streak = 0

    async def run(self) -> None:
        """Poll-and-tick loop; cancelled by ``Gateway.stop``.

        Ticks run on the event loop, where ``submit`` reads the rung a
        move writes.  Only the optional p95
        reading — a telemetry snapshot, which sorts the sample ring — is
        taken on a worker thread first.
        """
        loop = asyncio.get_running_loop()
        telemetry = self.gateway.telemetry
        while True:
            await asyncio.sleep(self.policy.interval_s)
            p95_ms = None
            if self.policy.p95_high_ms is not None:
                snapshot = await loop.run_in_executor(None, telemetry.snapshot)
                p95_ms = snapshot["latency_p95_ms"]
            self.tick(p95_ms=p95_ms)
