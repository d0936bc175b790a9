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
records its *desired* rung per tenant under a source name
(``"pressure"`` / ``"budget"``) and the arbiter applies the deepest
request.  Side effects and telemetry transitions fire only when the
effective rung actually moves, so two controllers that disagree hold
the ladder steady instead of fighting over it.

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
        Scheme override installed at the ``reduced-k`` rung (any
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
    a stable source name; the arbiter applies ``max`` over sources as the
    tenant's effective rung, walking one rung at a time so the recorded
    transitions are exactly the single-step sequence a lone controller
    would produce.  A rung's side effects are a function of the rung
    alone (scheme override from ``reduced-k`` down, shedding at
    ``shed``).  Not thread-safe: every caller runs on the event loop.
    Telemetry records one ``degrade_transitions`` entry per effective
    rung moved — a controller whose desire is already dominated by
    another source moves nothing and records nothing.
    """

    def __init__(self, gateway, reduced_k_scheme: str = "lis-k1"):
        self.gateway = gateway
        self.reduced_k_scheme = reduced_k_scheme
        self._desired: dict[str, dict[str, int]] = {}  # source -> tenant -> idx
        self._applied: dict[str, int] = {}             # tenant -> effective idx

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def rung(self, tenant: str) -> str:
        """The tenant's effective rung name (``"full"`` when undegraded)."""
        return RUNGS[self._applied.get(tenant, 0)]

    def desired_rung(self, source: str, tenant: str) -> str:
        """``source``'s current desired rung name for ``tenant``."""
        return RUNGS[self._desired.get(source, {}).get(tenant, 0)]

    def rung_source(self, tenant: str) -> str:
        """Which source(s) pin the tenant at its effective rung.

        ``"none"`` at the top rung; otherwise the source name
        (``"pressure"``, ``"budget"``), or ``"pressure+budget"`` when
        both desire exactly the effective rung.
        """
        applied = self._applied.get(tenant, 0)
        if applied == 0:
            return "none"
        winners = sorted(source for source, desired in self._desired.items()
                         if desired.get(tenant, 0) == applied)
        return "+".join(winners) if winners else "none"

    # ------------------------------------------------------------------
    # rung transitions
    # ------------------------------------------------------------------
    def step(self, source: str, tenant: str, direction: int) -> str | None:
        """Move ``source``'s desired rung one step; apply the effective rung.

        Returns the source's new desired rung name, or ``None`` when the
        desire was already clamped at the ladder edge (no change).
        """
        desires = self._desired.setdefault(source, {})
        old = desires.get(tenant, 0)
        new = min(max(old + direction, 0), len(RUNGS) - 1)
        if new == old:
            return None
        desires[tenant] = new
        self._apply(tenant)
        return RUNGS[new]

    def release(self, source: str, tenant: str) -> None:
        """Drop ``source``'s desire back to the top rung."""
        desires = self._desired.get(source)
        if desires and desires.get(tenant, 0):
            desires[tenant] = 0
            self._apply(tenant)

    def forget(self, tenant: str) -> None:
        """Drop a removed tenant's desires and rung (no side effects, no
        telemetry): a later tenant of the same name starts at ``full``."""
        for table in (*self._desired.values(), self._applied):
            table.pop(tenant, None)

    def _apply(self, tenant: str) -> None:
        target = max((desires.get(tenant, 0)
                      for desires in self._desired.values()), default=0)
        old = self._applied.get(tenant, 0)
        tracer = getattr(self.gateway, "tracer", None)
        while old != target:
            new = old + (1 if target > old else -1)
            self._enter(tenant, new)
            self._applied[tenant] = new
            direction_name = "down" if new > old else "up"
            self.gateway.telemetry.record_degradation(
                tenant, RUNGS[new], direction_name)
            if tracer is not None:
                # control-plane transition: not owned by any one request,
                # so it lands as a standalone marker span
                tracer.marker("degrade", {"tenant": tenant,
                                          "rung": RUNGS[new],
                                          "from_rung": RUNGS[old],
                                          "direction": direction_name})
            old = new

    def _enter(self, tenant: str, index: int) -> None:
        """Put the gateway in rung ``index``'s state for ``tenant``: the
        scheme override from ``reduced-k`` down, shedding at ``shed``."""
        gateway = self.gateway
        if index >= 1:
            gateway.set_scheme_override(tenant, self.reduced_k_scheme)
        else:
            gateway.clear_scheme_override(tenant)
        if index == 2:
            gateway.shed_tenant(tenant)
        else:
            gateway.unshed_tenant(tenant)


class DegradationController:
    """Steps tenants down/up the degradation ladder as pressure moves.

    One controller per gateway.  All rung mutations go through the
    gateway's shared :class:`LadderArbiter` (source ``"pressure"``),
    which in turn uses only the gateway's public degradation controls
    (``set_scheme_override``, ``shed_tenant`` and their inverses), so an
    operator can read the same state the controller writes.
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
        return self.arbiter.rung(tenant)

    def status(self) -> dict[str, str]:
        """``{tenant: rung}`` for every registered tenant."""
        return {tenant: self.rung(tenant)
                for tenant in self.gateway.sessions.tenant_names}

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
            for tenant in self.gateway.sessions.tenant_names:
                self.arbiter.step(self.SOURCE, tenant, +1)
        elif depth <= policy.queue_low and not latency_high:
            self._clear_streak += 1
            if self._clear_streak >= policy.recovery_ticks:
                self._clear_streak = 0
                for tenant in self.gateway.sessions.tenant_names:
                    self.arbiter.step(self.SOURCE, tenant, -1)
        else:
            # in-between zone: hold the ladder, restart the recovery
            # streak so a brief dip cannot mask sustained pressure
            self._clear_streak = 0

    async def run(self) -> None:
        """Poll-and-tick loop; cancelled by ``Gateway.stop``.

        Ticks run on the event loop, where ``submit`` reads the shed set
        and scheme overrides a rung move writes.  Only the optional p95
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
