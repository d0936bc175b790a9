"""Deterministic fault injection for the serving runtime.

Chaos testing the gateway only means something if a failing run can be
replayed: a :class:`~repro.specs.FaultPlan` (``ServingSpec.faults``) is
a frozen, seeded description of *which* faults fire *how often*, and a
:class:`FaultInjector` built from it draws bit-reproducible decisions
from named BLAKE2-derived RNG streams (:func:`repro.utils.rng.derive_rng`):
the same plan makes the same decisions at every hook on every platform.

Faults fire at two **hook points** (:attr:`FaultInjector._HOOK_RATES`
is the table), covering the layers a production gateway loses first:

``batch.process``
    on the batch worker before the batch is grouped — a ``slow``
    decision sleeps, exercising deadline enforcement and backpressure.
``gateway.group``
    inside per-group planning/execution — a ``raise`` decision throws
    :class:`InjectedFaultError`, exercising per-group failure isolation.

Injectors are *opt-in*: a gateway whose spec has no plan never consults
one, so the production hot path carries a single ``None`` check.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.specs import FaultPlan
from repro.utils.rng import derive_rng


class InjectedFaultError(RuntimeError):
    """The simulated failure thrown by a ``gateway.group`` fault."""


@dataclass(frozen=True)
class FaultAction:
    """One fired fault: what to do (``slow`` | ``raise``)."""

    hook: str
    kind: str
    #: stall duration for ``slow`` actions (0 otherwise)
    sleep_s: float = 0.0


class FaultInjector:
    """Draws deterministic fault decisions from a :class:`FaultPlan`.

    Each hook keeps its own invocation counter; decision ``n`` at hook
    ``h`` draws from the stream ``("faults", h, n)`` under the plan's
    seed, so the decision sequence per hook is a pure function of the
    plan — independent of wall-clock time, thread scheduling or what the
    other hooks saw.  The counter is lock-protected (hooks may fire from
    more than one thread).
    """

    #: hook -> (rate field, action kind)
    _HOOK_RATES = {
        "batch.process": ("slow_batch_rate", "slow"),
        "gateway.group": ("exception_rate", "raise"),
    }

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._draws: dict[str, int] = {}
        self._lock = threading.Lock()

    def decide(self, hook: str) -> FaultAction | None:
        """The next deterministic decision at ``hook`` (None = no fault)."""
        try:
            rate_field, kind = self._HOOK_RATES[hook]
        except KeyError:
            raise ValueError(
                f"unknown fault hook {hook!r}; built-in hooks: "
                f"{', '.join(sorted(self._HOOK_RATES))}") from None
        rate = getattr(self.plan, rate_field)
        if rate <= 0.0:
            return None
        with self._lock:
            count = self._draws.get(hook, 0)
            self._draws[hook] = count + 1
        draw = float(derive_rng("faults", hook, count,
                                root_seed=self.plan.seed).random())
        if draw >= rate:
            return None
        sleep_s = self.plan.slow_batch_ms / 1e3 if kind == "slow" else 0.0
        return FaultAction(hook=hook, kind=kind, sleep_s=sleep_s)


def as_injector(plan: FaultPlan | None) -> FaultInjector | None:
    """The injector for ``plan``; ``None`` for no plan or an empty one,
    so the serving hot path skips the hooks when no fault can fire."""
    return None if plan is None or plan.is_empty else FaultInjector(plan)
