"""Deterministic fault injection for the serving runtime.

Chaos testing the gateway only means something if a failing run can be
replayed: a :class:`FaultPlan` is a frozen, seeded description of *which*
faults fire *how often*, and a :class:`FaultInjector` built from it makes
bit-reproducible decisions by drawing from named BLAKE2-derived RNG
streams (:func:`repro.utils.rng.derive_rng`) — the same plan produces the
same decision sequence at every hook on every platform.

Faults fire at two **hook points** (:attr:`FaultInjector._HOOK_RATES`
is the table), covering the layers a production gateway loses first:

``batch.process``
    on the batch worker before the batch is grouped — a ``slow``
    decision sleeps, exercising deadline enforcement and backpressure.
``gateway.group``
    inside per-group planning/execution — a ``raise`` decision throws
    :class:`InjectedFaultError`, exercising per-group failure isolation.

Injectors are *opt-in*: a gateway built without a plan never consults
one, so the production hot path carries a single ``None`` check.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

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


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of a chaos scenario.

    Rates are per-invocation firing probabilities in ``[0, 1]`` for each
    built-in hook; ``seed`` namespaces every decision stream, so two
    plans differing only in seed inject at different (but individually
    reproducible) points.
    """

    seed: int = 0
    slow_batch_rate: float = 0.0
    slow_batch_ms: float = 0.0
    exception_rate: float = 0.0

    def __post_init__(self):
        for name in ("slow_batch_rate", "exception_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"FaultPlan.{name} must be in [0, 1], got {rate}")
        if self.slow_batch_ms < 0.0:
            raise ValueError(
                f"FaultPlan.slow_batch_ms must be >= 0, got {self.slow_batch_ms}")

    @property
    def is_empty(self) -> bool:
        return self.slow_batch_rate == 0.0 and self.exception_rate == 0.0


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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector({self.plan!r})"


def as_injector(faults) -> FaultInjector | None:
    """Normalize a plan/injector/None into an injector (or None).

    Empty plans normalize to ``None`` so the serving hot path skips the
    hook checks entirely when no fault can ever fire.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        return None if faults.is_empty else FaultInjector(faults)
    if isinstance(faults, FaultInjector):
        return None if faults.plan.is_empty else faults
    raise TypeError(
        f"faults must be a FaultPlan or FaultInjector, got "
        f"{type(faults).__name__}")
