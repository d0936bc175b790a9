"""Simulated tool execution: schema validation + deterministic results.

The executor stands in for the benchmark's API backends.  It enforces the
same contract a real gateway would — required arguments present, types
correct, enums respected — and then fabricates a deterministic result
payload.  A call that references a tool outside the presented pool, or
passes malformed arguments, fails here; this is the boundary that turns
the simulated LLM's argument mistakes into the paper's success-rate gap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.tools.catalog import ToolCatalog
from repro.tools.schema import ToolCall, ValidationIssue
from repro.utils.hashing import stable_hash64
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class ExecutionOutcome:
    """Result of executing one tool call."""

    call: ToolCall
    ok: bool
    value: Any = None
    issues: tuple[ValidationIssue, ...] = ()
    error: str = ""
    #: simulated wall-clock cost of the API itself, seconds
    api_latency_s: float = 0.0


@dataclass
class SimulatedToolExecutor:
    """Validates and "executes" tool calls against a catalog.

    Parameters
    ----------
    catalog:
        The full tool pool (calls to unknown tools fail).
    api_latency_mean_s:
        Mean of the simulated per-call API latency (lognormal-ish jitter,
        deterministic per call).  The paper's execution-time metric is
        dominated by LLM inference; API latency is kept small but nonzero
        so the hardware traces stay realistic.
    log_calls:
        Whether to append every outcome to :attr:`executed`.  Off by
        default: the log is for single-episode debugging and grows
        without bound across the episodes an executor serves.  Appends
        are lock-protected, making one logging executor safe to share
        across concurrent episodes.
    """

    catalog: ToolCatalog
    api_latency_mean_s: float = 0.15
    executed: list[ExecutionOutcome] = field(default_factory=list)
    log_calls: bool = False

    def __post_init__(self):
        self._log_lock = threading.Lock()

    def _record(self, outcome: ExecutionOutcome) -> ExecutionOutcome:
        if self.log_calls:
            with self._log_lock:
                self.executed.append(outcome)
        return outcome

    def new_episode_state(self):
        """Fresh per-episode tool state, or ``None`` for stateless suites.

        Agents create one state object at the start of every episode and
        thread it through each :meth:`execute` call, so stateful
        executors (the browser suite's) carry tool effects across the
        chain — and across conversation turns — of one episode without
        leaking between episodes or concurrent users.
        """
        return None

    def execute(self, call: ToolCall, allowed: set[str] | None = None,
                state=None) -> ExecutionOutcome:
        """Validate and run one call.

        ``allowed`` restricts the callable set to the tools actually
        presented to the LLM (calling a hallucinated or non-presented tool
        fails, exactly as it would through a constrained decoder).
        ``state`` is the per-episode object from
        :meth:`new_episode_state`; the base executor ignores it.
        """
        if allowed is not None and call.tool not in allowed:
            return self._record(ExecutionOutcome(
                call=call, ok=False,
                error=f"tool {call.tool!r} was not offered to the agent",
            ))
        if call.tool not in self.catalog:
            return self._record(ExecutionOutcome(
                call=call, ok=False, error=f"unknown tool {call.tool!r}"))

        spec = self.catalog.get(call.tool)
        issues = spec.validate_arguments(call.arguments)
        if issues:
            return self._record(ExecutionOutcome(
                call=call, ok=False, issues=tuple(issues),
                error="; ".join(str(issue) for issue in issues),
            ))

        state_error = self._state_error(call, state)
        if state_error:
            return self._record(ExecutionOutcome(
                call=call, ok=False, error=state_error))

        rng = derive_rng("tool-exec", call.to_json())
        latency = float(self.api_latency_mean_s * rng.lognormal(mean=0.0, sigma=0.35))
        return self._record(ExecutionOutcome(
            call=call, ok=True,
            value=self._fabricate_result(call, state),
            api_latency_s=latency,
        ))

    def _state_error(self, call: ToolCall, state) -> str | None:
        """Hook: reject a call the current episode state cannot support.

        Stateful executors return an error string (e.g. "no page is
        open") to fail the call *after* schema validation but before
        result fabrication; the base executor accepts everything.
        """
        return None

    def _fabricate_result(self, call: ToolCall, state=None) -> dict[str, Any]:
        """Deterministic, schema-shaped stand-in for the real API payload.

        Stateful executors override this to read *and mutate* ``state``
        so later calls of the episode observe earlier effects.
        """
        token = stable_hash64("result", call.to_json()) % 10_000
        return {
            "tool": call.tool,
            "status": "ok",
            "ref": f"{call.tool}#{token:04d}",
        }
