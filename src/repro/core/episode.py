"""Episode records shared by the Less-is-More agent and all baselines."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


@dataclass(frozen=True)
class StepRecord:
    """One chain step: what was called and whether it worked."""

    step_index: int
    tool_called: str | None
    correct_tool: bool
    execution_ok: bool
    n_tools_presented: int
    retried: bool = False
    #: conversation turn this step belongs to (0 for single-shot queries)
    turn_index: int = 0

    def to_dict(self) -> dict:
        # the fields in declaration order; all scalars, so no deep copy
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, data: dict) -> "StepRecord":
        return cls(**data)


@dataclass
class EpisodeResult:
    """Everything measured about one query episode.

    The paper's four metrics derive from these fields: Success Rate from
    ``success``, Tool Accuracy from ``tool_accuracy``, and the normalized
    execution-time / power columns from ``time_s`` / ``avg_power_w``
    relative to the default scheme.
    """

    qid: str
    scheme: str
    model: str
    quant: str
    steps: list[StepRecord] = field(default_factory=list)
    selected_level: int | None = None
    fallback_used: bool = False
    time_s: float = 0.0
    energy_j: float = 0.0
    avg_power_w: float = 0.0
    peak_memory_gb: float = 0.0
    n_llm_calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0

    @property
    def tool_accuracy(self) -> bool:
        """All steps selected the gold tool (paper's Tool Accuracy)."""
        return bool(self.steps) and all(step.correct_tool for step in self.steps)

    @property
    def success(self) -> bool:
        """Correct tools *and* well-formed executions end-to-end."""
        return bool(self.steps) and all(
            step.correct_tool and step.execution_ok for step in self.steps
        )

    @property
    def mean_tools_presented(self) -> float:
        if not self.steps:
            return 0.0
        return sum(step.n_tools_presented for step in self.steps) / len(self.steps)

    def to_dict(self) -> dict:
        """JSON-able form that round-trips **bitwise** through
        :meth:`from_dict`.

        Floats serialize via Python's shortest-repr JSON encoding, which
        decodes to the identical IEEE-754 value — so an episode sent over
        the HTTP edge compares equal to the in-process original (asserted
        by ``tests/test_serving_equivalence.py``).  The derived
        ``success`` / ``tool_accuracy`` metrics ride along for clients
        but are dropped on decode (they are properties, not state).
        """
        data = {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}
        data["steps"] = [step.to_dict() for step in self.steps]
        data["success"] = self.success
        data["tool_accuracy"] = self.tool_accuracy
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EpisodeResult":
        data = dict(data)
        data.pop("success", None)
        data.pop("tool_accuracy", None)
        data["steps"] = [StepRecord.from_dict(step)
                         for step in data.get("steps", [])]
        return cls(**data)
