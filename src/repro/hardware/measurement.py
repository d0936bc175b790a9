"""Aggregation of per-call traces into episode-level measurements."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.device import JETSON_AGX_ORIN, DeviceProfile
from repro.hardware.inference import InferenceTrace


@dataclass
class MeasurementSession:
    """Accumulates LLM traces and API latencies for one agent episode.

    The paper reports per-query execution time and *average* power; the
    session integrates energy over LLM phases and treats API wait time as
    idle-power time (the board idles while the remote/tool call runs).
    """

    device: DeviceProfile = field(default_factory=lambda: JETSON_AGX_ORIN)
    traces: list[InferenceTrace] = field(default_factory=list)
    api_latency_s: float = 0.0
    overhead_s: float = 0.0

    def add_trace(self, trace: InferenceTrace) -> None:
        """Record one costed LLM call."""
        self.traces.append(trace)

    def add_api_latency(self, seconds: float) -> None:
        """Record simulated tool/API wait time."""
        if seconds < 0:
            raise ValueError("latency must be >= 0")
        self.api_latency_s += seconds

    def add_overhead(self, seconds: float) -> None:
        """Record host-side overhead (embedding, k-NN search, ...)."""
        if seconds < 0:
            raise ValueError("overhead must be >= 0")
        self.overhead_s += seconds

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def llm_time_s(self) -> float:
        return sum(trace.total_s for trace in self.traces)

    @property
    def total_time_s(self) -> float:
        return self.llm_time_s + self.api_latency_s + self.overhead_s

    @property
    def energy_j(self) -> float:
        llm_energy = sum(trace.energy_j for trace in self.traces)
        waiting = (self.api_latency_s + self.overhead_s) * self.device.idle_power_w
        return llm_energy + waiting

    @property
    def avg_power_w(self) -> float:
        if self.total_time_s == 0.0:
            return 0.0
        return self.energy_j / self.total_time_s

    @property
    def peak_memory_gb(self) -> float:
        return max((trace.peak_memory_gb for trace in self.traces), default=0.0)
