"""Latency/energy model for one LLM invocation on the edge device."""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.device import JETSON_AGX_ORIN, DeviceProfile
from repro.hardware.memory import kv_cache_gb, model_weights_gb
from repro.utils.rng import derive_rng

#: Reference model size for the prefill-throughput constant.
_REF_PARAMS_B = 8.0
_REF_BITS = 4.85  # q4_K_M


@dataclass(frozen=True)
class InferenceRequest:
    """One LLM call to be costed.

    ``kv_cached_tokens`` is the prompt prefix already resident in the KV
    cache from a previous turn (multi-step agents re-use the system/tool
    prefix, as Ollama does between chained calls).
    """

    params_b: float
    bits_per_weight: float
    prompt_tokens: int
    generated_tokens: int
    context_window: int
    kv_cached_tokens: int = 0
    jitter_stream: str = ""

    def __post_init__(self):
        if self.params_b <= 0 or self.bits_per_weight <= 0:
            raise ValueError("params_b and bits_per_weight must be positive")
        if self.prompt_tokens < 0 or self.generated_tokens < 0:
            raise ValueError("token counts must be >= 0")
        if self.context_window <= 0:
            raise ValueError("context_window must be positive")
        if not 0 <= self.kv_cached_tokens <= self.prompt_tokens:
            raise ValueError("kv_cached_tokens must be within [0, prompt_tokens]")


@dataclass(frozen=True)
class InferenceTrace:
    """Costed result of one LLM call."""

    prefill_s: float
    decode_s: float
    energy_j: float
    peak_memory_gb: float

    @property
    def total_s(self) -> float:
        return self.prefill_s + self.decode_s

    @property
    def avg_power_w(self) -> float:
        if self.total_s == 0.0:
            return 0.0
        return self.energy_j / self.total_s


def simulate_inference(request: InferenceRequest,
                       device: DeviceProfile = JETSON_AGX_ORIN) -> InferenceTrace:
    """Cost one LLM call with the analytic edge model.

    Deterministic: the +-3% execution jitter is seeded from
    ``request.jitter_stream``.
    """
    live_ctx = min(request.prompt_tokens + request.generated_tokens,
                   request.context_window)
    window_factor = 1.0 + device.window_slowdown * (request.context_window / 32768.0)

    # ----- prefill: compute-bound ------------------------------------
    new_prompt_tokens = request.prompt_tokens - request.kv_cached_tokens
    prefill_rate = device.prefill_tokens_per_s_8b * (_REF_PARAMS_B / request.params_b)
    prefill_rate /= 1.0 + device.ctx_prefill_slowdown * (live_ctx / 8192.0)
    prefill_rate /= window_factor
    prefill_s = new_prompt_tokens / prefill_rate if new_prompt_tokens else 0.0

    # ----- decode: bandwidth-bound ------------------------------------
    weights_gb = model_weights_gb(request.params_b, request.bits_per_weight)
    decode_rate = device.membw_gbs * device.decode_efficiency / weights_gb
    decode_rate /= 1.0 + device.ctx_decode_slowdown * (live_ctx / 8192.0)
    decode_rate /= window_factor
    decode_s = request.generated_tokens / decode_rate if request.generated_tokens else 0.0

    # ----- deterministic execution jitter ------------------------------
    rng = derive_rng("hw-jitter", request.jitter_stream)
    scale = float(1.0 + 0.03 * rng.standard_normal())
    prefill_s *= max(scale, 0.9)
    decode_s *= max(scale, 0.9)

    # ----- energy -------------------------------------------------------
    window_power = device.window_power_w * (request.context_window / 32768.0)
    total_s = prefill_s + decode_s
    energy_j = (
        device.idle_power_w * total_s
        + (device.prefill_power_w + window_power) * prefill_s
        + (device.decode_power_w + window_power) * decode_s
    )

    peak_memory = weights_gb + kv_cache_gb(request.context_window, request.params_b)
    return InferenceTrace(
        prefill_s=prefill_s,
        decode_s=decode_s,
        energy_j=energy_j,
        peak_memory_gb=peak_memory,
    )
