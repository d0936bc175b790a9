"""Edge-device substrate: analytic NVIDIA Jetson AGX Orin model.

The paper measures execution time and power of LLM inference on a Jetson
AGX Orin.  This package replaces the physical board with a first-order
analytic model of on-device transformer inference:

* **prefill** is compute-bound — throughput scales inversely with model
  size and degrades with live context length (attention cost);
* **decode** is memory-bandwidth-bound — tokens/s is the effective
  bandwidth divided by the quantized model footprint;
* **power** integrates idle, prefill (high utilisation) and decode
  (bandwidth-bound, lower utilisation) phases, plus a context-window
  memory-pressure term;
* **memory** accounts for quantized weights and the fp16 KV cache.

Constants are calibrated against the paper's Table II anchor points
(Llama3.1-8b-q4_K_M: 16K/46 tools ≈ 30 s / 27 W → 8K/19 tools ≈ 17 s /
22 W); see ``tests/test_hardware_calibration.py``.
"""

from repro.hardware.device import JETSON_AGX_ORIN, DeviceProfile
from repro.hardware.inference import InferenceRequest, InferenceTrace, simulate_inference
from repro.hardware.measurement import MeasurementSession
from repro.hardware.memory import kv_cache_gb, model_weights_gb
from repro.hardware.power_modes import POWER_MODES, PowerMode, apply_power_mode, orin_in_mode

__all__ = [
    "JETSON_AGX_ORIN",
    "POWER_MODES",
    "DeviceProfile",
    "InferenceRequest",
    "InferenceTrace",
    "MeasurementSession",
    "PowerMode",
    "apply_power_mode",
    "kv_cache_gb",
    "model_weights_gb",
    "orin_in_mode",
    "simulate_inference",
]
