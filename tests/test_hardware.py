"""Tests for repro.hardware: device model, memory, sessions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import (
    JETSON_AGX_ORIN,
    InferenceRequest,
    InferenceTrace,
    MeasurementSession,
    kv_cache_gb,
    model_weights_gb,
    simulate_inference,
)
from repro.hardware.memory import fits_on_device, footprint_gb


def request(**overrides) -> InferenceRequest:
    base = dict(params_b=8.0, bits_per_weight=4.85, prompt_tokens=2000,
                generated_tokens=150, context_window=8192)
    base.update(overrides)
    return InferenceRequest(**base)


class TestMemoryModel:
    def test_8b_q4_weights_around_5gb(self):
        gb = model_weights_gb(8.0, 4.85)
        assert 4.5 <= gb <= 6.0

    def test_full_precision_doubles_q8(self):
        assert model_weights_gb(8.0, 16.0) == pytest.approx(
            2.0 * model_weights_gb(8.0, 8.0))

    def test_kv_cache_16k_about_2gb(self):
        assert 1.8 <= kv_cache_gb(16384, 8.0) <= 2.6

    def test_kv_scales_with_model_size(self):
        assert kv_cache_gb(8192, 1.5) < kv_cache_gb(8192, 8.0)

    def test_footprint_parallel_contexts(self):
        single = footprint_gb(8.0, 4.85, 16384, n_parallel_contexts=1)
        tree = footprint_gb(8.0, 4.85, 16384, n_parallel_contexts=12)
        assert tree > single
        assert fits_on_device(single, JETSON_AGX_ORIN.memory_gb)
        assert not fits_on_device(tree + 10, JETSON_AGX_ORIN.memory_gb)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            model_weights_gb(0.0, 4.0)
        with pytest.raises(ValueError):
            model_weights_gb(8.0, 0.0)
        with pytest.raises(ValueError):
            kv_cache_gb(-1)
        with pytest.raises(ValueError):
            footprint_gb(8.0, 4.0, 8192, n_parallel_contexts=0)
        for field in ("params_b", "bits_per_weight"):
            for value in (0.0, -1.0):
                with pytest.raises(ValueError, match="must be positive"):
                    request(**{field: value})


class TestInferenceRequestValidation:
    def test_negative_tokens(self):
        with pytest.raises(ValueError):
            request(prompt_tokens=-1)

    def test_zero_window(self):
        with pytest.raises(ValueError):
            request(context_window=0)

    def test_kv_cached_bounds(self):
        with pytest.raises(ValueError):
            request(kv_cached_tokens=99999)


class TestSimulateInference:
    def test_deterministic(self):
        a = simulate_inference(request(jitter_stream="x"))
        b = simulate_inference(request(jitter_stream="x"))
        assert a == b

    def test_jitter_stream_changes_result(self):
        a = simulate_inference(request(jitter_stream="x"))
        b = simulate_inference(request(jitter_stream="y"))
        assert a.total_s != b.total_s

    def test_more_prompt_tokens_slower(self):
        fast = simulate_inference(request(prompt_tokens=500))
        slow = simulate_inference(request(prompt_tokens=6000))
        assert slow.prefill_s > fast.prefill_s

    def test_kv_cache_reuse_cuts_prefill(self):
        cold = simulate_inference(request(prompt_tokens=4000))
        warm = simulate_inference(request(prompt_tokens=4000, kv_cached_tokens=3800))
        assert warm.prefill_s < cold.prefill_s * 0.2

    def test_larger_window_slower_and_hungrier(self):
        small = simulate_inference(request(context_window=8192))
        large = simulate_inference(request(context_window=16384))
        assert large.total_s > small.total_s
        assert large.peak_memory_gb > small.peak_memory_gb

    def test_smaller_model_decodes_faster(self):
        big = simulate_inference(request())
        small = simulate_inference(request(params_b=1.5))
        assert small.decode_s < big.decode_s

    def test_quantized_decodes_faster_than_q8(self):
        q4 = simulate_inference(request(bits_per_weight=4.5))
        q8 = simulate_inference(request(bits_per_weight=8.5))
        assert q4.decode_s < q8.decode_s

    def test_avg_power_between_idle_and_peak(self):
        trace = simulate_inference(request())
        device = JETSON_AGX_ORIN
        peak = device.idle_power_w + device.prefill_power_w + device.window_power_w + 1
        assert device.idle_power_w < trace.avg_power_w < peak

    def test_zero_generation(self):
        trace = simulate_inference(request(generated_tokens=0))
        assert trace.decode_s == 0.0

    @given(st.integers(100, 8000), st.integers(1, 400))
    @settings(max_examples=30, deadline=None)
    def test_times_positive_and_finite(self, prompt, gen):
        trace = simulate_inference(request(prompt_tokens=prompt, generated_tokens=gen))
        assert trace.prefill_s > 0
        assert trace.decode_s > 0
        assert trace.energy_j > 0


class TestMeasurementSession:
    def test_aggregates(self):
        session = MeasurementSession()
        session.add_trace(simulate_inference(request()))
        session.add_trace(simulate_inference(request(prompt_tokens=300)))
        session.add_api_latency(0.4)
        session.add_overhead(0.05)
        assert session.total_time_s == pytest.approx(
            session.llm_time_s + 0.45)
        assert session.energy_j > 0
        assert session.avg_power_w > JETSON_AGX_ORIN.idle_power_w * 0.9

    def test_empty_session(self):
        session = MeasurementSession()
        assert session.total_time_s == 0.0
        assert session.avg_power_w == 0.0
        assert session.peak_memory_gb == 0.0

    def test_api_time_draws_idle_power(self):
        busy = MeasurementSession()
        busy.add_trace(simulate_inference(request()))
        waiting = MeasurementSession()
        waiting.add_trace(simulate_inference(request()))
        waiting.add_api_latency(5.0)
        assert waiting.avg_power_w < busy.avg_power_w

    def test_negative_latency_rejected(self):
        session = MeasurementSession()
        with pytest.raises(ValueError):
            session.add_api_latency(-1.0)
        with pytest.raises(ValueError):
            session.add_overhead(-0.1)


class TestTraceProperties:
    def test_total_and_power(self):
        trace = InferenceTrace(prefill_s=2.0, decode_s=3.0, energy_j=100.0,
                               peak_memory_gb=5.0)
        assert trace.total_s == 5.0
        assert trace.avg_power_w == 20.0

    def test_zero_time_power(self):
        trace = InferenceTrace(0.0, 0.0, 0.0, 0.0)
        assert trace.avg_power_w == 0.0
