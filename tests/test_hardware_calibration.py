"""Calibration pins against the paper's Table II anchor points.

These are the only tests allowed to encode absolute target numbers: they
keep future refactors of the device model honest about the anchor the
whole reproduction is normalised to (Llama3.1-8b-q4_K_M on the AGX Orin).
"""

import pytest

from repro.hardware import InferenceRequest, simulate_inference
from repro.llm import get_quant_spec
from repro.llm.tokens import AGENT_SYSTEM_TOKENS, tool_prompt_tokens
from repro.tools import load_catalog


def geo_prompt_tokens(n_tools: int) -> int:
    tools = list(load_catalog("geoengine"))[:n_tools]
    return AGENT_SYSTEM_TOKENS + sum(tool_prompt_tokens(t) for t in tools) + 40


def trace_for(n_tools: int, window: int, output_tokens: int = 130):
    quant = get_quant_spec("q4_K_M")
    return simulate_inference(InferenceRequest(
        params_b=8.0,
        bits_per_weight=quant.bits_per_weight,
        prompt_tokens=geo_prompt_tokens(n_tools),
        generated_tokens=output_tokens,
        context_window=window,
        jitter_stream=f"cal-{n_tools}-{window}",
    ))


class TestTableIIAnchors:
    """Single-call scale checks; the full multi-call episode is checked
    end-to-end by benchmarks/bench_table2.py."""

    def test_full_pool_16k_call_duration_scale(self):
        # the 46-tool 16K episode costs ~30 s end-to-end in the paper;
        # the first (cold) turn of the chain must be 8-28 s, with later
        # turns far cheaper thanks to KV reuse
        trace = trace_for(46, 16384)
        assert 8.0 <= trace.total_s <= 28.0

    def test_full_pool_16k_power_scale(self):
        trace = trace_for(46, 16384)
        assert 24.0 <= trace.avg_power_w <= 31.0  # paper: 27 W

    def test_reduced_pool_8k_power_scale(self):
        trace = trace_for(19, 8192)
        assert 19.0 <= trace.avg_power_w <= 26.0  # paper: 22 W

    def test_time_ordering_matches_table(self):
        t_46_16 = trace_for(46, 16384).total_s
        t_19_16 = trace_for(19, 16384).total_s
        t_19_8 = trace_for(19, 8192).total_s
        assert t_46_16 > t_19_16 > t_19_8

    def test_window_only_drop_fraction(self):
        # paper: (16K,19) 20s -> (8K,19) 17s, a ~15% drop from the window
        t_19_16 = trace_for(19, 16384).total_s
        t_19_8 = trace_for(19, 8192).total_s
        drop = 1.0 - t_19_8 / t_19_16
        assert 0.05 <= drop <= 0.30

    def test_decode_rate_in_orin_band(self):
        # 8B q4 on the Orin decodes ~10-25 tok/s in practice
        trace = trace_for(19, 8192, output_tokens=100)
        rate = 100 / trace.decode_s
        assert 8.0 <= rate <= 30.0

    def test_memory_fits_the_board(self):
        trace = trace_for(46, 16384)
        assert trace.peak_memory_gb < 30.0


class TestBfclWindowRequirement:
    def test_51_tools_need_16k(self):
        # the paper runs default agents at 16K because the pool fits there
        from repro.llm.tokens import plan_agent_prompt

        tools = list(load_catalog("bfcl"))
        assert plan_agent_prompt("q", tools, 16384).tools_truncated == ()
        assert plan_agent_prompt("q", tools, 8192).tools_truncated != ()
