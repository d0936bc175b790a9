"""Tests for repro.llm.registry and repro.llm.tokens."""

import pytest

from repro.llm.registry import (
    MODEL_REGISTRY,
    QUANT_REGISTRY,
    get_model_spec,
    get_quant_spec,
)
from repro.llm.tokens import (
    context_pressure,
    estimate_tokens,
    plan_agent_prompt,
    tool_prompt_tokens,
)
from repro.tools import load_catalog


class TestRegistries:
    def test_paper_models_present(self):
        expected = {"hermes2-pro-8b", "llama3.1-8b", "mistral-8b",
                    "phi3-8b", "qwen2-1.5b", "qwen2-7b"}
        assert expected == set(MODEL_REGISTRY)

    def test_paper_quants_present(self):
        assert {"full", "q4_0", "q4_1", "q4_K_M", "q8_0"} == set(QUANT_REGISTRY)

    def test_lookup_case_insensitive_models(self):
        assert get_model_spec("Llama3.1-8B").name == "llama3.1-8b"

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            get_model_spec("gpt-4")

    def test_unknown_quant(self):
        with pytest.raises(ValueError):
            get_quant_spec("q2_K")

    def test_bits_ladder(self):
        assert (QUANT_REGISTRY["q4_0"].bits_per_weight
                < QUANT_REGISTRY["q8_0"].bits_per_weight
                < QUANT_REGISTRY["full"].bits_per_weight)

    def test_reasoning_retention_monotone_in_bits(self):
        # reasoning quality is monotone in precision...
        assert (QUANT_REGISTRY["q4_0"].reasoning_retention
                < QUANT_REGISTRY["q4_K_M"].reasoning_retention
                <= QUANT_REGISTRY["q8_0"].reasoning_retention
                < QUANT_REGISTRY["full"].reasoning_retention)

    def test_long_context_retention_not_monotone(self):
        # ...but long-context retention is not (paper Table I GeoEngine:
        # q4_1 > q4_K_M > q8_0)
        assert (QUANT_REGISTRY["q4_1"].long_context_retention
                > QUANT_REGISTRY["q4_K_M"].long_context_retention
                > QUANT_REGISTRY["q8_0"].long_context_retention)

    def test_skills_in_unit_interval(self):
        for spec in MODEL_REGISTRY.values():
            for value in (spec.fc_skill, spec.arg_skill, spec.reasoning, spec.seq_skill):
                assert 0.0 < value <= 1.0, spec.name


class TestTokenEstimation:
    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_four_chars_per_token(self):
        assert estimate_tokens("a" * 40) == 10

    def test_rounds_up(self):
        assert estimate_tokens("abc") == 1

    def test_tool_prompt_tokens_reasonable(self):
        for tool in load_catalog("bfcl"):
            tokens = tool_prompt_tokens(tool)
            assert 40 <= tokens <= 250, tool.name


class TestPromptPlan:
    @pytest.fixture(scope="class")
    def tools(self):
        return list(load_catalog("bfcl"))

    def test_all_51_tools_fit_16k(self, tools):
        plan = plan_agent_prompt("What is the weather in Paris?", tools, 16384)
        assert len(plan.tools_included) == 51
        assert plan.tools_truncated == ()

    def test_51_tools_overflow_4k(self, tools):
        plan = plan_agent_prompt("What is the weather in Paris?", tools, 4096)
        assert plan.tools_truncated
        assert len(plan.tools_included) < 51

    def test_prompt_tokens_additive(self, tools):
        plan = plan_agent_prompt("query", tools[:5], 8192)
        assert plan.prompt_tokens == (plan.system_tokens + plan.tool_tokens
                                      + plan.query_tokens + plan.history_tokens)

    def test_history_grows_with_steps(self, tools):
        first = plan_agent_prompt("q", tools[:5], 8192, step_index=0)
        third = plan_agent_prompt("q", tools[:5], 8192, step_index=2)
        assert third.history_tokens > first.history_tokens

    def test_truncation_is_suffix(self, tools):
        plan = plan_agent_prompt("q", tools, 4096)
        included_names = [tool.name for tool in tools[:len(plan.tools_included)]]
        assert list(plan.tools_included) == included_names


class TestContextPressure:
    def test_half(self):
        assert context_pressure(4096, 8192) == 0.5

    def test_clipped_at_one(self):
        assert context_pressure(99999, 8192) == 1.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            context_pressure(10, 0)
