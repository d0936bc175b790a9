"""Tests for the chat-template renderer and tool-call parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.chat import (
    ChatTranscript,
    ChatTurn,
    parse_tool_response,
    render_agent_prompt,
    render_recommender_prompt,
)
from repro.llm.tokens import AGENT_SYSTEM_TOKENS, plan_agent_prompt
from repro.tools import load_catalog
from repro.tools.schema import ToolCall


class TestTranscript:
    def test_invalid_role(self):
        with pytest.raises(ValueError):
            ChatTurn("narrator", "text")

    def test_render_contains_roles(self):
        transcript = ChatTranscript()
        transcript.add("system", "sys")
        transcript.add("user", "hello")
        rendered = transcript.render()
        assert "<|system|>" in rendered
        assert rendered.endswith("<|assistant|>\n")

    def test_prompt_tokens_positive(self):
        transcript = render_recommender_prompt("what's the weather in Paris")
        assert transcript.prompt_tokens > 40


class TestAgentPrompt:
    def test_contains_all_tool_names(self):
        tools = list(load_catalog("bfcl"))[:5]
        rendered = render_agent_prompt("do something", tools).render()
        for tool in tools:
            assert tool.name in rendered

    def test_history_appended(self):
        tools = list(load_catalog("bfcl"))[:2]
        call = ToolCall("get_current_weather", {"city": "Paris"})
        transcript = render_agent_prompt("task", tools, history=[(call, "ok: 18C")])
        rendered = transcript.render()
        assert "ok: 18C" in rendered
        assert "<|tool|>" in rendered

    def test_token_estimate_consistent_with_plan(self):
        # the engine's budget model is an upper envelope over the lean
        # concrete rendering (it reserves few-shot/pretty-print space):
        # rendered <= planned <= ~2.5x rendered
        tools = list(load_catalog("bfcl"))[:10]
        rendered = render_agent_prompt("what is the weather in Paris?", tools)
        plan = plan_agent_prompt("what is the weather in Paris?", tools, 16384)
        assert rendered.prompt_tokens <= plan.prompt_tokens
        assert plan.prompt_tokens <= 2.5 * rendered.prompt_tokens

    def test_error_prompt_mentions_fallback_contract(self):
        rendered = render_agent_prompt("t", list(load_catalog("bfcl"))[:1]).render()
        assert '"error"' in rendered  # the paper's failure-signal protocol


class TestParser:
    def test_well_formed_call(self):
        parsed = parse_tool_response('{"name": "t", "arguments": {"a": 1}}')
        assert parsed.call == ToolCall("t", {"a": 1})
        assert not parsed.is_error_signal

    def test_call_with_surrounding_chatter(self):
        text = 'Sure! Here is the call:\n{"name": "t", "arguments": {}}\nDone.'
        assert parse_tool_response(text).call is not None

    def test_error_signal(self):
        parsed = parse_tool_response('{"error": "no suitable tool"}')
        assert parsed.is_error_signal
        assert parsed.call is None

    def test_malformed_json(self):
        assert parse_tool_response('{"name": "t", "arguments":').malformed

    def test_no_json_at_all(self):
        assert parse_tool_response("I cannot help with that").malformed

    def test_non_dict_payload(self):
        assert parse_tool_response('["a", "b"]').malformed

    def test_bad_field_types(self):
        assert parse_tool_response('{"name": 3, "arguments": {}}').malformed
        assert parse_tool_response('{"name": "t", "arguments": []}').malformed

    def test_round_trip_with_renderers(self):
        call = ToolCall("lock_door", {"door": "front"})
        assert parse_tool_response(call.to_json()).call == call
        assert parse_tool_response('{"error": "stuck"}').is_error_signal

    @given(st.text(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_parser_never_raises(self, text):
        parsed = parse_tool_response(text)
        assert parsed.malformed or parsed.call is not None or parsed.is_error_signal
