"""The engine boundary: registry, specs, failure modes, pickling.

Unit-level coverage of :mod:`repro.engines` — everything that must hold
*without* a live backend: the ``ENGINES`` registry contract, EngineSpec
validation and serialization, the ``openai_http`` retry/backoff loop
against a stubbed transport, protocol-error classification (dialect
mismatches never retry), and pickle round-trips of every engine-bearing
spec (the process-pool boundary re-resolves engines by name from plain
data).
"""

from __future__ import annotations

import http.client
import json
import pickle
from dataclasses import dataclass, field

import pytest

from repro.engines import (
    ChatEngineLLM,
    EngineError,
    EngineProtocolError,
    EngineReply,
    OpenAIHttpEngine,
    build_engine_llm,
)
from repro.engines.testing import tool_call_message
from repro.llm.engine import SimulatedLLM
from repro.registry import ENGINES, register_engine
from repro.specs import AgentSpec, EngineSpec, ServingSpec, TenantSpec
from repro.suites import load_suite
from repro.tools.schema import ToolCall, ToolSpec

MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"


@dataclass
class EngineHarness:
    """A scripted engine: replays canned replies, records every call."""

    replies: list[EngineReply] = field(default_factory=list)
    calls: list[tuple[list[dict], tuple[str, ...]]] = field(default_factory=list)

    def generate(self, messages: list[dict],
                 tools: list[ToolSpec]) -> EngineReply:
        self.calls.append((messages, tuple(tool.name for tool in tools)))
        if not self.replies:
            return EngineReply(text="{}")
        return self.replies.pop(0)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestEngineRegistry:
    def test_builtins_registered(self):
        assert "simulated" in ENGINES
        assert "openai_http" in ENGINES

    def test_unknown_engine_error_lists_registered(self):
        with pytest.raises(ValueError, match="simulated") as excinfo:
            ENGINES.get("llama_cpp_grpc")
        assert "openai_http" in str(excinfo.value)
        assert "llama_cpp_grpc" in str(excinfo.value)

    def test_unknown_engine_spec_lists_registered(self):
        with pytest.raises(ValueError, match="openai_http"):
            EngineSpec(name="definitely-not-an-engine")

    def test_simulated_factory_returns_simulated_llm(self):
        llm = build_engine_llm(EngineSpec(), MODEL, QUANT)
        assert isinstance(llm, SimulatedLLM)
        # same construction path as the engine-less default — the
        # bitwise-equivalence guarantee is structural, not incidental
        direct = SimulatedLLM.from_registry(MODEL, QUANT)
        assert llm.model is direct.model
        assert llm.quant is direct.quant

    def test_build_engine_llm_accepts_none_and_str(self):
        assert isinstance(build_engine_llm(None, MODEL, QUANT), SimulatedLLM)
        assert isinstance(build_engine_llm("simulated", MODEL, QUANT),
                          SimulatedLLM)

    def test_register_engine_plugin_roundtrip(self):
        @register_engine("unit-test-engine")
        def build(spec, model, quant):
            return ("built", spec.name, model, quant)

        try:
            llm = build_engine_llm(EngineSpec("unit-test-engine"),
                                   MODEL, QUANT)
            assert llm == ("built", "unit-test-engine", MODEL, QUANT)
        finally:
            ENGINES.unregister("unit-test-engine")


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
class TestEngineSpec:
    def test_openai_http_requires_base_url(self):
        with pytest.raises(ValueError, match="base_url"):
            EngineSpec(name="openai_http")

    def test_dict_roundtrip(self):
        spec = EngineSpec(name="openai_http", base_url="http://127.0.0.1:1/v1",
                          wire_model="qwen2.5-3b", api_key="sk-x",
                          timeout_s=5.0, retries=4, max_tokens=128)
        assert EngineSpec.from_dict(spec.to_dict()) == spec

    def test_agent_spec_coerces_engine_dict_and_str(self):
        by_dict = AgentSpec(engine={"name": "simulated"})
        by_str = AgentSpec(engine="simulated")
        assert by_dict.engine == by_str.engine == EngineSpec("simulated")

    def test_engine_absent_from_agent_kwargs(self):
        # the engine threads through SchemeContext, not the scheme factory
        spec = AgentSpec(engine=EngineSpec())
        assert "engine" not in spec.agent_kwargs()

    @pytest.mark.parametrize("build", [
        lambda e: AgentSpec(engine=e),
        lambda e: TenantSpec(name="t", suite="edgehome", engine=e),
        lambda e: ServingSpec(default_engine=e),
    ])
    def test_engine_bearing_specs_pickle_roundtrip(self, build):
        engine = EngineSpec(name="openai_http",
                            base_url="http://127.0.0.1:9999/v1",
                            retries=3)
        spec = build(engine)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.engine == engine if hasattr(clone, "engine") \
            else clone.default_engine == engine

    def test_serving_spec_dict_roundtrip_with_engines(self):
        spec = ServingSpec(
            tenants=(TenantSpec(name="t", suite="edgehome",
                                engine=EngineSpec("simulated")),),
            default_engine=EngineSpec(
                name="openai_http", base_url="http://127.0.0.1:9999/v1"))
        clone = ServingSpec.from_dict(spec.to_dict())
        assert clone == spec


# ----------------------------------------------------------------------
# transport failure modes (stubbed _post — no sockets, no sleeps)
# ----------------------------------------------------------------------
class _Response:
    def __init__(self, status: int, body):
        self.status = status
        self._body = body

    @property
    def text(self) -> str:
        return self._body if isinstance(self._body, str) \
            else json.dumps(self._body)

    def json(self):
        if isinstance(self._body, str):
            return json.loads(self._body)
        return self._body


def _engine(retries: int = 2, backoff_ms: float = 40.0) -> OpenAIHttpEngine:
    spec = EngineSpec(name="openai_http", base_url="http://127.0.0.1:1/v1",
                      timeout_s=0.5, retries=retries,
                      retry_backoff_ms=backoff_ms)
    engine = OpenAIHttpEngine(spec, wire_model="m")
    engine._sleep = lambda s: engine.sleeps.append(s)
    engine.sleeps = []
    return engine


def _completion(message: dict) -> dict:
    return {"choices": [{"index": 0, "message": message,
                         "finish_reason": "stop"}],
            "usage": {"prompt_tokens": 10, "completion_tokens": 5}}


class TestRetryLoop:
    def test_timeout_retries_then_actionable_error(self):
        engine = _engine(retries=2, backoff_ms=40.0)
        attempts = []

        def post(payload):
            attempts.append(payload)
            raise TimeoutError("timed out")

        engine._post = post
        with pytest.raises(EngineError) as excinfo:
            engine.generate([{"role": "user", "content": "hi"}], tools=[])
        message = str(excinfo.value)
        # actionable: endpoint, attempt budget, the knobs to turn, and
        # the underlying cause all in one line
        assert engine.endpoint in message
        assert "3 attempt(s)" in message
        assert "timeout_s=0.5" in message
        assert "retries=2" in message
        assert "TimeoutError" in message
        assert len(attempts) == 3
        # exponential backoff between attempts: 40ms then 80ms
        assert engine.sleeps == [0.04, 0.08]

    def test_retryable_status_then_success(self):
        engine = _engine(retries=2)
        responses = [_Response(503, {"error": "warming up"}),
                     _Response(200, _completion(tool_call_message(
                         "turn_on_light", {"room": "kitchen"})))]
        engine._post = lambda payload: responses.pop(0)
        reply = engine.generate([{"role": "user", "content": "hi"}], tools=[])
        assert reply.tool_calls == (
            ToolCall("turn_on_light", {"room": "kitchen"}),)
        assert engine.sleeps == [0.04]  # one backoff before the retry

    def test_non_retryable_4xx_fails_fast(self):
        engine = _engine(retries=5)
        calls = []

        def post(payload):
            calls.append(payload)
            return _Response(404, {"error": "no such model"})

        engine._post = post
        with pytest.raises(EngineError, match="HTTP 404"):
            engine.generate([{"role": "user", "content": "hi"}], tools=[])
        assert len(calls) == 1  # no retry budget spent on a client bug
        assert engine.sleeps == []

    def test_torn_response_is_retried(self):
        engine = _engine(retries=1)

        def post(payload):
            raise http.client.BadStatusLine("garbage")

        engine._post = post
        with pytest.raises(EngineError, match="BadStatusLine"):
            engine.generate([], tools=[])


class TestProtocolErrors:
    def test_non_json_200_body(self):
        engine = _engine()
        engine._post = lambda payload: _Response(200, "<html>not json</html>")
        with pytest.raises(EngineProtocolError, match="non-JSON 200"):
            engine.generate([], tools=[])
        assert engine.sleeps == []  # dialect mismatches never retry

    def test_missing_choices(self):
        engine = _engine()
        engine._post = lambda payload: _Response(200, {"result": "ok"})
        with pytest.raises(EngineProtocolError, match="choices"):
            engine.generate([], tools=[])

    def test_malformed_tool_call_arguments(self):
        engine = _engine()
        message = tool_call_message("turn_on_light", {},
                                    malformed_arguments=True)
        engine._post = lambda payload: _Response(200, _completion(message))
        with pytest.raises(EngineProtocolError, match="not valid JSON"):
            engine.generate([], tools=[])

    def test_malformed_tool_call_entry(self):
        engine = _engine()
        message = {"role": "assistant", "content": None,
                   "tool_calls": [{"function": {"arguments": "{}"}}]}
        engine._post = lambda payload: _Response(200, _completion(message))
        with pytest.raises(EngineProtocolError, match="malformed tool_calls"):
            engine.generate([], tools=[])

    def test_dict_arguments_accepted(self):
        # some shims (Ollama) send decoded dicts instead of JSON strings
        engine = _engine()
        message = {"role": "assistant", "content": None,
                   "tool_calls": [{"function": {
                       "name": "set_timer",
                       "arguments": {"minutes": 5}}}]}
        engine._post = lambda payload: _Response(200, _completion(message))
        reply = engine.generate([], tools=[])
        assert reply.tool_calls == (ToolCall("set_timer", {"minutes": 5}),)

    def test_base_url_must_be_plain_http_with_host(self):
        with pytest.raises(ValueError, match="plain http"):
            OpenAIHttpEngine(EngineSpec(name="openai_http",
                                        base_url="https://api.example/v1"))
        with pytest.raises(ValueError, match="host"):
            OpenAIHttpEngine(EngineSpec(name="openai_http", base_url="/v1"))


# ----------------------------------------------------------------------
# the agent-facing adapter over a scripted engine
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def suite():
    return load_suite("edgehome", n_queries=4)


def _adapter(*replies: EngineReply) -> ChatEngineLLM:
    spec = EngineSpec(name="openai_http", base_url="http://127.0.0.1:1/v1")
    harness = EngineHarness(replies=list(replies))
    return ChatEngineLLM(spec, MODEL, QUANT, engine=harness)


class TestChatEngineLLM:
    def test_execute_step_scores_against_gold(self, suite):
        query = suite.queries[0]
        gold = query.gold_calls[0]
        llm = _adapter(EngineReply(tool_calls=(gold,)))
        turn = llm.execute_step(query, 0, list(suite.catalog), 16384)
        assert turn.call == gold
        assert turn.correct_tool
        assert not turn.signalled_error
        assert turn.tools_seen == tuple(t.name for t in suite.catalog)

    def test_no_parseable_call_signals_error(self, suite):
        llm = _adapter(EngineReply(text="I cannot help with that."))
        turn = llm.execute_step(suite.queries[0], 0,
                                list(suite.catalog), 16384)
        assert turn.call is None
        assert turn.signalled_error

    def test_error_signal_passthrough(self, suite):
        llm = _adapter(EngineReply(error_signal="tool not found"))
        turn = llm.execute_step(suite.queries[0], 0,
                                list(suite.catalog), 16384)
        assert turn.call is None
        assert turn.signalled_error

    def test_usage_estimated_when_backend_omits_it(self, suite):
        llm = _adapter(EngineReply(text="chatter",
                                   tool_calls=(ToolCall("pause_media", {}),)))
        turn = llm.execute_step(suite.queries[0], 0,
                                list(suite.catalog), 16384)
        assert turn.usage.prompt_tokens > 0

    def test_requires_presented_tools(self, suite):
        llm = _adapter()
        with pytest.raises(ValueError, match="at least one tool"):
            llm.execute_step(suite.queries[0], 0, [], 16384)

    def test_recommend_tools_parses_json_list(self, suite):
        llm = _adapter(EngineReply(text='["turn lights on", "set a timer"]'))
        output = llm.recommend_tools(suite.queries[0])
        assert output.descriptions == ("turn lights on", "set a timer")

    def test_recommend_tools_tolerates_prose(self, suite):
        llm = _adapter(EngineReply(text="- turn lights on\n- set a timer\n"))
        output = llm.recommend_tools(suite.queries[0])
        assert output.descriptions == ("turn lights on", "set a timer")

    def test_adapter_pickles_without_live_state(self):
        spec = EngineSpec(name="openai_http",
                          base_url="http://127.0.0.1:1/v1")
        llm = ChatEngineLLM(spec, MODEL, QUANT)
        clone = pickle.loads(pickle.dumps(llm))
        assert clone.name == llm.name
        assert clone.engine.endpoint == llm.engine.endpoint
