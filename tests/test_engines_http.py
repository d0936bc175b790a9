"""The ``openai_http`` engine against a live (in-process) mock backend.

Socket-level integration: :class:`MockOpenAIServer` hosts a scripted
OpenAI-compatible endpoint on an ephemeral localhost port, and the
adapter talks to it over real HTTP — wire payload shape, native and
fenced tool-call extraction, injected-failure retries, Bearer auth, a
full Session run, and the CLI entrypoint.  No network beyond loopback,
nothing beyond the stdlib.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cli import main as cli_main
from repro.engines import EngineError, OpenAIHttpEngine, openai_http
from repro.engines.testing import (
    MockOpenAIApp,
    MockOpenAIServer,
    content_message,
    tool_call_message,
)
from repro.session import open_session
from repro.specs import AgentSpec, EngineSpec, ServingSpec, SuiteSpec, \
    TenantSpec
from repro.suites import load_suite
from repro.tools.schema import ToolCall

MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"


@pytest.fixture(autouse=True)
def _fast_engine(monkeypatch):
    """Every engine here gives a silent socket 10 s and backs off 1 ms
    between its (two) retries."""
    monkeypatch.setattr(openai_http, "TIMEOUT_S", 10.0)
    monkeypatch.setattr(openai_http, "RETRIES", 2)
    monkeypatch.setattr(openai_http, "RETRY_BACKOFF_MS", 1.0)


def _spec(base_url: str, **overrides) -> EngineSpec:
    return EngineSpec(name="openai_http", base_url=base_url, **overrides)


def fenced_call_message(name: str, arguments: dict) -> dict:
    """A content-only reply embedding the call as JSON in prose."""
    body = json.dumps({"name": name, "arguments": arguments}, sort_keys=True)
    return content_message(f"Sure — calling the tool now:\n{body}\nDone.")


def _quiet(engine: OpenAIHttpEngine) -> OpenAIHttpEngine:
    engine._sleep = lambda seconds: None
    return engine


# ----------------------------------------------------------------------
# wire format + extraction
# ----------------------------------------------------------------------
class TestWireFormat:
    def test_payload_shape_and_native_extraction(self):
        suite = load_suite("edgehome", n_queries=2)
        tools = list(suite.catalog)[:3]
        app = MockOpenAIApp(reply_fn=lambda payload: tool_call_message(
            payload["tools"][0]["function"]["name"], {"room": "kitchen"}))
        with MockOpenAIServer(app) as server:
            engine = OpenAIHttpEngine(_spec(server.base_url),
                                      wire_model="qwen2.5-3b")
            reply = engine.generate(
                [{"role": "user", "content": "lights please"}], tools=tools)

        assert reply.tool_calls == (
            ToolCall(tools[0].name, {"room": "kitchen"}),)
        assert reply.finish_reason == "tool_calls"
        assert reply.usage is not None and reply.usage.completion_tokens == 32
        payload = app.requests[0]
        assert payload["model"] == "qwen2.5-3b"
        assert payload["messages"] == [
            {"role": "user", "content": "lights please"}]
        assert payload["tool_choice"] == "auto"
        assert [t["function"]["name"] for t in payload["tools"]] == [
            tool.name for tool in tools]
        # every advertised tool crosses the wire as a function schema
        assert all(t["type"] == "function" for t in payload["tools"])

    def test_fenced_json_fallback_extraction(self):
        app = MockOpenAIApp(reply_fn=lambda payload: fenced_call_message(
            "set_thermostat", {"temp_c": 21}))
        with MockOpenAIServer(app) as server:
            engine = OpenAIHttpEngine(_spec(server.base_url))
            reply = engine.generate(
                [{"role": "user", "content": "warm it up"}], tools=[])
        assert reply.tool_calls == (ToolCall("set_thermostat", {"temp_c": 21}),)

    def test_error_report_in_content_becomes_signal(self):
        app = MockOpenAIApp(reply_fn=lambda payload: content_message(
            '{"error": "no such tool available"}'))
        with MockOpenAIServer(app) as server:
            engine = OpenAIHttpEngine(_spec(server.base_url))
            reply = engine.generate(
                [{"role": "user", "content": "hi"}], tools=[])
        assert reply.tool_calls == ()
        assert reply.error_signal == "no such tool available"

    def test_bearer_auth_header_sent(self):
        app = MockOpenAIApp()
        with MockOpenAIServer(app) as server:
            engine = OpenAIHttpEngine(
                _spec(server.base_url, api_key="sk-unit-test"))
            engine.generate([{"role": "user", "content": "hi"}], tools=[])
        assert app.headers[0].get("authorization") == "Bearer sk-unit-test"

    def test_no_auth_header_without_key(self):
        app = MockOpenAIApp()
        with MockOpenAIServer(app) as server:
            engine = OpenAIHttpEngine(_spec(server.base_url))
            engine.generate([{"role": "user", "content": "hi"}], tools=[])
        assert "authorization" not in app.headers[0]


# ----------------------------------------------------------------------
# retries over real sockets
# ----------------------------------------------------------------------
class TestRetries:
    def test_injected_failures_then_success(self):
        app = MockOpenAIApp(fail_first=2, fail_status=503)
        with MockOpenAIServer(app) as server:
            engine = _quiet(OpenAIHttpEngine(_spec(server.base_url)))
            reply = engine.generate(
                [{"role": "user", "content": "hi"}], tools=[])
        assert len(app.requests) == 3  # two 503s burned, third served
        assert reply.text == "[]"

    def test_budget_exhausted_is_actionable(self, monkeypatch):
        monkeypatch.setattr(openai_http, "RETRIES", 1)
        app = MockOpenAIApp(fail_first=99, fail_status=500)
        with MockOpenAIServer(app) as server:
            engine = _quiet(OpenAIHttpEngine(_spec(server.base_url)))
            with pytest.raises(EngineError, match="2 attempt"):
                engine.generate([{"role": "user", "content": "hi"}], tools=[])
        assert len(app.requests) == 2

    def test_connection_refused_retries_then_fails(self, monkeypatch):
        # an ephemeral port nothing listens on — pure OSError path
        monkeypatch.setattr(openai_http, "RETRIES", 1)
        monkeypatch.setattr(openai_http, "TIMEOUT_S", 0.5)
        engine = _quiet(OpenAIHttpEngine(_spec("http://127.0.0.1:9/v1")))
        with pytest.raises(EngineError, match="last error"):
            engine.generate([{"role": "user", "content": "hi"}], tools=[])


# ----------------------------------------------------------------------
# the whole stack: Session and CLI runs backed by the mock server
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_session_run_over_http(self):
        app = MockOpenAIApp()  # default: call the first advertised tool
        with MockOpenAIServer(app) as server:
            session = open_session("edgehome", n_queries=3)
            run = session.run(AgentSpec(
                scheme="default", model=MODEL, quant=QUANT,
                engine=_spec(server.base_url)))

        assert len(run.episodes) == 3
        # one chat-completions request per executed step, all advertising
        # the full catalog (the default scheme presents everything)
        assert len(app.requests) >= 3
        assert all(req["tools"] for req in app.requests)
        for episode in run.episodes:
            assert episode.steps  # the mock's calls flowed into records
            assert all(step.n_tools_presented > 0 for step in episode.steps)

    def test_session_run_scores_gold_replies_as_success(self):
        suite = load_suite("edgehome", n_queries=2)
        gold = {query.qid: query for query in suite.queries}
        served = iter([call
                       for query in suite.queries
                       for call in query.gold_calls])

        def reply_fn(payload):
            call = next(served, None)
            if call is None:  # a retry would drain past the gold script
                return content_message("script exhausted")
            return tool_call_message(call.tool, dict(call.arguments))

        app = MockOpenAIApp(reply_fn=reply_fn)
        with MockOpenAIServer(app) as server:
            session = open_session("edgehome", n_queries=2)
            run = session.run(AgentSpec(
                scheme="default", model=MODEL, quant=QUANT,
                engine=_spec(server.base_url)))

        # a backend that answers every step with the gold call aces the
        # paper's metrics — scoring is engine-agnostic
        assert run.summary.success_rate == 1.0
        for episode in run.episodes:
            assert episode.tool_accuracy
            assert len(episode.steps) == gold[episode.qid].n_steps

    def test_gateway_serves_an_engine_tenant_like_session_run(self):
        """An ``openai_http`` tenant served through the gateway — batched
        planning, then the batch worker — equals ``session.run`` over the
        same backend bitwise, and asks it exactly as often.  The replies
        are a pure function of the payload, so the two runs see the same
        answers whatever order their requests arrive in."""

        def reply_fn(payload):
            prompt = payload["messages"][-1]["content"]
            tools = payload.get("tools")
            if not tools:  # the recommender: one description per query
                return content_message(json.dumps([prompt[-80:]]))
            tool = tools[len(prompt) % len(tools)]["function"]
            return tool_call_message(tool["name"], {})

        app = MockOpenAIApp(reply_fn=reply_fn)
        with MockOpenAIServer(app) as server:
            engine = _spec(server.base_url)
            session = open_session("edgehome", n_queries=6)
            sequential = session.run(AgentSpec(
                scheme="lis-k3", model=MODEL, quant=QUANT, engine=engine))
            asked = len(app.requests)

            async def serve_all():
                config = ServingSpec(tenants=(TenantSpec(
                    "edgehome", SuiteSpec("edgehome", n_queries=6),
                    engine=engine),), max_batch_size=4)
                async with session.serve(config) as gateway:
                    return await asyncio.gather(*(
                        gateway.submit("edgehome", query)
                        for query in session.suite.queries))

            responses = asyncio.run(serve_all())

        reference = {episode.qid: episode for episode in sequential.episodes}
        assert asked >= len(reference)
        assert len(app.requests) == 2 * asked
        assert [r for r in responses if r.batch_size > 1], \
            "no request was actually micro-batched"
        for response in responses:
            assert response.episode == reference[response.episode.qid]

    def test_cli_run_with_engine_url(self, capsys):
        app = MockOpenAIApp()
        with MockOpenAIServer(app) as server:
            rc = cli_main(["run", "--suite", "edgehome", "-n", "2",
                           "--scheme", "default",
                           "--engine-url", server.base_url])
        assert rc == 0
        assert app.requests  # the run really went over the wire
        out = capsys.readouterr().out
        assert "success 95% CI" in out
