"""Tracing acceptance: deterministic ids, complete span trees, and
context propagation across the batcher's thread boundary.

The contracts under test:

* trace ids are a pure function of ``(tenant, qid, repeat)`` — the same
  workload names the same traces on every run, and a sample rate keeps
  a *reproducible* subset;
* one served request yields one complete span tree (``request`` →
  ``queue`` / ``plan`` / ``execute``) retrievable by trace id from a
  :class:`~repro.obs.sinks.MemorySink`;
* :class:`~repro.obs.trace.TraceContext` survives pickling;
* tracing never perturbs results — episodes stay bitwise identical to
  the sequential runner with tracing enabled.
"""

from __future__ import annotations

import asyncio
import pickle

from repro.embedding.cache import CachedEmbedder
from repro.evaluation.runner import ExperimentRunner
from repro.obs import (
    MemorySink,
    TraceContext,
    Tracer,
    read_jsonl_spans,
    sinks,
)
from repro.obs.trace import request_trace_id
from repro.serving import Gateway, SessionManager, run_load
from repro.specs import ObsSpec, ServingSpec
from repro.suites import load_suite

MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"


def _memory_tracer(sample_rate: float = 1.0) -> tuple[Tracer, MemorySink]:
    sink = MemorySink()
    return Tracer(sink, sample_rate=sample_rate), sink


def _serve(suite, config: ServingSpec, queries=None):
    """Submit ``queries`` through one gateway tracing into a memory
    sink; return the responses and the sink."""

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        async with Gateway(sessions,
                           config=config.replace(obs=ObsSpec())) as gateway:
            responses = await asyncio.gather(*(
                gateway.submit("home", query)
                for query in (queries or suite.queries)))
        return responses, gateway.tracer.sink

    return asyncio.run(scenario())


# ----------------------------------------------------------------------
# deterministic ids and sampling
# ----------------------------------------------------------------------
def test_trace_ids_are_pure_functions_of_tenant_qid_repeat():
    tracer_a, _ = _memory_tracer()
    tracer_b, _ = _memory_tracer()
    # the second ("home", "q-1") is that pair's repeat 1
    keys = [("home", "q-1", 0), ("home", "q-2", 0), ("home", "q-1", 1),
            ("office", "q-1", 0)]
    ids_a = [tracer_a.sampled(request_trace_id(*key)).trace_id
             for key in keys]
    ids_b = [tracer_b.sampled(request_trace_id(*key)).trace_id
             for key in keys]
    assert ids_a == ids_b == [request_trace_id(*key) for key in keys]
    # repeats of the same key and other tenants get distinct ids
    assert len(set(ids_a)) == len(ids_a)


def test_sampling_keeps_a_reproducible_subset():
    qids = [f"q-{i}" for i in range(256)]

    def sampled(tracer: Tracer) -> set[str]:
        return {qid for qid in qids
                if tracer.sampled(request_trace_id("home", qid, 0))
                is not None}

    subset_a = sampled(Tracer(MemorySink(), sample_rate=0.25))
    subset_b = sampled(Tracer(MemorySink(), sample_rate=0.25))
    assert subset_a == subset_b
    assert 0 < len(subset_a) < len(qids)
    # widening the rate only adds traces, never drops one (the decision
    # threshold is monotone in the rate, per trace id)
    wider = sampled(Tracer(MemorySink(), sample_rate=0.75))
    assert subset_a <= wider
    assert sampled(Tracer(MemorySink(), sample_rate=0.0)) == set()
    assert sampled(Tracer(MemorySink(), sample_rate=1.0)) == set(qids)


def test_trace_context_pickle_roundtrip():
    ctx = TraceContext(trace_id="deadbeefcafef00d", span_id="0123456789abcdef")
    clone = pickle.loads(pickle.dumps(ctx))
    assert clone == ctx
    child = clone.child("fedcba9876543210")
    assert child.trace_id == ctx.trace_id
    assert child.span_id == "fedcba9876543210"


# ----------------------------------------------------------------------
# one request -> one complete span tree
# ----------------------------------------------------------------------
def test_single_request_produces_complete_span_tree():
    suite = load_suite("edgehome", n_queries=4)
    config = ServingSpec(max_batch_size=4)
    [response], sink = _serve(suite, config, queries=[suite.queries[0]])
    assert response.episode is not None

    [trace_id] = sink.trace_ids()
    spans = {span.name: span for span in sink.trace(trace_id)}
    assert set(spans) == {"request", "queue", "plan", "execute"}
    root = spans["request"]
    assert root.parent_id == ""
    assert root.attributes["tenant"] == "home"
    assert root.attributes["qid"] == response.episode.qid
    assert {event.name for event in root.events} >= {"admit", "reply"}
    for name in ("queue", "plan", "execute"):
        assert spans[name].parent_id == root.span_id, name
        assert spans[name].status == "ok"
    assert spans["execute"].attributes == {}
    # the tree renders (demo/debug aid) and names every span
    tree = sink.render_tree(trace_id)
    for name in spans:
        assert name in tree


def test_same_workload_names_the_same_traces_across_runs():
    suite = load_suite("edgehome", n_queries=6)
    config = ServingSpec(max_batch_size=4)
    ids = []
    for _ in range(2):
        _, sink = _serve(suite, config)
        ids.append(set(sink.trace_ids()))
    assert ids[0] == ids[1]


# ----------------------------------------------------------------------
# tracing is a pure observer
# ----------------------------------------------------------------------
def test_tracing_preserves_bitwise_equivalence():
    suite = load_suite("edgehome", n_queries=8)
    reference = {
        episode.qid: episode
        for episode in ExperimentRunner(suite, embedder=CachedEmbedder())
        .run("lis-k3", MODEL, QUANT).episodes
    }
    config = ServingSpec(max_batch_size=4)
    responses, sink = _serve(suite, config)
    assert len(sink.trace_ids()) == len(suite.queries)
    for response in responses:
        assert response.episode == reference[response.episode.qid]


def test_obs_spec_wires_a_jsonl_artifact(tmp_path):
    """``ServingSpec.obs`` builds the tracer and the JSONL sink writes
    one span per line, readable back."""
    path = tmp_path / "trace.jsonl"
    suite = load_suite("edgehome", n_queries=4)
    config = ServingSpec(
        max_batch_size=4,
        obs=ObsSpec(sink="jsonl", sink_path=str(path)))
    sessions = SessionManager()
    sessions.register("home", suite)
    report = run_load(Gateway(sessions, config=config), n_requests=4,
                      concurrency=4)
    assert report.n_errors == 0
    spans = read_jsonl_spans(str(path))
    assert {span["name"] for span in spans} == {
        "request", "queue", "plan", "execute"}
    roots = [span for span in spans if span["name"] == "request"]
    assert len(roots) == 4
    for span in spans:
        assert span["end_s"] >= span["start_s"]


def test_stop_closes_the_sink_the_gateway_built(tmp_path):
    """``Gateway.stop`` closes the sink it built from ``config.obs`` (the
    JSONL file used to stay open: ``ResourceWarning``)."""
    suite = load_suite("edgehome", n_queries=1)

    async def one_request(config):
        sessions = SessionManager()
        sessions.register("home", suite)
        async with Gateway(sessions, config=config) as gateway:
            await gateway.submit("home", suite.queries[0])
        return gateway.tracer.sink

    built_path = tmp_path / "built.jsonl"
    built = asyncio.run(one_request(ServingSpec(
        obs=ObsSpec(sink="jsonl", sink_path=str(built_path)))))
    assert built._file.closed
    assert sorted(span["name"] for span in read_jsonl_spans(
        str(built_path))) == ["execute", "plan", "queue", "request"]


def test_event_after_the_request_ended_is_not_orphaned():
    """A fault firing on the batch worker after its request was
    abandoned (root span ended ``deadline_exceeded``) is still written,
    as a zero-duration ``fault`` child of the request."""
    tracer, sink = _memory_tracer()
    ctx = tracer.sampled(request_trace_id("home", "q-1", 0))
    root = tracer.start_span(ctx, "request")
    tracer.end_span(root, status="deadline_exceeded")
    tracer.event(ctx.child(root.span_id), "fault", {"hook": "gateway.group"})
    [fault] = [span for span in sink.spans() if span.name == "fault"]
    assert fault.trace_id == root.trace_id
    assert fault.parent_id == root.span_id
    assert fault.attributes == {"hook": "gateway.group"}
    assert fault.duration_ms == 0.0


def test_memory_sink_ring_evicts_oldest(monkeypatch):
    monkeypatch.setattr(sinks, "MEMORY_SINK_CAPACITY", 3)
    tracer = Tracer(sink := MemorySink())
    for i in range(5):
        ctx = TraceContext(trace_id=f"{i:016x}")
        tracer.end_span(tracer.start_span(ctx, "request"))
    assert len(sink.spans()) == 3
    assert sink.trace_ids() == [f"{i:016x}" for i in (2, 3, 4)]
