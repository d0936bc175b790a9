"""Tracing acceptance: deterministic ids, complete span trees, and
context propagation across the thread and process-pool boundaries.

The contracts under test, in the order ISSUE/ROADMAP state them:

* trace ids are a pure function of ``(tenant, qid, repeat)`` — the same
  workload names the same traces on every run, thread or process backend
  alike, and a sample rate keeps a *reproducible* subset;
* one served request yields one complete span tree (``request`` →
  ``queue`` / ``plan`` / ``execute``) retrievable by trace id from a
  :class:`~repro.obs.sinks.MemorySink`;
* :class:`~repro.obs.trace.TraceContext` survives pickling, worker-slice
  spans come back from pool workers carrying the worker's pid, and an
  inline fallback is distinguishable by span name alone;
* tracing never perturbs results — episodes stay bitwise identical to
  the sequential runner with tracing enabled.
"""

from __future__ import annotations

import asyncio
import os
import pickle

from repro.embedding.cache import CachedEmbedder
from repro.evaluation.runner import ExperimentRunner
from repro.obs import (
    JsonlSink,
    MemorySink,
    TraceContext,
    Tracer,
    read_jsonl_spans,
    worker_slice_span,
)
from repro.obs.trace import request_trace_id
from repro.serving import (
    FaultPlan,
    Gateway,
    SessionManager,
    run_load,
)
from repro.specs import ObsSpec, ServingSpec
from repro.suites import load_suite

MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"
WORKERS = int(os.environ.get("REPRO_PROCESS_WORKERS", "2"))


def _memory_tracer(sample_rate: float = 1.0) -> tuple[Tracer, MemorySink]:
    sink = MemorySink()
    return Tracer(sink, sample_rate=sample_rate), sink


def _serve(suite, config: ServingSpec, tracer: Tracer | None,
           queries=None, faults=None):
    """Submit ``queries`` through one gateway; return the responses."""

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        async with Gateway(sessions, config=config, faults=faults,
                           tracer=tracer) as gateway:
            return await asyncio.gather(*(
                gateway.submit("home", query)
                for query in (queries or suite.queries)))

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
    tracer, sink = _memory_tracer()
    config = ServingSpec(max_batch_size=4, max_wait_ms=2.0)
    [response] = _serve(suite, config, tracer, queries=[suite.queries[0]])
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
    assert spans["execute"].attributes["backend"] == "inline"
    # the tree renders (demo/debug aid) and names every span
    tree = sink.render_tree(trace_id)
    for name in spans:
        assert name in tree


def test_same_workload_names_the_same_traces_across_runs():
    suite = load_suite("edgehome", n_queries=6)
    config = ServingSpec(max_batch_size=4, max_wait_ms=2.0)
    ids = []
    for _ in range(2):
        tracer, sink = _memory_tracer()
        _serve(suite, config, tracer)
        ids.append(set(sink.trace_ids()))
    assert ids[0] == ids[1]


# ----------------------------------------------------------------------
# the process-pool boundary
# ----------------------------------------------------------------------
def test_worker_slice_spans_cross_the_pickle_boundary():
    suite = load_suite("edgehome", n_queries=6)
    tracer, sink = _memory_tracer()
    config = ServingSpec(max_batch_size=4, max_wait_ms=2.0,
                         execution_backend="process",
                         execution_workers=WORKERS,
                         slice_timeout_s=30.0)
    responses = _serve(suite, config, tracer)
    assert all(response.episode is not None for response in responses)

    slices = [span for span in sink.spans() if span.name == "worker-slice"]
    executes = {span.span_id: span for span in sink.spans()
                if span.name == "execute"}
    qids = {query.qid for query in suite.queries}
    assert len(slices) == len(suite.queries)
    for span in slices:
        # built inside the pool worker, pickled back to the parent
        assert span.attributes["pid"] != os.getpid()
        assert span.attributes["qid"] in qids
        # parents to its request's execute span (id survived pickling)
        assert span.parent_id in executes
        assert executes[span.parent_id].trace_id == span.trace_id
        assert executes[span.parent_id].attributes["backend"] == "worker"
    # every trace id a worker saw is a trace the gateway started
    gateway_ids = {span.trace_id for span in sink.spans()
                   if span.name == "request"}
    assert {span.trace_id for span in slices} <= gateway_ids


def test_inline_fallback_slices_are_distinguishable():
    """With every pool-dispatched group crashing a worker and zero
    retries, episodes run through the inline fallback — named
    ``inline-slice``, parent pid.

    The SIGKILL races the slices: the surviving worker may finish its
    slice before the pool notices the death, so a crashed group can
    legitimately keep a ``worker-slice``.  The contract is therefore
    checked per trace — a slice is ``inline-slice`` in the parent pid
    exactly when its trace carries an ``inline_fallback`` event — which
    holds however the race resolves.  (Some fallback always happens: a
    first group that wholly outran its kill leaves the pool one worker
    short, and the second group's kill takes the last one.)
    """
    suite = load_suite("edgehome", n_queries=4)
    tracer, sink = _memory_tracer()
    config = ServingSpec(max_batch_size=2, max_wait_ms=2.0,
                         execution_backend="process",
                         execution_workers=WORKERS,
                         execution_retries=0, retry_backoff_ms=10.0,
                         slice_timeout_s=30.0)
    responses = _serve(suite, config, tracer,
                       faults=FaultPlan(seed=2, worker_crash_rate=1.0))
    assert all(response.episode is not None for response in responses)

    by_trace = {}
    for span in sink.spans():
        by_trace.setdefault(span.trace_id, []).append(span)
    assert len(by_trace) == len(suite.queries)
    fell_back_traces = 0
    for spans in by_trace.values():
        [execute] = [span for span in spans if span.name == "execute"]
        slices = [span for span in spans
                  if span.name in ("worker-slice", "inline-slice")]
        events = {event.name for span in spans for event in span.events}
        if execute.attributes["backend"] != "worker":
            # served while the pool respawned: no slice on either side
            assert not slices and "inline_fallback" not in events
            continue
        # every episode of a pool-dispatched group came from one slice
        [slice_span] = slices
        assert slice_span.parent_id == execute.span_id
        if "inline_fallback" in events:
            # the fallback decision is an event on the owning trace and
            # its episode ran on this side of the pickle boundary
            fell_back_traces += 1
            assert slice_span.name == "inline-slice"
            assert slice_span.attributes["pid"] == os.getpid()
        else:
            # the survivor outran the kill: a real worker-side slice
            assert slice_span.name == "worker-slice"
            assert slice_span.attributes["pid"] != os.getpid()
    assert fell_back_traces, "crash-everything run produced no inline slices"


def test_worker_slice_span_helper_names_both_sides():
    ctx = TraceContext("feedfacefeedface", "0011223344556677")
    worker = worker_slice_span(ctx, "q-1", 1.0, 2.0)
    inline = worker_slice_span(ctx, "q-1", 1.0, 2.0, inline=True)
    assert worker.name == "worker-slice"
    assert inline.name == "inline-slice"
    assert worker.parent_id == inline.parent_id == ctx.span_id
    assert worker.duration_ms == inline.duration_ms == 1000.0


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
    tracer, sink = _memory_tracer()
    config = ServingSpec(max_batch_size=4, max_wait_ms=2.0)
    responses = _serve(suite, config, tracer)
    assert len(sink.trace_ids()) == len(suite.queries)
    for response in responses:
        assert response.episode == reference[response.episode.qid]


def test_obs_spec_wires_a_jsonl_artifact(tmp_path):
    """``ServingSpec.obs`` alone (no explicit tracer) builds the tracer
    and the JSONL sink writes one span per line, readable back."""
    path = tmp_path / "trace.jsonl"
    suite = load_suite("edgehome", n_queries=4)
    config = ServingSpec(
        max_batch_size=4, max_wait_ms=2.0,
        obs=ObsSpec(sink="jsonl", sink_path=str(path)))
    report = run_load({"home": suite}, config, n_requests=4, concurrency=4)
    assert report.n_errors == 0
    spans = read_jsonl_spans(str(path))
    assert {span["name"] for span in spans} == {
        "request", "queue", "plan", "execute"}
    roots = [span for span in spans if span["name"] == "request"]
    assert len(roots) == 4
    for span in spans:
        assert span["end_s"] >= span["start_s"]


def test_stop_closes_the_sink_the_gateway_built(tmp_path):
    """``Gateway.stop`` closes a sink it built from ``config.obs`` (the
    JSONL file used to stay open: ``ResourceWarning``); a tracer the
    caller passed in stays the caller's to close."""
    suite = load_suite("edgehome", n_queries=1)

    async def one_request(**gateway_kwargs):
        sessions = SessionManager()
        sessions.register("home", suite)
        async with Gateway(sessions, **gateway_kwargs) as gateway:
            await gateway.submit("home", suite.queries[0])
        return gateway.tracer.sink

    built_path, passed_path = tmp_path / "built.jsonl", tmp_path / "own.jsonl"
    built = asyncio.run(one_request(config=ServingSpec(
        obs=ObsSpec(sink="jsonl", sink_path=str(built_path)))))
    assert built._file.closed
    assert sorted(span["name"] for span in read_jsonl_spans(
        str(built_path))) == ["execute", "plan", "queue", "request"]

    passed = asyncio.run(one_request(
        tracer=Tracer(JsonlSink(str(passed_path)))))
    assert not passed._file.closed
    passed.close()


def test_memory_sink_ring_evicts_oldest():
    tracer = Tracer(sink := MemorySink(capacity=3))
    for i in range(5):
        ctx = TraceContext(trace_id=f"{i:016x}")
        tracer.end_span(tracer.start_span(ctx, "request"))
    assert len(sink) == 3
    assert sink.trace_ids() == [f"{i:016x}" for i in (2, 3, 4)]
