"""Span self time, and wrappers that leave no trace behind."""

import threading

import pytest

from bench_e2e.tracing import (
    BoundaryTracer,
    Span,
    assert_untraced,
    boundary_targets,
    dump_jsonl,
    load_jsonl,
    outermost,
    self_times,
    _resolve,
)


def test_self_time_nested():
    spans = [Span(1, None, "a", 0.0, 10.0), Span(2, 1, "b", 2.0, 6.0),
             Span(3, 2, "c", 3.0, 4.0)]
    assert self_times(spans) == {1: 6.0, 2: 3.0, 3: 1.0}


def test_self_time_siblings():
    spans = [Span(1, None, "a", 0.0, 10.0), Span(2, 1, "b", 1.0, 3.0),
             Span(3, 1, "b", 5.0, 9.0)]
    assert self_times(spans)[1] == 4.0


def test_self_time_cross_thread_children_overlap_once():
    # two children on other threads run in parallel inside the parent,
    # and one outlives it: the union is subtracted, clipped to the parent
    spans = [Span(1, None, "a", 0.0, 10.0, thread=1),
             Span(2, 1, "b", 2.0, 7.0, thread=2),
             Span(3, 1, "b", 4.0, 12.0, thread=3)]
    assert self_times(spans)[1] == 2.0


def test_outermost_skips_same_named_inner_spans():
    spans = [Span(1, None, "search", 0.0, 4.0, n=3),
             Span(2, 1, "search", 1.0, 3.0, n=3),
             Span(3, None, "other", 5.0, 6.0)]
    assert [span.id for span in outermost(spans)] == [1, 3]


def test_install_wraps_and_uninstall_restores_the_original_objects():
    before = {(t.module, t.owner, t.attr): vars(_resolve(t))[t.attr]
              for t in boundary_targets()}
    assert_untraced()
    tracer = BoundaryTracer()
    tracer.install()
    try:
        with pytest.raises(AssertionError):
            assert_untraced()
        with pytest.raises(RuntimeError):
            BoundaryTracer().install()
    finally:
        tracer.uninstall()
    assert_untraced()
    for target in boundary_targets():
        key = (target.module, target.owner, target.attr)
        assert vars(_resolve(target))[target.attr] is before[key]


def test_spans_link_to_their_parent_per_thread_and_count_misses(tmp_path):
    from repro.embedding.cache import CachedEmbedder

    with BoundaryTracer() as tracer:
        embedder = CachedEmbedder()
        embedder.encode_one("turn on the kitchen light")
        embedder.encode(["turn on the kitchen light", "lock the door"])
        worker = threading.Thread(
            target=embedder.encode, args=(["play some jazz"],))
        worker.start()
        worker.join()
    outer, inner, batch, threaded = tracer.spans[1], tracer.spans[0], \
        tracer.spans[2], tracer.spans[3]
    assert {span.name for span in tracer.spans} == {"embedding.encode"}
    assert inner.parent == outer.id and outer.parent is None
    assert (outer.n, outer.m) == (1, 1)        # encode_one: one miss
    assert (batch.n, batch.m) == (2, 1)        # one hit, one miss
    assert threaded.parent is None and threaded.thread != batch.thread
    assert outer.start <= inner.start <= inner.end <= outer.end

    path = tmp_path / "spans.jsonl"
    dump_jsonl(tracer.spans, str(path), [(batch.start, batch.end)])
    assert load_jsonl(str(path)) == tracer.spans
    assert '"segment": 0' in path.read_text()
