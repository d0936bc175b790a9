"""Trace sinks: where finished spans go.

A sink is anything with ``emit(span)`` (see :class:`TraceSink`); sinks
are resolved by name through :data:`repro.registry.TRACE_SINKS`, so a
third-party exporter (OTLP, a message bus) plugs in with one decorator::

    from repro.registry import register_trace_sink

    @register_trace_sink("otlp")
    def _otlp_sink(obs_spec):
        return MyOtlpSink(endpoint=obs_spec.sink_path)

Built-ins:

``memory``
    A fixed-capacity ring of finished spans, queryable by trace id —
    what tests, the demo and the acceptance checks read back.
``jsonl``
    One JSON object per span appended to ``ObsSpec.sink_path``; the
    file is truncated on open, so one sink instance is one run's
    artifact (the chaos harness' trace artifact).
``null``
    Drops everything; isolates the tracer's own overhead in benches.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Protocol, runtime_checkable

from repro.obs.trace import Span
from repro.registry import register_trace_sink


@runtime_checkable
class TraceSink(Protocol):
    """Minimal sink contract: receive one finished span at a time.

    ``emit`` may be called concurrently from the event loop, the batch
    worker and supervision threads — implementations lock internally.
    """

    def emit(self, span: Span) -> None:  # pragma: no cover - protocol
        ...


#: spans a :class:`MemorySink` retains
MEMORY_SINK_CAPACITY = 2048


class MemorySink:
    """In-memory ring of the last :data:`MEMORY_SINK_CAPACITY` spans.

    Once full, the oldest spans fall off — a long-lived gateway keeps
    the most recent traffic's traces without growing.  Readers get
    copies; the ring itself is never exposed.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=MEMORY_SINK_CAPACITY)

    def emit(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def spans(self) -> list[Span]:
        """Every retained span, oldest first."""
        with self._lock:
            return list(self._spans)

    def trace_ids(self) -> list[str]:
        """Distinct trace ids still in the ring, in first-seen order."""
        seen: dict[str, None] = {}
        for span in self.spans():
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def trace(self, trace_id: str) -> list[Span]:
        """One trace's spans, ordered by start time."""
        return sorted((span for span in self.spans()
                       if span.trace_id == trace_id),
                      key=lambda span: (span.start_s, span.span_id))

    def render_tree(self, trace_id: str) -> str:
        """ASCII rendering of one trace's span tree (demo/debug aid)."""
        spans = self.trace(trace_id)
        if not spans:
            return f"(no spans for trace {trace_id})"
        children: dict[str, list[Span]] = {}
        by_id = {span.span_id: span for span in spans}
        roots = []
        for span in spans:
            if span.parent_id and span.parent_id in by_id:
                children.setdefault(span.parent_id, []).append(span)
            else:
                roots.append(span)
        lines = [f"trace {trace_id}"]

        def walk(span: Span, depth: int) -> None:
            marks = "".join(f" !{event.name}" for event in span.events)
            status = "" if span.status == "ok" else f" [{span.status}]"
            lines.append(f"{'  ' * depth}└─ {span.name} "
                         f"{span.duration_ms:.2f}ms{status}{marks}")
            for child in children.get(span.span_id, ()):
                walk(child, depth + 1)

        for root in roots:
            walk(root, 1)
        return "\n".join(lines)


class JsonlSink:
    """Appends one JSON object per span to a file (truncated on open).

    Every ``emit`` writes and flushes one line, so the artifact is
    complete even if the process dies mid-run — the property the chaos
    harness relies on.
    """

    def __init__(self, path: str):
        if not path:
            raise ValueError("JsonlSink requires a non-empty path")
        self.path = path
        self._lock = threading.Lock()
        self._file = open(path, "w", encoding="utf-8")

    def emit(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), sort_keys=True)
        with self._lock:
            if self._file.closed:
                return
            self._file.write(line + "\n")
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()


class NullSink:
    """Swallows spans; the control case for tracer-overhead benches."""

    def emit(self, span: Span) -> None:
        pass


def read_jsonl_spans(path: str) -> list[dict]:
    """Load a JSONL trace artifact back as a list of span dicts."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


@register_trace_sink("memory")
def _memory_sink(obs) -> MemorySink:
    return MemorySink()


@register_trace_sink("jsonl")
def _jsonl_sink(obs) -> JsonlSink:
    if not obs.sink_path:
        raise ValueError(
            "ObsSpec(sink='jsonl') requires sink_path to name the output file")
    return JsonlSink(obs.sink_path)


@register_trace_sink("null")
def _null_sink(obs) -> NullSink:
    return NullSink()
