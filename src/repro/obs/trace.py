"""Span-based request tracing for the serving runtime.

One served request becomes one **trace**: a tree of timed spans —

* ``request`` (root) — admission to reply, with ``admit``/``reply``
  events and the final status;
* ``queue`` — time spent waiting in the micro-batch scheduler;
* ``plan`` — the request's share of the group's vectorized planning
  pass (cache hits are attributed);
* ``execute`` — the episode run on the batch worker;
* ``fault`` — a zero-duration child of ``request`` per injected fault
  that touched the request (chaos runs only).

Trace ids are **deterministic**: derived with the repo's stable BLAKE2
hash from ``(tenant, qid, repeat)`` where ``repeat`` counts prior
requests for the same key — the same workload produces the same set of
trace ids on every run, so a failing load test names the exact traces to
look at.  Sampling decisions derive from the trace id itself, so a
sample rate keeps a reproducible subset.

Context crosses the batcher's thread boundary as an explicit frozen
:class:`TraceContext` attached to the request payload — no
thread-locals, nothing ambient.  Span
timestamps use ``time.monotonic()`` (the asyncio event loop's clock), so
queue spans can be synthesized from the scheduler's own enqueue/dequeue
stamps.

Tracing never perturbs results: episodes are planned and executed by
the exact same code paths, spans only observe — the bitwise-determinism
contract (see ROADMAP.md) holds with tracing enabled.

:meth:`Tracer.event` writes its span the moment it fires: nothing is
buffered, so a request abandoned on its deadline cannot orphan an event
that fires later on the batch worker.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.utils.hashing import stable_hash64


def hex_id(*parts: str | int | float) -> str:
    """A stable 16-hex-digit id derived from ``parts``."""
    return f"{stable_hash64(*parts):016x}"


def request_trace_id(tenant: str, qid: str, repeat: int) -> str:
    """The deterministic trace id of one served request.

    A pure function of ``(tenant, qid, repeat)`` — the n-th request for
    the same tenant/qid pair gets the same id on every run, independent
    of global interleaving.  The gateway assigns ids through this even
    when tracing is disabled, so every HTTP response (and error) can
    carry an ``X-Trace-Id`` the operator can later enable tracing
    against and re-find.
    """
    return f"{stable_hash64('trace', tenant, qid, repeat):016x}"


@dataclass(frozen=True)
class TraceContext:
    """The propagation handle: all a downstream stage needs to attach
    spans to a request's trace.

    Frozen and made of two strings, so it rides in frozen payload
    dataclasses.
    ``span_id`` names the span a downstream stage should parent to.
    """

    trace_id: str
    span_id: str = ""

    def child(self, span_id: str) -> "TraceContext":
        """The context downstream stages see under a new parent span."""
        return TraceContext(self.trace_id, span_id)


@dataclass(frozen=True)
class SpanEvent:
    """A point-in-time annotation on a span (``admit``, ``reply``)."""

    name: str
    time_s: float
    attributes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "time_s": self.time_s,
                "attributes": dict(self.attributes)}


@dataclass
class Span:
    """One timed operation within a trace."""

    trace_id: str
    span_id: str
    name: str
    parent_id: str = ""
    start_s: float = 0.0
    end_s: float = 0.0
    status: str = "ok"
    attributes: dict = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)

    @property
    def duration_ms(self) -> float:
        return max(0.0, self.end_s - self.start_s) * 1e3

    def add_event(self, name: str, attributes: dict | None = None,
                  time_s: float | None = None) -> None:
        self.events.append(SpanEvent(
            name=name,
            time_s=time_s if time_s is not None else time.monotonic(),
            attributes=dict(attributes or {})))

    def to_dict(self) -> dict:
        """JSON-able form (what the JSONL sink writes, one per line)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_ms": self.duration_ms,
            "status": self.status,
            "attributes": dict(self.attributes),
            "events": [event.to_dict() for event in self.events],
        }


class Tracer:
    """Creates spans and writes them to one sink.

    Thread-safe: spans are started on the event loop (``submit``), ended
    on the batch worker, and events fire from the batch worker.
    The tracer holds no per-request state — span objects travel with
    the request.
    """

    def __init__(self, sink, sample_rate: float = 1.0,
                 slow_span_ms: float | None = None):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}")
        if slow_span_ms is not None and slow_span_ms <= 0.0:
            raise ValueError(
                f"slow_span_ms must be > 0 (or None), got {slow_span_ms}")
        self.sink = sink
        self.sample_rate = sample_rate
        self.slow_span_ms = slow_span_ms
        self._lock = threading.Lock()
        self._span_seq = 0

    # ------------------------------------------------------------------
    # trace lifecycle
    # ------------------------------------------------------------------
    def sampled(self, trace_id: str) -> TraceContext | None:
        """The :class:`TraceContext` for a pre-assigned trace id, or
        ``None`` when sampling skips it.

        The id's own high bits decide — deterministic and unbiased, so a
        sample rate keeps a reproducible subset.  Ids come from
        :func:`request_trace_id`; the caller counts the repeats (the
        gateway stamps ids on every response, traced or not).  Every
        downstream tracing call is guarded by the ``None``, so an
        unsampled request costs one branch.
        """
        if self.sample_rate <= 0.0:
            return None
        if self.sample_rate < 1.0:
            digest = int(trace_id, 16)
            if (digest >> 11) / float(1 << 53) >= self.sample_rate:
                return None
        return TraceContext(trace_id=trace_id)

    def start_span(self, ctx: TraceContext, name: str,
                   parent_id: str | None = None,
                   start_s: float | None = None,
                   attributes: dict | None = None) -> Span:
        with self._lock:
            seq = self._span_seq
            self._span_seq += 1
        return Span(
            trace_id=ctx.trace_id,
            span_id=hex_id(ctx.trace_id, name, seq),
            parent_id=parent_id if parent_id is not None else ctx.span_id,
            name=name,
            start_s=start_s if start_s is not None else time.monotonic(),
            attributes=dict(attributes or {}),
        )

    def end_span(self, span: Span, end_s: float | None = None,
                 status: str | None = None) -> None:
        """Close a span and write it to the sink (slow-span marking
        applied)."""
        span.end_s = end_s if end_s is not None else time.monotonic()
        if status is not None:
            span.status = status
        if (self.slow_span_ms is not None
                and span.duration_ms >= self.slow_span_ms):
            span.attributes.setdefault("slow", True)
        self.sink.emit(span)

    # ------------------------------------------------------------------
    # events and markers
    # ------------------------------------------------------------------
    def event(self, ctx: TraceContext | None, name: str,
              attributes: dict | None = None) -> None:
        """Write a zero-duration span named ``name`` under ``ctx``'s
        parent span the moment it fires (no-op for unsampled requests),
        whether or not that parent has already ended."""
        if ctx is None:
            return
        now = time.monotonic()
        self.end_span(self.start_span(ctx, name, start_s=now,
                                      attributes=attributes), end_s=now)

    def marker(self, name: str, attributes: dict | None = None) -> None:
        """Emit a standalone zero-duration span for a control-plane event
        not owned by any request (a budget controller's ladder move)."""
        with self._lock:
            seq = self._span_seq
            self._span_seq += 1
        now = time.monotonic()
        trace_id = hex_id("marker", name, seq)
        self.sink.emit(Span(
            trace_id=trace_id,
            span_id=hex_id(trace_id, name, seq),
            name=name,
            start_s=now,
            end_s=now,
            attributes=dict(attributes or {}),
        ))


def build_tracer(obs) -> Tracer | None:
    """Construct the tracer an :class:`~repro.specs.ObsSpec` describes.

    ``None`` (observability not configured) builds no tracer, so the
    serving hot path carries a single ``is None`` check.
    """
    if obs is None:
        return None
    from repro.registry import TRACE_SINKS

    sink = TRACE_SINKS.get(obs.sink)(obs)
    return Tracer(sink, sample_rate=obs.sample_rate,
                  slow_span_ms=obs.slow_span_ms)
