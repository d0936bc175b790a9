"""``repro.obs`` — observability for the serving runtime.

Three layers, all opt-in through :class:`~repro.specs.ObsSpec`:

* :mod:`repro.obs.trace` — span-based request tracing with deterministic
  trace ids and explicit context propagation across the batcher's thread
  boundary;
* :mod:`repro.obs.sinks` — where finished spans go (in-memory ring,
  JSONL file, null), pluggable via :data:`repro.registry.TRACE_SINKS`;
* :mod:`repro.obs.prometheus` + :mod:`repro.obs.cost` — Prometheus text
  exposition of :meth:`Telemetry.snapshot` and per-tenant token
  accounting.
"""

from repro.obs.cost import CostLedger, CostRecord, plan_tool_tokens
from repro.obs.prometheus import escape_label_value, render_prometheus
from repro.obs.sinks import (JsonlSink, MemorySink, NullSink, TraceSink,
                             read_jsonl_spans)
from repro.obs.trace import (Span, SpanEvent, TraceContext, Tracer,
                             build_tracer, hex_id)

__all__ = [
    "CostLedger",
    "CostRecord",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "Span",
    "SpanEvent",
    "TraceContext",
    "TraceSink",
    "Tracer",
    "build_tracer",
    "escape_label_value",
    "hex_id",
    "plan_tool_tokens",
    "read_jsonl_spans",
    "render_prometheus",
]
