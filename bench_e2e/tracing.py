"""Spans recorded from the benchmark's side of each layer boundary.

Nothing under ``src/`` knows about this module.  :class:`BoundaryTracer`
replaces the public callables at each layer boundary (class methods and
module-level functions, including the names other modules imported) with
timing wrappers, keeps the spans in memory and restores the original
objects on :meth:`~BoundaryTracer.uninstall`.  The untraced passes call
:func:`assert_untraced` first, so an end-to-end number can never be
measured through a wrapper.

A span is ``(id, parent, name, start, end, n, m, thread)``.  The parent
is the span that was current in the same thread or asyncio task when
this one started (one ``ContextVar`` serves both: a thread and a task
each own a context).  ``n``/``m`` are per-boundary counts — texts and
cache misses for ``encode``, query rows for a search, and so on.

Self time is a span's duration minus the part of its interval covered
by its children, whichever thread they ran on.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple

_MARK = "_bench_e2e_original"


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    n: int = 0
    m: int = 0
    thread: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Target(NamedTuple):
    """One patch point: ``getattr(import(module), owner...).attr``."""

    module: str
    owner: str | None  # class name inside the module; None = the module
    attr: str
    span: str
    is_async: bool = False
    #: ``count(args, kwargs, result) -> (n, m)``
    count: Callable | None = None


# -- per-boundary counts ---------------------------------------------------
def _n_rows(args, kwargs, result):
    queries = args[1]
    return (len(queries) if getattr(queries, "ndim", 2) > 1 else 1), 0


def _n_queries(args, kwargs, result):
    return len(args[1]), 0


def _one(args, kwargs, result):
    return 1, 0


def _tool_outcome(args, kwargs, result):
    return 1, 0 if result.ok else 1


def _plan_lookup(args, kwargs, result):
    hit = kwargs["hit"] if "hit" in kwargs else args[1]
    return 1, 1 if hit else 0


def _tool_tokens(args, kwargs, result):
    return args[1].tool_prompt_tokens, 0


_AGENT_CLASSES = (
    ("repro.core.agent_base", "FunctionCallingAgent"),
    ("repro.core.pipeline", "LessIsMoreAgent"),
    ("repro.baselines.default_agent", "DefaultAgent"),
    ("repro.baselines.gorilla", "GorillaAgent"),
)


def boundary_targets() -> list[Target]:
    """Every patch point, resolved against what the classes define."""
    targets = [
        Target("repro.embedding.cache", "CachedEmbedder", "encode",
               "embedding.encode"),
        Target("repro.embedding.cache", "CachedEmbedder", "encode_one",
               "embedding.encode"),
        Target("repro.vectorstore.base", "VectorIndex", "search_arrays",
               "vectorstore.search_arrays", count=_n_rows),
        Target("repro.vectorstore.base", "VectorIndex", "search",
               "vectorstore.search_arrays", count=_n_rows),
        Target("repro.llm.engine", "SimulatedLLM", "recommend_tools",
               "llm.recommend_tools"),
        Target("repro.llm.engine", "SimulatedLLM", "execute_step",
               "llm.execute_step"),
        Target("repro.tools.executor", "SimulatedToolExecutor", "execute",
               "tools.execute", count=_tool_outcome),
        Target("repro.tools.catalog", "ToolCatalog", "select",
               "tools.catalog_select"),
        Target("repro.core.controller", "ToolController", "decide_batch",
               "core.decide_batch"),
        Target("repro.serving.gateway", "Gateway", "submit",
               "serving.submit", is_async=True),
        Target("repro.serving.gateway", "Gateway", "metrics_text",
               "obs.metrics_text"),
        Target("repro.serving.gateway", "Gateway", "start",
               "setup.gateway_start", is_async=True),
        Target("repro.obs.cost", "CostLedger", "record",
               "obs.cost_record", count=_tool_tokens),
        Target("repro.power.meter", "EnergyMeter", "record",
               "power.meter_record"),
        Target("repro.serving.http.app", "GatewayHTTPApp", "__call__",
               "http.app", is_async=True),
        Target("repro.core.episode", "EpisodeResult", "to_dict",
               "http.episode_to_dict"),
        Target("repro.suites", None, "load_suite", "setup.load_suite"),
        Target("repro.core.levels", "SearchLevelBuilder", "build",
               "setup.build_levels"),
        Target("repro.serving.session", "TenantSession", "warm",
               "setup.warm"),
    ]
    # a module-level function is reached through every name bound to it
    for module in ("repro.hardware.inference", "repro.hardware",
                   "repro.core.agent_base", "repro.power.meter"):
        targets.append(Target(module, None, "simulate_inference",
                              "hardware.simulate_inference"))
    for module in ("repro.serving.http.wire", "repro.serving.http.app"):
        targets.append(Target(module, None, "parse_json", "http.parse_json"))
        targets.append(Target(module, None, "send_json", "http.send_json",
                              is_async=True))
    telemetry = importlib.import_module("repro.serving.telemetry").Telemetry
    for attr in sorted(vars(telemetry)):
        if attr.startswith("record_"):
            targets.append(Target(
                "repro.serving.telemetry", "Telemetry", attr,
                "serving.telemetry",
                count=_plan_lookup if attr == "record_plan_lookup" else None))
    for module, name in _AGENT_CLASSES:
        own = vars(getattr(importlib.import_module(module), name))
        for attr, span in (("run", "core.run"),
                           ("run_planned", "core.run_planned"),
                           ("run_planned_many", "core.run_planned_many")):
            if attr in own:
                targets.append(Target(module, name, attr, span))
        if "plan_batch" in own:
            targets.append(Target(module, name, "plan_batch",
                                  "core.plan_batch", count=_n_queries))
        elif "plan" in own:
            # schemes without a vectorized planner plan one query a call
            targets.append(Target(module, name, "plan", "core.plan_batch",
                                  count=_one))
    return targets


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    if target.owner is not None:
        owner = getattr(owner, target.owner)
    return owner


class BoundaryTracer:
    """Installs the wrappers, owns the spans they record."""

    def __init__(self):
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[int | None] = (
            contextvars.ContextVar("bench_e2e_span", default=None))
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}  # one wrapper per original object
        for target in boundary_targets():
            owner = _resolve(target)
            original = vars(owner)[target.attr]
            if hasattr(original, _MARK):
                raise RuntimeError(
                    f"{target.module}.{target.attr} is already wrapped")
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = self._wrap(original, target)
                wrappers[id(original)] = wrapper
            setattr(owner, target.attr, wrapper)
            self._patched.append((owner, target.attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "BoundaryTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # the wrappers
    # ------------------------------------------------------------------
    def _wrap(self, original, target: Target):
        if target.span == "embedding.encode":
            return self._wrap_encode(original, target.span,
                                     single=target.attr == "encode_one")
        spans, current, ids = self.spans, self._current, self._ids
        name, count = target.span, target.count
        clock, thread_id = time.perf_counter, threading.get_ident

        if target.is_async:
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span_id = next(ids)
                parent = current.get()
                token = current.set(span_id)
                n = m = 0
                start = clock()
                try:
                    result = await original(*args, **kwargs)
                    if count is not None:
                        n, m = count(args, kwargs, result)
                    return result
                finally:
                    end = clock()
                    current.reset(token)
                    spans.append(Span(span_id, parent, name, start, end,
                                      n, m, thread_id()))
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span_id = next(ids)
                parent = current.get()
                token = current.set(span_id)
                n = m = 0
                start = clock()
                try:
                    result = original(*args, **kwargs)
                    if count is not None:
                        n, m = count(args, kwargs, result)
                    return result
                finally:
                    end = clock()
                    current.reset(token)
                    spans.append(Span(span_id, parent, name, start, end,
                                      n, m, thread_id()))
        setattr(wrapper, _MARK, original)
        return wrapper

    def _wrap_encode(self, original, name: str, single: bool):
        """``CachedEmbedder.encode`` / ``encode_one``: count the texts and
        the cache misses the call took (read from ``cache_info``)."""
        spans, current, ids = self.spans, self._current, self._ids
        clock, thread_id = time.perf_counter, threading.get_ident

        @functools.wraps(original)
        def wrapper(self, texts):
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            misses = self.cache_info()["misses"]
            start = clock()
            try:
                return original(self, texts)
            finally:
                end = clock()
                current.reset(token)
                n = 1 if single else len(texts)
                # encode_one counts its miss, then encode counts it again
                spans.append(Span(
                    span_id, parent, name, start, end, n,
                    min(n, self.cache_info()["misses"] - misses),
                    thread_id()))
        setattr(wrapper, _MARK, original)
        return wrapper


def assert_untraced() -> None:
    """Every patch point holds its original object, or raise."""
    for target in boundary_targets():
        value = vars(_resolve(target))[target.attr]
        if hasattr(value, _MARK):
            raise AssertionError(
                f"{target.module}:{target.owner or ''}.{target.attr} is "
                f"wrapped during an untraced pass")


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def self_times(spans: list[Span]) -> dict[int, float]:
    """``span id -> self seconds``: duration minus child-covered time.

    Children are united before subtracting, so siblings that overlap
    (parallel threads) are not subtracted twice, and each child is
    clipped to its parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.id, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = span.duration - covered
    return result


def outermost(spans: list[Span]) -> list[Span]:
    """Spans whose parent does not carry the same name.

    ``search_arrays`` calls ``search`` and ``encode_one`` calls
    ``encode``; both levels are wrapped under one name so self time adds
    up, and the per-call counts are read from the outer span only.
    """
    names = {span.id: span.name for span in spans}
    return [span for span in spans if names.get(span.parent) != span.name]


def segment_of(span: Span, windows: list[tuple[float, float]]) -> int | None:
    """Index of the measured window the span started in, if any."""
    for index, (start, end) in enumerate(windows):
        if start <= span.start < end:
            return index
    return None


def dump_jsonl(spans: list[Span], path: str,
               windows: list[tuple[float, float]] = ()) -> None:
    with open(path, "w") as handle:
        for span in spans:
            record = span._asdict()
            record["segment"] = segment_of(span, windows)
            handle.write(json.dumps(record) + "\n")


def load_jsonl(path: str) -> list[Span]:
    spans = []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            record.pop("segment", None)
            spans.append(Span(**record))
    return spans
