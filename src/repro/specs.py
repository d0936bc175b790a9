"""Typed, declarative experiment specs — the public configuration layer.

Every way of driving this repo — a single evaluation batch, a scheme x
model x quant grid, or the multi-tenant serving gateway — is described
by one of the frozen dataclasses below and executed through
:func:`repro.session.open_session`.  Specs are:

* **validated** at construction (fail fast, before any heavy work);
* **serializable** — ``to_dict()`` produces a plain JSON-compatible
  dict and ``from_dict()`` reconstructs an equal spec, nested specs
  included;
* **picklable** — they cross the process-pool boundary untouched
  (they hold only strings, numbers and tuples; see the pickling
  boundary notes in ROADMAP.md).

This module imports nothing heavy, so ``from repro import AgentSpec``
stays cheap.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any


def _encode(value: Any) -> Any:
    """Recursively convert a spec field value to plain JSON-able data."""
    if isinstance(value, _SpecBase):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


@dataclass(frozen=True)
class _SpecBase:
    """Shared ``to_dict``/``from_dict`` machinery for all specs."""

    def to_dict(self) -> dict:
        """Plain-dict form (nested specs become nested dicts)."""
        return {f.name: _encode(getattr(self, f.name))
                for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "_SpecBase":
        """Rebuild a spec from :meth:`to_dict` output.

        Unknown keys raise ``TypeError`` (the dataclass constructor's
        own error), so stale serialized specs fail loudly.
        """
        return cls(**data)

    def replace(self, **changes):
        """A modified copy (frozen specs are edited by replacement)."""
        return dataclasses.replace(self, **changes)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _as_tuple(value) -> tuple:
    if isinstance(value, str):
        return tuple(part for part in value.split(",") if part)
    return tuple(value)


def _require_min(owner, bound, *names: str, strict: bool = False) -> None:
    """Each named numeric field is ``>= bound`` (``> bound`` if strict).

    ``None`` passes: optional fields use it for "unset".
    """
    for name in names:
        value = getattr(owner, name)
        if value is None or (value > bound if strict else value >= bound):
            continue
        optional = type(owner).__dataclass_fields__[name].default is None
        raise ValueError(
            f"{type(owner).__name__}.{name} must be "
            f"{'>' if strict else '>='} {bound}"
            f"{' (or None)' if optional else ''}, got {value}")


def _require_registered(registry, name: str) -> None:
    """``name`` resolves through ``registry``.

    Membership is import-free for the builtin names a registry declares;
    only an unknown name loads the implementing modules — through
    ``get``, whose error lists what *is* registered.
    """
    if name not in registry:
        registry.get(name)


def _coerce(owner, name: str, spec_cls, required: bool = False) -> None:
    """Normalize nested-spec field ``name`` of the frozen ``owner``.

    Accepts the spec itself, its ``to_dict()`` form or — for the specs a
    registry name addresses (catalog, suite, engine) — the bare name.
    """
    value = getattr(owner, name)
    if isinstance(value, dict):
        value = spec_cls.from_dict(value)
    elif isinstance(value, str) and spec_cls in (CatalogSpec, EngineSpec,
                                                 SuiteSpec):
        value = spec_cls(value)
    object.__setattr__(owner, name, value)
    _require(isinstance(value, spec_cls) or (value is None and not required),
             f"{type(owner).__name__}.{name} must be a {spec_cls.__name__}, "
             f"got {type(value).__name__}")


#: description variants a CatalogSpec may select — mirror
#: repro.tools.schema.DESCRIPTION_VARIANTS (kept in sync by
#: tests/test_specs.py) so constructing a spec stays import-free
CATALOG_VARIANTS = ("full", "compressed", "minimal")


@dataclass(frozen=True)
class EngineSpec(_SpecBase):
    """Which LLM engine backs an agent, and how to reach it.

    ``name`` resolves through the engine registry
    (:data:`repro.registry.ENGINES`).  The default ``simulated`` engine
    is the deterministic in-process recommender and needs no other
    fields.  ``openai_http`` speaks the OpenAI-compatible
    chat-completions wire format (llama.cpp ``llama-server``, vLLM,
    Ollama, ...) and requires ``base_url``; ``wire_model`` is the model
    name sent on the wire when it differs from the repo's model id.

    The spec holds only plain data — live HTTP clients are constructed
    from it on each side of the process-pool boundary, never pickled.
    """

    name: str = "simulated"
    base_url: str | None = None
    wire_model: str | None = None
    api_key: str | None = None
    timeout_s: float = 30.0
    retries: int = 2
    retry_backoff_ms: float = 100.0
    max_tokens: int = 512
    temperature: float = 0.0

    def __post_init__(self):
        from repro.registry import ENGINES

        _require(bool(self.name), "EngineSpec.name must be a non-empty string")
        _require_registered(ENGINES, self.name)
        _require(self.name != "openai_http" or bool(self.base_url),
                 "EngineSpec(name='openai_http') requires base_url "
                 "(e.g. 'http://127.0.0.1:8080/v1')")
        _require_min(self, 0, "timeout_s", strict=True)
        _require_min(self, 0, "retries", "retry_backoff_ms", "temperature")
        _require_min(self, 1, "max_tokens")


@dataclass(frozen=True)
class CatalogSpec(_SpecBase):
    """Which tool catalog to present, under which description variant.

    ``name`` resolves through the catalog registry
    (:data:`repro.registry.CATALOGS`).  ``variant`` selects the per-tool
    description variant (``full`` | ``compressed`` | ``minimal`` — the
    paper's description-length lever); ``include`` optionally subsets to
    the named tools, preserving the catalog's registration order.
    """

    name: str
    variant: str = "full"
    include: tuple[str, ...] | None = None

    def __post_init__(self):
        _require(bool(self.name), "CatalogSpec.name must be a non-empty string")
        _require(self.variant in CATALOG_VARIANTS,
                 f"CatalogSpec.variant must be one of "
                 f"{', '.join(CATALOG_VARIANTS)}, got {self.variant!r}")
        if self.include is not None:
            object.__setattr__(self, "include", _as_tuple(self.include))
            _require(bool(self.include),
                     "CatalogSpec.include must name at least one tool "
                     "(or be None for the whole catalog)")

    def load(self):
        """Build the :class:`~repro.tools.catalog.ToolCatalog`."""
        from repro.tools.catalog import load_catalog

        return load_catalog(self.name, variant=self.variant,
                            include=self.include)


@dataclass(frozen=True)
class SuiteSpec(_SpecBase):
    """Which benchmark suite to load, and how big a query pool.

    ``name`` resolves through the suite registry
    (:data:`repro.registry.SUITES`), so registered third-party suites
    work everywhere built-ins do.  ``n_queries``/``seed`` default to the
    builder's own defaults (the paper's 230-query mini-batch, seed 0).
    ``catalog`` optionally re-tools the suite onto a
    :class:`CatalogSpec` (e.g. a compressed-variant pool); it is only
    forwarded to builders when set, so suite builders without a
    ``catalog`` parameter keep working.
    """

    name: str
    n_queries: int | None = None
    seed: int | None = None
    catalog: CatalogSpec | None = None

    def __post_init__(self):
        _require(bool(self.name), "SuiteSpec.name must be a non-empty string")
        _require_min(self, 1, "n_queries")
        _coerce(self, "catalog", CatalogSpec)

    def load(self):
        """Build the suite (and its catalog, if pinned) via the registries."""
        from repro.suites import load_suite

        catalog = self.catalog.load() if self.catalog is not None else None
        return load_suite(self.name, n_queries=self.n_queries, seed=self.seed,
                          catalog=catalog)


@dataclass(frozen=True)
class AgentSpec(_SpecBase):
    """One agent grid cell: scheme x model x quant, plus scheme knobs.

    ``scheme`` resolves through the scheme registry — ``default``,
    ``gorilla``, ``toolllm``, ``lis`` and the parameterized
    ``lis-k<N>`` forms out of the box.  The optional knobs are forwarded
    to the scheme factory only when set, so a spec carrying just
    ``(scheme, model, quant)`` builds every scheme with its own
    defaults; knobs a scheme does not accept raise its constructor's
    ``TypeError``.
    """

    scheme: str = "lis-k3"
    model: str = "llama3.1-8b"
    quant: str = "q4_K_M"
    k: int | None = None
    confidence_threshold: float | None = None
    force_level: int | None = None
    context_window: int | None = None
    engine: EngineSpec | None = None

    def __post_init__(self):
        _require(bool(self.scheme), "AgentSpec.scheme must be a non-empty string")
        _require(bool(self.model), "AgentSpec.model must be a non-empty string")
        _require(bool(self.quant), "AgentSpec.quant must be a non-empty string")
        _coerce(self, "engine", EngineSpec)
        _require_min(self, 1, "k")
        _require(self.force_level is None or self.force_level in (1, 2, 3),
                 f"AgentSpec.force_level must be 1, 2 or 3, got {self.force_level}")
        _require_min(self, 1024, "context_window")

    def agent_kwargs(self) -> dict:
        """The scheme-factory kwargs this spec pins (unset knobs omitted)."""
        kwargs = {}
        for name in ("k", "confidence_threshold", "force_level", "context_window"):
            value = getattr(self, name)
            if value is not None:
                kwargs[name] = value
        return kwargs


@dataclass(frozen=True)
class GridSpec(_SpecBase):
    """A scheme x model x quant sweep.

    Axis fields accept any iterable of names (or a comma-separated
    string) and normalize to tuples so the spec stays hashable and
    picklable.
    """

    schemes: tuple[str, ...] = ("default", "gorilla", "lis-k3")
    models: tuple[str, ...] = ("llama3.1-8b",)
    quants: tuple[str, ...] = ("q4_K_M",)
    n_queries: int | None = None

    def __post_init__(self):
        for axis in ("schemes", "models", "quants"):
            object.__setattr__(self, axis, _as_tuple(getattr(self, axis)))
            _require(bool(getattr(self, axis)),
                     f"GridSpec.{axis} must name at least one entry")
        _require_min(self, 1, "n_queries")

    @property
    def cells(self) -> tuple[tuple[str, str, str], ...]:
        """Every (scheme, model, quant) cell, in execution order."""
        return tuple((scheme, model, quant)
                     for model in self.models
                     for quant in self.quants
                     for scheme in self.schemes)


@dataclass(frozen=True)
class TenantSpec(_SpecBase):
    """One serving tenant: a name bound to a suite and its tool catalog.

    ``catalog`` overrides the suite's own catalog spec for this tenant —
    the declarative form of per-tenant tooling (e.g. one tenant on the
    ``compressed`` variant while another serves ``full``); it is also
    the baseline :meth:`~repro.serving.gateway.Gateway.update_catalog`
    hot-swaps away from.
    """

    name: str
    suite: SuiteSpec
    catalog: CatalogSpec | None = None
    engine: EngineSpec | None = None

    def __post_init__(self):
        _require(bool(self.name), "TenantSpec.name must be a non-empty string")
        _coerce(self, "suite", SuiteSpec, required=True)
        _coerce(self, "catalog", CatalogSpec)
        _coerce(self, "engine", EngineSpec)

    def effective_suite(self) -> SuiteSpec:
        """The suite spec with this tenant's catalog override applied."""
        if self.catalog is None:
            return self.suite
        return self.suite.replace(catalog=self.catalog)


@dataclass(frozen=True)
class ObsSpec(_SpecBase):
    """Observability configuration: tracing, sampling, slow-span marking.

    ``sink`` names a registered trace sink
    (:data:`repro.registry.TRACE_SINKS`): ``memory`` retains the last
    ``ring_capacity`` spans queryable by trace id, ``jsonl`` streams one
    JSON span per line to ``sink_path``, ``null`` discards spans (for
    measuring tracer overhead).  ``sample_rate`` selects the fraction of
    requests traced; the decision is derived from the deterministic
    trace id, so the sampled subset is reproducible run-to-run.
    ``slow_span_ms`` marks spans at or above the threshold with a
    ``slow`` attribute.
    """

    sink: str = "memory"
    sink_path: str | None = None
    sample_rate: float = 1.0
    slow_span_ms: float | None = None
    ring_capacity: int = 2048

    def __post_init__(self):
        from repro.registry import TRACE_SINKS

        _require(bool(self.sink), "ObsSpec.sink must be a non-empty string")
        _require_registered(TRACE_SINKS, self.sink)
        _require(0.0 <= self.sample_rate <= 1.0,
                 f"ObsSpec.sample_rate must be in [0, 1], "
                 f"got {self.sample_rate}")
        _require_min(self, 0, "slow_span_ms", strict=True)
        _require_min(self, 1, "ring_capacity")
        _require(self.sink != "jsonl" or bool(self.sink_path),
                 "ObsSpec(sink='jsonl') requires sink_path to name the "
                 "output file")


#: nvpmodel modes, fastest first — the keys of
#: repro.hardware.power_modes.POWER_MODES (from which
#: repro.power.budget.MODE_LADDER is derived), repeated here because
#: importing repro.hardware loads numpy and spec validation must not
#: (tests/test_specs.py holds both the mirror and the cheap import)
POWER_MODE_NAMES = ("MAXN", "30W", "15W")


@dataclass(frozen=True)
class BudgetSpec(_SpecBase):
    """Carbon/power budget: the knobs of the gateway's budget loop.

    Threading this through :class:`ServingSpec` makes the gateway build
    an :class:`~repro.power.budget.BudgetController`, which reads this
    spec directly: tenants whose rolling mean joules or gCO₂ per request
    exceed the budget step down the degradation ladder, and while the
    grid's carbon intensity is high the simulated board steps down
    nvpmodel power modes (MAXN → 30W → 15W), both climbing back with
    hysteresis.  Budget windows count requests (the last
    ``window_requests`` attributed per tenant), not seconds, so the
    whole loop is drivable deterministically without a clock.

    Parameters
    ----------
    energy_budget_j:
        Rolling-mean joules per request a tenant may spend before being
        stepped down a rung; ``None`` disables the energy budget.
    carbon_budget_g:
        Rolling-mean gCO₂ per request cap; ``None`` disables it.  At
        least one of the two budgets or ``intensity_high`` must be set.
    window_requests:
        How many recent requests the rolling means cover.
    settle_requests:
        Fresh records required after a ladder move before the tenant is
        judged again — the window must re-fill with evidence from the
        new rung, which is what prevents a stale window from racing a
        tenant all the way down the ladder.  Default: ``window_requests``
        (a full new window), resolved by
        :attr:`effective_settle_requests`.
    recovery_ticks:
        Consecutive under-budget ticks required before stepping a tenant
        back up (and low-intensity ticks before stepping the power mode
        back up).
    recovery_margin:
        Recovery additionally requires the rolling mean below
        ``budget * recovery_margin`` — the hysteresis band that keeps a
        tenant hovering at the cap from flapping.
    signal:
        A registered carbon signal
        (:data:`repro.registry.CARBON_SIGNALS`): ``static`` holds
        ``intensity_g_per_kwh`` flat, ``sinusoid`` swings ±
        ``intensity_amplitude`` around it over ``period_s`` (shifted by
        ``phase_s``), ``trace`` replays the grid-intensity CSV at
        ``trace_path``.
    intensity_high / intensity_low:
        gCO₂/kWh thresholds for the power-mode ladder: at or above
        ``intensity_high`` each tick steps the simulated board down one
        nvpmodel mode; at or below ``intensity_low`` (default
        ``intensity_high * recovery_margin``, resolved by
        :attr:`effective_intensity_low`) ticks count toward climbing
        back.  ``intensity_high=None`` disables mode stepping.
    min_power_mode:
        Deepest mode the controller may select (``"15W"`` allows the
        full MAXN → 30W → 15W descent; ``"MAXN"`` pins the board).
    interval_ms:
        Poll period of the async :meth:`BudgetController.run
        <repro.power.budget.BudgetController.run>` loop.
    """

    energy_budget_j: float | None = None
    carbon_budget_g: float | None = None
    window_requests: int = 32
    settle_requests: int | None = None
    recovery_ticks: int = 3
    recovery_margin: float = 0.8
    signal: str = "static"
    intensity_g_per_kwh: float = 400.0
    intensity_amplitude: float = 150.0
    period_s: float = 86400.0
    phase_s: float = 0.0
    trace_path: str | None = None
    intensity_high: float | None = None
    intensity_low: float | None = None
    min_power_mode: str = "15W"
    interval_ms: float = 100.0

    def __post_init__(self):
        from repro.registry import CARBON_SIGNALS

        _require(self.energy_budget_j is not None
                 or self.carbon_budget_g is not None
                 or self.intensity_high is not None,
                 "BudgetSpec needs at least one control: energy_budget_j, "
                 "carbon_budget_g or intensity_high")
        _require_min(self, 0, "energy_budget_j", "carbon_budget_g", "period_s",
                     "intensity_high", "interval_ms", strict=True)
        _require_min(self, 1, "window_requests", "settle_requests",
                     "recovery_ticks")
        _require_min(self, 0, "intensity_g_per_kwh", "intensity_amplitude")
        _require(0.0 < self.recovery_margin <= 1.0,
                 f"BudgetSpec.recovery_margin must be in (0, 1], "
                 f"got {self.recovery_margin}")
        _require_registered(CARBON_SIGNALS, self.signal)
        _require(self.signal != "trace" or bool(self.trace_path),
                 "BudgetSpec(signal='trace') requires trace_path to name "
                 "the grid-intensity CSV")
        _require(self.intensity_low is None
                 or self.intensity_high is not None,
                 "BudgetSpec.intensity_low requires intensity_high")
        # the *resolved* threshold is what must leave a hysteresis band
        # (recovery_margin=1.0 with no explicit intensity_low would not)
        _require(self.intensity_high is None
                 or 0.0 <= self.effective_intensity_low < self.intensity_high,
                 f"BudgetSpec.intensity_low must be in [0, intensity_high), "
                 f"got {self.effective_intensity_low}")
        _require(self.min_power_mode in POWER_MODE_NAMES,
                 f"BudgetSpec.min_power_mode must be one of "
                 f"{', '.join(POWER_MODE_NAMES)}, got {self.min_power_mode!r}")

    # late defaults resolve on read, never by mutating the fields:
    # replace() re-resolves them and to_dict() round-trips what was set
    @property
    def effective_settle_requests(self) -> int:
        return (self.settle_requests if self.settle_requests is not None
                else self.window_requests)

    @property
    def effective_intensity_low(self) -> float | None:
        if self.intensity_low is not None or self.intensity_high is None:
            return self.intensity_low
        return self.intensity_high * self.recovery_margin

    @property
    def interval_s(self) -> float:
        return self.interval_ms / 1e3


@dataclass(frozen=True)
class HttpSpec(_SpecBase):
    """Where the HTTP front door listens.

    ``port=0`` asks the OS for an ephemeral port (tests and benches bind
    this way and read the bound port back from the server).  ``backlog``
    is the listen-socket accept queue — connections beyond it are
    refused by the kernel before they ever reach the gateway's own
    admission control.

    The edge-hardening knobs are off by default: ``api_key`` requires
    ``Authorization: Bearer <key>`` on every endpoint except
    ``/healthz`` (missing/wrong keys get 401); ``rate_limit_rps``
    enforces a per-tenant token bucket on ``POST /v1/call`` (bucket
    capacity ``rate_limit_burst``, default the ceiling of one second of
    refill) answering 429 with a ``Retry-After`` header when drained.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    backlog: int = 128
    api_key: str | None = None
    rate_limit_rps: float | None = None
    rate_limit_burst: int | None = None

    def __post_init__(self):
        _require(bool(self.host), "HttpSpec.host must be a non-empty string")
        _require(0 <= self.port <= 65535,
                 f"HttpSpec.port must be in [0, 65535], got {self.port}")
        _require_min(self, 1, "backlog", "rate_limit_burst")
        _require(self.api_key is None or bool(self.api_key),
                 "HttpSpec.api_key must be a non-empty string (or None)")
        _require_min(self, 0, "rate_limit_rps", strict=True)
        _require(self.rate_limit_burst is None or self.rate_limit_rps is not None,
                 "HttpSpec.rate_limit_burst requires rate_limit_rps")


@dataclass(frozen=True)
class ServingSpec(_SpecBase):
    """Declarative gateway configuration: tenants + batching + execution.

    The one serving config type — :class:`~repro.serving.gateway.Gateway`,
    the micro-batch scheduler and the execution-backend factories read
    it directly.

    Parameters
    ----------
    tenants:
        The :class:`TenantSpec` entries :meth:`Session.serve
        <repro.session.Session.serve>` registers (names unique).  Empty
        serves the session's own suite as a single tenant.
    default_engine:
        :class:`EngineSpec` for tenants that do not pin their own;
        ``None`` is the simulated engine.
    max_batch_size:
        Cap on one micro-batch (and, inside a ``max_wait_ms`` window,
        the fill level that ends the wait early).  The planning stage of the whole batch runs through one vectorized
        ``encode``/``search_arrays`` pass, so larger batches amortize
        more kernel overhead at the cost of head-of-line latency.
    max_wait_ms:
        Opt-in coalescing window.  At the default ``0.0`` the scheduler
        is work-conserving: a free worker dispatches whatever is queued
        at once, and batches form only from the backlog that built up
        while the previous batch ran.  A positive value lets an *idle*
        worker hold the first request up to this long for co-batchable
        traffic — worth it only when a larger batch saves more CPU than
        the wait costs in latency (sparse arrivals that still come in
        near-simultaneous clumps); under sustained load the backlog
        fills batches without it.
    queue_capacity:
        Admission control — total requests allowed to wait across all
        tenants.  Submissions beyond it fail fast with
        :class:`~repro.serving.batcher.QueueFullError` instead of growing
        an unbounded backlog.
    default_scheme / default_model / default_quant:
        Agent grid cell used for requests that do not specify one.  Also
        the cell :meth:`~repro.serving.gateway.Gateway.update_catalog`
        warms against a hot-swapped tool catalog before the atomic swap,
        so default-cell traffic never pays the re-index on-path.
    execution_backend:
        Where the post-planning episode loop of a flushed batch runs.
        Resolved through the serving-backend registry
        (:data:`repro.registry.SERVING_BACKENDS`): ``"thread"`` (default)
        keeps it on the gateway's batch worker; ``"process"`` fans it out
        across a pool of worker processes
        (:class:`~repro.serving.process.SupervisedEpisodeExecutor`) —
        planning stays batched in the parent either way, and served
        results are bitwise identical across backends.
    execution_workers:
        Process count for the ``"process"`` backend (default: one per
        CPU).  Ignored by the thread backend.
    timeout_ms:
        End-to-end deadline per request, enforced by
        :meth:`~repro.serving.gateway.Gateway.submit` from admission
        through execution: a request that has not completed within this
        budget fails with
        :class:`~repro.serving.gateway.DeadlineExceededError` and — if
        it is still queued — is dropped before the next batch is cut, so
        no client future can hang forever behind a stalled worker.
        ``None`` (the default) disables the deadline.
    worker_init_timeout_s:
        How long :meth:`~repro.serving.process.SupervisedEpisodeExecutor.start`
        waits for every worker process to reach the init barrier before
        declaring the pool dead (the error reports how many workers made
        it).  Also bounds each respawn attempt after a worker crash.
    execution_retries:
        How many times the supervised process stage resubmits a failed
        worker slice (bounded backoff between attempts) before running
        it inline on the batch worker.  Results are bitwise identical
        either way — episodes are deterministic from plan + seeds — so
        this trades only latency against pool pressure.
    retry_backoff_ms:
        Base backoff between slice retries; attempt ``n`` waits
        ``n * retry_backoff_ms``.
    slice_timeout_s:
        Upper bound on one worker slice; a slice that exceeds it is
        treated like a worker crash (retried, then run inline) so a
        wedged worker cannot strand its micro-batch.  ``None`` disables
        the bound.
    plan_cache_size:
        When > 0, memoize up to this many ``(tenant, query, scheme,
        model, quant) -> plan`` results in an LRU cache, so a repeated
        identical request skips the recommender + retrieval stage
        entirely.  Plans are deterministic per query, so cached replies
        are bitwise identical to freshly planned ones.  0 (the default)
        disables memoization; hit/miss counts surface in
        :meth:`~repro.serving.telemetry.Telemetry.snapshot`.
    obs:
        Observability configuration (:class:`ObsSpec`): which trace sink
        to build, the sampling rate and the slow-span threshold.
        ``None`` (the default) disables tracing entirely — the serving
        hot path then carries a single ``is None`` check.  Tracing never
        changes served results; spans only observe.
    http:
        Bind address for the HTTP front door (:class:`HttpSpec`: host,
        port, listen backlog), used by ``repro serve`` and
        :func:`repro.serving.http.serve_gateway`.  ``None`` (the
        default) means the gateway is in-process only — the ASGI app
        itself works regardless (tests call it directly).
    budget:
        Carbon/power budget (:class:`BudgetSpec`): when set, the gateway
        runs a :class:`~repro.power.budget.BudgetController` that steps
        tenants down the degradation ladder on a rolling joule/gCO₂
        budget and the simulated board down nvpmodel power modes while
        grid carbon intensity is high.  ``None`` (the default) disables
        budget control; per-request energy/carbon attribution through
        the :class:`~repro.power.meter.EnergyMeter` is always on.
    """

    tenants: tuple[TenantSpec, ...] = ()
    default_engine: EngineSpec | None = None
    max_batch_size: int = 32
    max_wait_ms: float = 0.0
    queue_capacity: int = 256
    default_scheme: str = "lis-k3"
    default_model: str = "hermes2-pro-8b"
    default_quant: str = "q4_K_M"
    execution_backend: str = "thread"
    execution_workers: int | None = None
    plan_cache_size: int = 0
    timeout_ms: float | None = None
    worker_init_timeout_s: float = 60.0
    execution_retries: int = 2
    retry_backoff_ms: float = 50.0
    slice_timeout_s: float | None = 30.0
    obs: ObsSpec | None = None
    http: HttpSpec | None = None
    budget: BudgetSpec | None = None

    def __post_init__(self):
        from repro.registry import SERVING_BACKENDS

        tenants = tuple(
            TenantSpec.from_dict(t) if isinstance(t, dict) else t
            for t in self.tenants)
        object.__setattr__(self, "tenants", tenants)
        for tenant in tenants:
            _require(isinstance(tenant, TenantSpec),
                     f"ServingSpec.tenants entries must be TenantSpec, "
                     f"got {type(tenant).__name__}")
        names = [tenant.name for tenant in tenants]
        _require(len(names) == len(set(names)),
                 f"ServingSpec.tenants names must be unique, got {names}")
        _require_min(self, 1, "max_batch_size", "queue_capacity",
                     "execution_workers")
        _require_min(self, 0, "max_wait_ms", "plan_cache_size",
                     "execution_retries", "retry_backoff_ms")
        _require_min(self, 0, "timeout_ms", "worker_init_timeout_s",
                     "slice_timeout_s", strict=True)
        for field_name in ("default_scheme", "default_model", "default_quant"):
            _require(bool(getattr(self, field_name)),
                     f"ServingSpec.{field_name} must be a non-empty string")
        _require_registered(SERVING_BACKENDS, self.execution_backend)
        _coerce(self, "obs", ObsSpec)
        _coerce(self, "http", HttpSpec)
        _coerce(self, "budget", BudgetSpec)
        _coerce(self, "default_engine", EngineSpec)

    @property
    def max_wait_s(self) -> float:
        return self.max_wait_ms / 1e3

    @property
    def timeout_s(self) -> float | None:
        return self.timeout_ms / 1e3 if self.timeout_ms is not None else None


@dataclass(frozen=True)
class ExperimentSpec(_SpecBase):
    """The composite spec: suite + default agent + optional grid/serving.

    Everything is optional so a spec can describe exactly one facet —
    ``ExperimentSpec(suite=...)`` for interactive runs,
    ``ExperimentSpec(serving=...)`` for a gateway — but at least one of
    ``suite`` or ``serving`` must be present.
    """

    suite: SuiteSpec | None = None
    agent: AgentSpec | None = None
    grid: GridSpec | None = None
    serving: ServingSpec | None = None

    def __post_init__(self):
        for name, spec_cls in (("suite", SuiteSpec), ("agent", AgentSpec),
                               ("grid", GridSpec), ("serving", ServingSpec)):
            _coerce(self, name, spec_cls)
        _require(self.suite is not None or self.serving is not None,
                 "ExperimentSpec needs a suite (for run/run_grid) or a "
                 "serving spec (for serve)")


__all__ = [
    "AgentSpec",
    "BudgetSpec",
    "CatalogSpec",
    "EngineSpec",
    "ExperimentSpec",
    "GridSpec",
    "HttpSpec",
    "ObsSpec",
    "ServingSpec",
    "SuiteSpec",
    "TenantSpec",
]
