"""Typed, declarative experiment specs — the public configuration layer.

Every way of driving this repo — a single evaluation batch, a scheme x
model x quant grid, or the multi-tenant serving gateway — is described
by one of the frozen dataclasses below and executed through
:func:`repro.session.open_session`.  Specs are:

* **validated** at construction (fail fast, before any heavy work);
* **serializable** — ``to_dict()`` produces a plain JSON-compatible
  dict and ``from_dict()`` reconstructs an equal spec, nested specs
  included;
* **picklable** — they hold only strings, numbers and tuples.

This module imports nothing heavy, so ``from repro import AgentSpec``
stays cheap.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import MISSING, dataclass
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


def _field(default, help: str):
    """A field with its one-line ``help``, which ``repro.cli.FLAGS`` shows
    for the flag that sets it (``default=MISSING``: a required field)."""
    return dataclasses.field(default=default, metadata={"help": help})


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _require_name(owner, *names: str) -> None:
    """Each named field is a non-empty ``str``."""
    for name in names:
        value = getattr(owner, name)
        _require(isinstance(value, str) and bool(value),
                 f"{type(owner).__name__}.{name} must be a non-empty string, "
                 f"got {value!r}")


def _as_tuple(value) -> tuple:
    if isinstance(value, str):
        return tuple(part for part in value.split(",") if part)
    return tuple(value)


def _require_min(owner, bound, *names: str, strict: bool = False) -> None:
    """Each named numeric field is ``>= bound`` (``> bound`` if strict).

    ``None`` passes: optional fields use it for "unset".  The message
    names no ``None``: it is also the CLI's usage error for the field's
    flag, where the flag left out is the unset value.
    """
    for name in names:
        value = getattr(owner, name)
        if value is None or (value > bound if strict else value >= bound):
            continue
        raise ValueError(
            f"{type(owner).__name__}.{name} must be "
            f"{'>' if strict else '>='} {bound}, got {value}")


def _require_registered(owner, name: str, registry, value=None) -> None:
    """Field ``name`` (or ``value``, a name derived from it) resolves
    through ``registry``.

    Membership is import-free for the builtin names a registry declares;
    only an unknown name loads the implementing modules — through
    ``get``, whose error lists what *is* registered.
    """
    value = getattr(owner, name) if value is None else value
    if value not in registry:
        try:
            registry.get(value)
        except ValueError as error:   # name the field, as _require_* do
            raise ValueError(
                f"{type(owner).__name__}.{name}: {error}") from None


def _require_scheme(owner, name: str, scheme: str) -> None:
    """``scheme`` (field ``name``, or one entry of it) is a registered
    scheme, bare or with a ``-k<N>`` suffix naming k >= 1."""
    from repro.registry import SCHEMES, split_scheme

    base, k = split_scheme(scheme)
    _require_registered(owner, name, SCHEMES, base)
    _require(k is None or k >= 1,
             f"{type(owner).__name__}.{name} -k<N> suffix must be >= 1, "
             f"got {scheme!r}")


def _require_model(owner, name: str, model: str) -> None:
    """``model`` (field ``name``, or one entry of it) has a profile."""
    _require(model.lower() in MODEL_NAMES,
             f"{type(owner).__name__}.{name}: unknown model {model!r}; "
             f"choose from {', '.join(MODEL_NAMES)}")


def _require_quant(owner, name: str, quant: str) -> None:
    """``quant`` (field ``name``, or one entry of it) has a profile."""
    _require(quant in QUANT_NAMES,
             f"{type(owner).__name__}.{name}: unknown quantization "
             f"{quant!r}; choose from {', '.join(QUANT_NAMES)}")


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

    The spec holds only plain data; the engine opens a fresh connection
    per request from it.  Timeouts, retries and sampling are the
    constants of :mod:`repro.engines.openai_http`.
    """

    name: str = _field("simulated", "registered LLM engine: simulated (the "
                       "in-process recommender) or openai_http")
    base_url: str | None = _field(
        None, "base URL of an OpenAI-compatible server, e.g. "
              "http://127.0.0.1:8080/v1 (alone on the command line, it "
              "selects openai_http)")
    wire_model: str | None = None
    api_key: str | None = None

    def __post_init__(self):
        from repro.registry import ENGINES

        _require_name(self, "name")
        _require_registered(self, "name", ENGINES)
        _require(self.name != "openai_http" or bool(self.base_url),
                 "EngineSpec(name='openai_http') requires base_url "
                 "(e.g. 'http://127.0.0.1:8080/v1')")


@dataclass(frozen=True)
class CatalogSpec(_SpecBase):
    """Which tool catalog to present, under which description variant.

    ``name`` resolves through the catalog registry
    (:data:`repro.registry.CATALOGS`).  ``variant`` selects the per-tool
    description variant (``full`` | ``compressed`` | ``minimal`` — the
    paper's description-length lever).
    """

    name: str = _field(MISSING, "registered catalog name")
    variant: str = _field("full", "description variant: full, compressed "
                                  "or minimal")

    def __post_init__(self):
        from repro.registry import CATALOGS

        _require_name(self, "name")
        _require_registered(self, "name", CATALOGS)
        _require(self.variant in CATALOG_VARIANTS,
                 f"CatalogSpec.variant must be one of "
                 f"{', '.join(CATALOG_VARIANTS)}, got {self.variant!r}")

    def load(self):
        """Build the :class:`~repro.tools.catalog.ToolCatalog`."""
        from repro.tools.catalog import load_catalog

        return load_catalog(self.name, variant=self.variant)


@dataclass(frozen=True)
class SuiteSpec(_SpecBase):
    """Which benchmark suite to load, and how big a query pool.

    ``name`` resolves through the suite registry
    (:data:`repro.registry.SUITES`), so registered third-party suites
    work everywhere built-ins do.  ``seed`` defaults to the builder's
    own (0).  ``catalog`` optionally re-tools the suite onto a
    :class:`CatalogSpec` (e.g. a compressed-variant pool); it is only
    forwarded to builders when set, so suite builders without a
    ``catalog`` parameter keep working.
    """

    name: str = _field(MISSING, "registered benchmark suite")
    n_queries: int | None = _field(
        None, "queries in the pool; the builder's own default is the "
              "paper's 230-query mini-batch")
    seed: int | None = None
    catalog: CatalogSpec | None = None

    def __post_init__(self):
        _require_name(self, "name")
        for name in ("n_queries", "seed"):   # not a bool, float or str
            value = getattr(self, name)
            _require(value is None or (isinstance(value, numbers.Integral)
                                       and not isinstance(value, bool)),
                     f"SuiteSpec.{name} must be an integer, got {value!r}")
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
    ``lis-k<N>`` forms out of the box (the scheme name is the one way to
    say k).  The optional knobs are forwarded to the scheme factory only
    when set, so a spec carrying just ``(scheme, model, quant)`` builds
    every scheme with its own defaults; knobs a scheme does not accept
    raise its constructor's ``TypeError``.
    """

    scheme: str = _field("lis-k3", "registered scheme: default, gorilla, "
                                   "toolllm, lis or lis-k<N>")
    model: str = _field("llama3.1-8b", "model id")
    quant: str = _field("q4_K_M", "weight quantization, e.g. q8_0")
    confidence_threshold: float | None = None
    force_level: int | None = None
    engine: EngineSpec | None = None

    def __post_init__(self):
        _require_name(self, "scheme", "model", "quant")
        _require_scheme(self, "scheme", self.scheme)
        _require_model(self, "model", self.model)
        _require_quant(self, "quant", self.quant)
        _coerce(self, "engine", EngineSpec)
        _require(self.force_level is None or self.force_level in (1, 2, 3),
                 f"AgentSpec.force_level must be 1, 2 or 3, got {self.force_level}")

    def agent_kwargs(self) -> dict:
        """The scheme-factory kwargs this spec pins (unset knobs omitted)."""
        return {name: getattr(self, name)
                for name in ("confidence_threshold", "force_level")
                if getattr(self, name) is not None}


@dataclass(frozen=True)
class GridSpec(_SpecBase):
    """A scheme x model x quant sweep over the session's suite.

    Axis fields accept any iterable of names (or a comma-separated
    string) and normalize to tuples so the spec stays hashable and
    picklable.  The query pool is the suite's (``SuiteSpec.n_queries``).
    """

    schemes: tuple[str, ...] = _field(("default", "gorilla", "lis-k3"),
                                      "comma-separated scheme names")
    models: tuple[str, ...] = _field(("llama3.1-8b",),
                                     "comma-separated model ids")
    quants: tuple[str, ...] = _field(("q4_K_M",),
                                     "comma-separated quantizations")

    def __post_init__(self):
        for axis, vet in (("schemes", _require_scheme), ("models", _require_model),
                          ("quants", _require_quant)):
            object.__setattr__(self, axis, _as_tuple(getattr(self, axis)))
            _require(bool(getattr(self, axis)),
                     f"GridSpec.{axis} must name at least one entry")
            for entry in getattr(self, axis):
                vet(self, axis, entry)


@dataclass(frozen=True)
class TenantSpec(_SpecBase):
    """One serving tenant: a name bound to a suite and its LLM engine.

    Per-tenant tooling (e.g. one tenant on the ``compressed`` variant
    while another serves ``full``) is the suite's ``catalog``;
    ``engine=None`` is the simulated engine.
    """

    name: str
    suite: SuiteSpec
    engine: EngineSpec | None = None

    def __post_init__(self):
        _require_name(self, "name")
        _coerce(self, "suite", SuiteSpec, required=True)
        _coerce(self, "engine", EngineSpec)


@dataclass(frozen=True)
class ObsSpec(_SpecBase):
    """Observability configuration: tracing, sampling, slow-span marking.

    ``sink`` names a registered trace sink
    (:data:`repro.registry.TRACE_SINKS`): ``memory`` retains the last
    2048 spans queryable by trace id, ``jsonl`` streams one
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

    def __post_init__(self):
        from repro.registry import TRACE_SINKS

        _require_name(self, "sink")
        _require_registered(self, "sink", TRACE_SINKS)
        _require(0.0 <= self.sample_rate <= 1.0,
                 f"ObsSpec.sample_rate must be in [0, 1], "
                 f"got {self.sample_rate}")
        _require_min(self, 0, "slow_span_ms", strict=True)
        _require(self.sink != "jsonl" or bool(self.sink_path),
                 "ObsSpec(sink='jsonl') requires sink_path to name the "
                 "output file")


#: nvpmodel modes, fastest first — the keys of
#: repro.hardware.power_modes.POWER_MODES, repeated here for
#: ``repro profile --power-mode`` because importing repro.hardware loads
#: numpy and the CLI's parser must not (tests/test_specs.py holds both
#: the mirror and the cheap import)
POWER_MODE_NAMES = ("MAXN", "30W", "15W")

#: the paper's model ids (case-insensitive) and GGUF quantizations, by
#: which repro.llm.registry keys its profiles: vetted here without numpy
MODEL_NAMES = ("hermes2-pro-8b", "llama3.1-8b", "mistral-8b", "phi3-8b",
               "qwen2-1.5b", "qwen2-7b")
QUANT_NAMES = ("full", "q8_0", "q4_K_M", "q4_1", "q4_0")


#: the hysteresis band: a tenant climbs back a rung only with its rolling
#: mean under ``energy_budget_j * RECOVERY_MARGIN``, so a tenant hovering
#: at its cap never flaps
RECOVERY_MARGIN = 0.8


@dataclass(frozen=True)
class BudgetSpec(_SpecBase):
    """Energy budget: the knobs of the gateway's budget loop.

    Threading this through :class:`ServingSpec` makes the gateway build
    an :class:`~repro.power.budget.BudgetController`, which reads this
    spec directly: tenants whose rolling mean joules per request exceed
    ``energy_budget_j`` (the one required field) step down the serving
    ladder and climb back with hysteresis (:data:`RECOVERY_MARGIN`).
    The board serves at MAXN: there is no power-mode axis, since no
    lower mode saves enough joules per request to pay for its time
    (``tests/test_power_laws.py``).  gCO₂ is attributed and exported,
    never budgeted.  Budget windows count requests (the last
    ``window_requests`` attributed per tenant), not seconds, so the
    whole loop is drivable deterministically without a clock.

    Parameters
    ----------
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
        back up.
    signal:
        A registered carbon signal
        (:data:`repro.registry.CARBON_SIGNALS`): ``static`` holds
        ``intensity_g_per_kwh`` flat, ``trace`` replays the
        grid-intensity CSV at ``trace_path``.
    interval_ms:
        Poll period of the async :meth:`BudgetController.run
        <repro.power.budget.BudgetController.run>` loop.
    """

    energy_budget_j: float = _field(
        MISSING, "rolling-mean joules per request a tenant may spend before "
                 "it steps down a rung")
    window_requests: int = 32
    settle_requests: int | None = None
    recovery_ticks: int = 3
    signal: str = "static"
    intensity_g_per_kwh: float = 400.0
    trace_path: str | None = None
    interval_ms: float = 100.0

    def __post_init__(self):
        from repro.registry import CARBON_SIGNALS

        _require(self.energy_budget_j is not None,
                 "BudgetSpec.energy_budget_j is required")
        _require_min(self, 0, "energy_budget_j", "interval_ms", strict=True)
        _require_min(self, 1, "window_requests", "settle_requests",
                     "recovery_ticks")
        _require_min(self, 0, "intensity_g_per_kwh")
        _require_registered(self, "signal", CARBON_SIGNALS)
        _require(self.signal != "trace" or bool(self.trace_path),
                 "BudgetSpec(signal='trace') requires trace_path to name "
                 "the grid-intensity CSV")

    # late defaults resolve on read, never by mutating the fields:
    # replace() re-resolves them and to_dict() round-trips what was set
    @property
    def effective_settle_requests(self) -> int:
        return (self.settle_requests if self.settle_requests is not None
                else self.window_requests)

    @property
    def interval_s(self) -> float:
        return self.interval_ms / 1e3


@dataclass(frozen=True)
class HttpSpec(_SpecBase):
    """Where the HTTP front door listens.

    Tests and benches bind ``port=0`` and read the bound port back from
    the server.

    The edge-hardening knobs are off by default: ``api_key`` requires
    ``Authorization: Bearer <key>`` on every endpoint except
    ``/healthz`` (missing/wrong keys get 401); ``rate_limit_rps``
    enforces a per-tenant token bucket on ``POST /v1/call`` (bucket
    capacity ``rate_limit_burst``, default the ceiling of one second of
    refill) answering 429 with a ``Retry-After`` header when drained.
    """

    host: str = _field("127.0.0.1", "bind host")
    port: int = _field(8080, "bind port (0: an ephemeral one)")
    api_key: str | None = None
    rate_limit_rps: float | None = None
    rate_limit_burst: int | None = None

    def __post_init__(self):
        _require_name(self, "host")
        _require(0 <= self.port <= 65535,
                 f"HttpSpec.port must be in [0, 65535], got {self.port}")
        _require_min(self, 1, "rate_limit_burst")
        if self.api_key is not None:
            _require_name(self, "api_key")
        _require_min(self, 0, "rate_limit_rps", strict=True)
        _require(self.rate_limit_burst is None or self.rate_limit_rps is not None,
                 "HttpSpec.rate_limit_burst requires rate_limit_rps")


@dataclass(frozen=True)
class FaultPlan(_SpecBase):
    """Seeded description of a chaos scenario (``ServingSpec.faults``).

    Rates are per-invocation firing probabilities in ``[0, 1]`` at each
    hook of :class:`~repro.serving.faults.FaultInjector`; ``seed``
    namespaces every decision stream, so each plan replays exactly.
    """

    seed: int = 0
    slow_batch_rate: float = 0.0
    slow_batch_ms: float = 0.0
    exception_rate: float = 0.0

    def __post_init__(self):
        for name in ("slow_batch_rate", "exception_rate"):
            rate = getattr(self, name)
            _require(0.0 <= rate <= 1.0,
                     f"FaultPlan.{name} must be in [0, 1], got {rate}")
        _require_min(self, 0, "slow_batch_ms")

    @property
    def is_empty(self) -> bool:
        return self.slow_batch_rate == 0.0 and self.exception_rate == 0.0


@dataclass(frozen=True)
class ServingSpec(_SpecBase):
    """Declarative gateway configuration: tenants + batching + deadlines.

    The one serving config type — :class:`~repro.serving.gateway.Gateway`
    and the micro-batch scheduler read it directly.

    Parameters
    ----------
    tenants:
        The :class:`TenantSpec` entries :meth:`Session.serve
        <repro.session.Session.serve>` registers (names unique).  Empty
        serves the session's own suite as a single tenant on the
        simulated engine.
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
    obs:
        Observability configuration (:class:`ObsSpec`): which trace sink
        to build, the sampling rate and the slow-span threshold.
        ``None`` (the default) disables tracing entirely — the serving
        hot path then carries a single ``is None`` check.  Tracing never
        changes served results; spans only observe.
    http:
        Bind address for the HTTP front door (:class:`HttpSpec`: host,
        port and edge hardening), used by ``repro serve`` and
        :func:`repro.serving.http.serve_gateway`.  ``None`` (the
        default) means the gateway is in-process only — the ASGI app
        itself works regardless (tests call it directly).
    budget:
        Energy budget (:class:`BudgetSpec`): when set, the gateway
        runs a :class:`~repro.power.budget.BudgetController` that steps
        tenants down the serving ladder on a rolling joule budget.
        ``None`` (the default) disables
        budget control; per-request energy/carbon attribution through
        the :class:`~repro.power.meter.EnergyMeter` is always on.
    faults:
        Seeded fault injection (:class:`FaultPlan`) for chaos runs:
        batches stall and groups raise at the plan's rates.  ``None``
        (the default) or an empty plan leaves the hooks unarmed.
    """

    tenants: tuple[TenantSpec, ...] = ()
    max_batch_size: int = _field(
        32, "cap on one micro-batch: a free worker runs whatever is queued, "
            "so a batch is the backlog behind the running one")
    queue_capacity: int = 256
    default_scheme: str = "lis-k3"
    default_model: str = "hermes2-pro-8b"
    default_quant: str = "q4_K_M"
    plan_cache_size: int = _field(
        0, "entries of the LRU cache of (tenant, query, scheme, model, "
           "quant) plans; a cached reply is bitwise a fresh one (0: off)")
    timeout_ms: float | None = _field(
        None, "end-to-end deadline per request; past it the request fails "
              "and leaves the queue, so no client hangs (unset: none)")
    obs: ObsSpec | None = None
    http: HttpSpec | None = None
    budget: BudgetSpec | None = None
    faults: FaultPlan | None = None

    def __post_init__(self):
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
        _require_min(self, 1, "max_batch_size", "queue_capacity")
        _require_min(self, 0, "plan_cache_size")
        _require_min(self, 0, "timeout_ms", strict=True)
        _require_name(self, "default_scheme", "default_model", "default_quant")
        _require_scheme(self, "default_scheme", self.default_scheme)
        _require_model(self, "default_model", self.default_model)
        _require_quant(self, "default_quant", self.default_quant)
        _coerce(self, "obs", ObsSpec)
        _coerce(self, "http", HttpSpec)
        _coerce(self, "budget", BudgetSpec)
        _coerce(self, "faults", FaultPlan)

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
    "FaultPlan",
    "GridSpec",
    "HttpSpec",
    "ObsSpec",
    "ServingSpec",
    "SuiteSpec",
    "TenantSpec",
]
