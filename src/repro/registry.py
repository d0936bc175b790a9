"""Plugin registries: string-keyed dispatch for schemes, suites, backends.

Every name→implementation decision in the public surface goes through
one of the registries below, so a third-party scheme, benchmark suite,
engine or trace sink plugs in with a one-line decorator
instead of editing core files::

    from repro.registry import register_scheme

    @register_scheme("react")
    def build_react(model, quant, context, **kwargs):
        ...
        return agent

Built-in implementations self-register when their home module is
imported; each registry lists those modules and imports them lazily on
first lookup, so ``import repro.registry`` (and ``import repro``) stays
cheap and the import graph stays acyclic — this module imports nothing
from the rest of the package at module scope.

Unknown names raise a :class:`ValueError` that lists every registered
name, never a bare :class:`KeyError`.
"""

from __future__ import annotations

import importlib
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Callable


class Registry:
    """A string-keyed plugin table with decorator registration.

    Parameters
    ----------
    kind:
        Human-readable entry kind (``"scheme"``, ``"suite"``, ...) used
        in error messages.
    builtin_modules:
        Modules whose import registers the built-in entries.  They are
        imported (once) before the first lookup or listing, so built-ins
        are always visible without eagerly importing the heavy stack.
    builtin_names:
        Names those modules are known to register.  ``in`` checks against
        them succeed *without* triggering the import, so cheap layers
        (spec validation) can vet a name while only ``get()`` — the point
        of actual use — pays for loading the implementation.
    """

    def __init__(self, kind: str, builtin_modules: tuple[str, ...] = (),
                 builtin_names: tuple[str, ...] = ()):
        self.kind = kind
        self._builtin_modules = builtin_modules
        self._builtin_names = frozenset(name.lower() for name in builtin_names)
        self._entries: dict[str, Any] = {}
        # reentrant: importing a builtin module inside _ensure_builtins
        # re-enters the registry through its register() calls
        self._lock = threading.RLock()
        self._builtins_loaded = not builtin_modules
        self._builtins_loading = False

    def _ensure_builtins(self) -> None:
        if self._builtins_loaded:
            return
        with self._lock:
            if self._builtins_loaded or self._builtins_loading:
                # loaded, or a builtin module is looking the registry up
                # mid-import on this thread (the RLock lets it through) —
                # don't recurse into the import
                return
            self._builtins_loading = True
            try:
                for module in self._builtin_modules:
                    importlib.import_module(module)
            finally:
                self._builtins_loading = False
            # only now: a failed import leaves the registry retryable
            # (and the error visible) instead of silently empty, and a
            # concurrent thread blocked on the lock above never observes
            # a half-populated table
            self._builtins_loaded = True

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name: str, obj: Any = None, *, replace: bool = False):
        """Register ``obj`` under ``name`` (case-insensitive).

        With ``obj`` omitted, acts as a decorator::

            @SCHEMES.register("lis")
            def build_lis(...): ...

        Duplicate names raise :class:`ValueError` unless ``replace=True``
        (the hook for plugins that deliberately override a built-in).
        """
        key = name.lower()

        def _install(value: Any) -> Any:
            with self._lock:
                if not replace and key in self._entries:
                    raise ValueError(
                        f"{self.kind} {name!r} is already registered; pass "
                        f"replace=True to override it")
                self._entries[key] = value
            return value

        if obj is None:
            return _install
        return _install(obj)

    def unregister(self, name: str) -> None:
        """Remove an entry (mainly for tests tearing down plugins)."""
        with self._lock:
            self._entries.pop(name.lower(), None)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> Any:
        """Return the entry for ``name`` or raise an actionable error."""
        self._ensure_builtins()
        try:
            return self._entries[name.lower()]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; registered {self.kind}s: "
                f"{', '.join(self.names()) or '(none)'}") from None

    def names(self) -> list[str]:
        """Sorted registered names."""
        self._ensure_builtins()
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        key = name.lower()
        # declared builtin names answer without importing anything, so
        # spec/config validation stays cheap; only unknown names force
        # the builtin load (to give a definitive answer)
        if key in self._builtin_names or key in self._entries:
            return True
        self._ensure_builtins()
        return key in self._entries


# ----------------------------------------------------------------------
# the public registries
# ----------------------------------------------------------------------
#: scheme name -> agent factory ``f(model, quant, context, **kwargs)``
SCHEMES = Registry("scheme", builtin_modules=(
    "repro.baselines", "repro.core.pipeline"))

#: suite name -> builder ``f(n_queries=..., seed=...) -> BenchmarkSuite``
SUITES = Registry("suite", builtin_modules=("repro.suites",))

#: catalog name -> zero-arg builder returning a
#: :class:`~repro.tools.catalog.ToolCatalog` (full variant).  Resolve via
#: :func:`repro.tools.catalog.load_catalog`, which also applies
#: description variants.
CATALOGS = Registry("catalog", builtin_modules=(
    "repro.suites.bfcl_catalog", "repro.suites.geoengine_catalog",
    "repro.suites.edgehome", "repro.suites.browser"),
    builtin_names=("bfcl", "geoengine", "edgehome", "browser"))

#: trace sink name -> factory ``f(obs_spec) -> sink`` where the sink
#: satisfies the :class:`~repro.obs.sinks.TraceSink` protocol
#: (``emit(span)``).  Resolved by :func:`repro.obs.trace.build_tracer`
#: when a gateway is configured with an :class:`~repro.specs.ObsSpec`.
TRACE_SINKS = Registry("trace sink", builtin_modules=(
    "repro.obs.sinks",),
    builtin_names=("memory", "jsonl", "null"))

#: engine name -> factory ``f(spec, model, quant) -> llm`` returning an
#: agent-facing LLM (the :class:`~repro.llm.engine.SimulatedLLM`
#: surface: ``model``/``quant``/``name``, ``recommend_tools``,
#: ``execute_step``).  ``spec`` is the :class:`~repro.specs.EngineSpec`
#: carrying connection/decoding knobs.  The ``simulated`` engine is the
#: deterministic default; ``openai_http`` drives any OpenAI-compatible
#: chat-completions server (llama.cpp ``llama-server``, vLLM, Ollama).
ENGINES = Registry("engine", builtin_modules=("repro.engines",),
                   builtin_names=("simulated", "openai_http"))

#: carbon signal name -> factory ``f(budget_spec) -> signal`` where the
#: signal satisfies the :mod:`repro.power.signals` protocol
#: (``intensity(t_s) -> gCO₂/kWh``, a pure function of time).  Resolved
#: by :func:`repro.power.signals.build_signal` when a gateway is
#: configured with a :class:`~repro.specs.BudgetSpec`.
CARBON_SIGNALS = Registry("carbon signal", builtin_modules=(
    "repro.power.signals",),
    builtin_names=("static", "trace"))


def register_scheme(name: str, factory: Callable | None = None, *,
                    replace: bool = False):
    """Register an agent-construction factory for a scheme name.

    The factory signature is ``factory(model, quant, context, **kwargs)``
    where ``context`` is a :class:`SchemeContext` carrying the suite, the
    embedder and lazily-built Search Levels.
    """
    return SCHEMES.register(name, factory, replace=replace)


def register_suite(name: str, builder: Callable | None = None, *,
                   replace: bool = False):
    """Register a suite builder ``f(n_queries=..., seed=...)`` by name."""
    return SUITES.register(name, builder, replace=replace)


def register_trace_sink(name: str, factory: Callable | None = None, *,
                        replace: bool = False):
    """Register a trace-sink factory ``f(obs_spec) -> sink``.

    The factory receives the full :class:`~repro.specs.ObsSpec` (ring
    capacity, output path, ...) and returns an object with
    ``emit(span)``; a third-party exporter plugs in here and becomes
    addressable as ``ObsSpec(sink="<name>")``.
    """
    return TRACE_SINKS.register(name, factory, replace=replace)


def register_carbon_signal(name: str, factory: Callable | None = None, *,
                           replace: bool = False):
    """Register a carbon-signal factory ``f(budget_spec) -> signal``.

    The factory receives the full :class:`~repro.specs.BudgetSpec`
    (intensity level, curve shape, trace path, ...) and returns an
    object with ``intensity(t_s) -> float`` (gCO₂/kWh, a pure function
    of time); a third-party grid feed plugs in here and becomes
    addressable as ``BudgetSpec(signal="<name>")``.
    """
    return CARBON_SIGNALS.register(name, factory, replace=replace)


def register_engine(name: str, factory: Callable | None = None, *,
                    replace: bool = False):
    """Register an engine factory ``f(spec, model, quant) -> llm``.

    The factory receives the :class:`~repro.specs.EngineSpec` plus the
    repo-side model/quant names and returns an agent-facing LLM object
    exposing the ``SimulatedLLM`` surface (``model``, ``quant``,
    ``name``, ``recommend_tools``, ``execute_step``).  Factories build
    from the plain-data spec alone — never capture live sockets at
    registration time.
    """
    return ENGINES.register(name, factory, replace=replace)


def register_catalog(name: str, builder: Callable | None = None, *,
                     replace: bool = False):
    """Register a tool-catalog builder by name.

    The builder takes no arguments and returns the catalog's **full**
    variant; shrunken variants are derived on load.  Suites declare a
    catalog name instead of constructing tools inline, so replacing a
    registered catalog (``replace=True``) re-tools every suite and
    tenant *built after* the replacement; already-constructed suites
    and live serving tenants keep their catalog — hot-swap those with
    ``Gateway.update_catalog``.
    """
    return CATALOGS.register(name, builder, replace=replace)


# ----------------------------------------------------------------------
# scheme name resolution
# ----------------------------------------------------------------------
@dataclass
class SchemeContext:
    """What a scheme factory may draw on when building an agent.

    ``levels`` is computed on first access (and at most once), so
    schemes that never search — ``default``, ``toolllm`` — don't pay the
    offline Search-Level build.  A context created from a bare suite
    (no ``levels_fn``) builds its own Search Levels on demand, so every
    context can serve every scheme; callers that already hold an offline
    index (the :class:`~repro.evaluation.runner.ExperimentRunner`) pass
    ``levels_fn`` to share it.

    ``embedder`` is the one the Search Levels, the agent's retrieval and
    a simulated LLM encode through (``None``: ``shared_embedder()``).

    ``engine`` (an :class:`~repro.specs.EngineSpec`, or ``None`` for the
    default simulated engine) names the LLM backend; scheme factories
    construct their LLM through :meth:`build_llm` so every scheme honors
    the engine selection without knowing the engine table.
    """

    suite: Any
    embedder: Any = None
    levels_fn: Callable[[], Any] | None = field(default=None, repr=False)
    engine: Any = None
    _levels: Any = field(default=None, repr=False)

    def build_llm(self, model: str, quant: str):
        """Build the agent-facing LLM for this context's engine.

        ``engine=None`` short-circuits to the simulated engine without
        touching the registry.  A simulated LLM, however it was built,
        encodes through this context's embedder, so a query planning
        already embedded is never embedded again for the model's turns.
        """
        from repro.llm.engine import SimulatedLLM

        if self.engine is None:
            llm = SimulatedLLM.from_registry(model, quant)
        else:
            from repro.engines import build_engine_llm
            llm = build_engine_llm(self.engine, model, quant)
        if isinstance(llm, SimulatedLLM) and self.embedder is not None:
            llm.embedder = self.embedder
        return llm

    @property
    def levels(self):
        if self._levels is None:
            if self.levels_fn is not None:
                self._levels = self.levels_fn()
            else:
                from repro.core.levels import SearchLevelBuilder

                self._levels = SearchLevelBuilder(self.embedder).build(self.suite)
        return self._levels


_PARAMETERIZED = re.compile(r"^(?P<base>.+)-k(?P<k>\d+)$")


def resolve_scheme(name: str) -> tuple[Callable, dict]:
    """Resolve a scheme name to ``(factory, implied_kwargs)``.

    Exact registered names win; otherwise a ``<scheme>-k<N>`` suffix
    parameterizes a registered base scheme with ``k=N`` (the idiom
    behind ``lis-k3`` / ``lis-k5``).  Unknown names raise a
    :class:`ValueError` listing every registered scheme.
    """
    key = name.lower()
    if key in SCHEMES:
        return SCHEMES.get(key), {}
    match = _PARAMETERIZED.match(key)
    if match and match.group("base") in SCHEMES:
        return SCHEMES.get(match.group("base")), {"k": int(match.group("k"))}
    raise ValueError(
        f"unknown scheme {name!r}; registered schemes: "
        f"{', '.join(SCHEMES.names()) or '(none)'} "
        f"(a '-k<N>' suffix parameterizes any of them, e.g. 'lis-k5')")


def build_scheme(name: str, model: str, quant: str,
                 context: SchemeContext, **kwargs):
    """Construct the agent for ``name`` through the scheme registry.

    A parameter implied by the scheme name (``lis-k5`` → ``k=5``) and an
    explicit kwarg must agree — a silent override would let a
    ``session.build_agent("lis-k3", k=5)`` run with ``k=5`` while every
    report labels it ``lis-k3``.
    """
    factory, implied = resolve_scheme(name)
    for key, value in implied.items():
        if key in kwargs and kwargs[key] != value:
            raise ValueError(
                f"scheme {name!r} implies {key}={value} but {key}="
                f"{kwargs[key]} was passed explicitly; drop the name "
                f"suffix or the explicit parameter")
    return factory(model, quant, context, **{**implied, **kwargs})
