"""The ``Session`` facade: one entrypoint for run / grid / serve.

A session binds a validated :class:`~repro.specs.ExperimentSpec` to the
shared runtime state every execution path needs — one
:class:`~repro.embedding.cache.CachedEmbedder` and one lazily-built set
of Search Levels per suite — and exposes the three ways of driving the
stack:

* :meth:`Session.run` — one (scheme, model, quant) evaluation batch;
* :meth:`Session.run_grid` — a scheme x model x quant sweep;
* :meth:`Session.serve` — the async multi-tenant micro-batching
  gateway.

Quickstart::

    from repro import AgentSpec, open_session

    session = open_session("bfcl", n_queries=20)
    run = session.run(AgentSpec(scheme="lis-k3", model="llama3.1-8b"))
    print(run.summary)

Heavy submodules (evaluation, serving) are imported inside methods so
``from repro import open_session`` stays cheap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.specs import (
    AgentSpec,
    ExperimentSpec,
    GridSpec,
    ServingSpec,
    SuiteSpec,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evaluation.runner import EvaluationRun, ExperimentRunner
    from repro.serving.gateway import Gateway
    from repro.suites.base import BenchmarkSuite


class Session:
    """Shared-state facade over one experiment spec.

    The session owns the embedder cache and the per-suite
    :class:`~repro.evaluation.runner.ExperimentRunner` (and through it
    the offline Search Levels), so every agent built here — across
    ``run``, ``run_grid`` and repeated calls — reuses the same warmed
    state, exactly like the paper's one-time offline step.

    Construct via :func:`open_session` rather than directly.
    """

    def __init__(self, spec: ExperimentSpec, *, embedder=None,
                 suite: "BenchmarkSuite | None" = None):
        if not isinstance(spec, ExperimentSpec):
            raise TypeError(
                f"Session expects an ExperimentSpec, got {type(spec).__name__}; "
                f"use repro.open_session(...) to build one from a suite name "
                f"or sub-spec")
        self.spec = spec
        self._embedder = embedder
        self._suite = suite
        self._runner: "ExperimentRunner | None" = None

    # ------------------------------------------------------------------
    # shared state
    # ------------------------------------------------------------------
    @property
    def embedder(self):
        """The session-wide embedding cache (created on first use)."""
        if self._embedder is None:
            from repro.embedding.cache import shared_embedder

            self._embedder = shared_embedder()
        return self._embedder

    @property
    def suite(self) -> "BenchmarkSuite":
        """The session's benchmark suite (loaded on first use)."""
        if self._suite is None:
            if self.spec.suite is None:
                raise ValueError(
                    "this session has no suite: open it with a suite name / "
                    "SuiteSpec, or use .serve() with tenant specs")
            self._suite = self.spec.suite.load()
        return self._suite

    @property
    def runner(self) -> "ExperimentRunner":
        """The shared :class:`ExperimentRunner` over :attr:`suite`."""
        if self._runner is None:
            from repro.evaluation.runner import ExperimentRunner

            self._runner = ExperimentRunner(self.suite, embedder=self.embedder)
        return self._runner

    @property
    def levels(self):
        """The suite's offline-built Search Levels (built on first use)."""
        return self.runner.levels

    # ------------------------------------------------------------------
    # agents
    # ------------------------------------------------------------------
    def _agent_spec(self, agent: "AgentSpec | str | None") -> AgentSpec:
        if agent is None:
            if self.spec.agent is None:
                raise ValueError(
                    "no AgentSpec: pass one to this call or put one in the "
                    "session's ExperimentSpec")
            return self.spec.agent
        if isinstance(agent, str):
            base = self.spec.agent if self.spec.agent is not None else AgentSpec()
            return base.replace(scheme=agent)
        return agent

    def build_agent(self, agent: "AgentSpec | str | None" = None, **kwargs):
        """Construct the agent for a spec (or scheme-name shorthand).

        ``kwargs`` are forwarded to the scheme factory on top of the
        spec's own knobs — the escape hatch for scheme parameters that
        have no spec field (e.g. ``skill_multiplier``).
        """
        spec = self._agent_spec(agent)
        if spec.engine is not None:
            kwargs.setdefault("engine", spec.engine)
        return self.runner.make_agent(spec.scheme, spec.model, spec.quant,
                                      **{**spec.agent_kwargs(), **kwargs})

    # ------------------------------------------------------------------
    # the three entrypoints
    # ------------------------------------------------------------------
    def run(self, agent: "AgentSpec | str | None" = None, *,
            n_queries: int | None = None, **kwargs) -> "EvaluationRun":
        """Run one evaluation batch for one agent grid cell."""
        spec = self._agent_spec(agent)
        if spec.engine is not None:
            kwargs.setdefault("engine", spec.engine)
        return self.runner.run(spec.scheme, spec.model, spec.quant,
                               n_queries=n_queries,
                               **{**spec.agent_kwargs(), **kwargs})

    def run_grid(self, grid: "GridSpec | None" = None) -> dict:
        """Run a scheme x model x quant grid, cell by cell.

        Returns ``{(scheme, model, quant): EvaluationRun}`` exactly like
        :meth:`ExperimentRunner.run_grid`.
        """
        if grid is None:
            grid = self.spec.grid
        if grid is None:
            raise ValueError(
                "no GridSpec: pass one to run_grid or put one in the "
                "session's ExperimentSpec")
        return self.runner.run_grid(
            list(grid.schemes), list(grid.models), list(grid.quants),
            n_queries=grid.n_queries)

    def serve(self, serving: "ServingSpec | None" = None) -> "Gateway":
        """Wire the serving gateway this spec describes (unstarted).

        Tenants come from the serving spec; when it names none and the
        session has a suite, that suite is served as a single tenant
        under its own name.  Drive the result with ``async with``::

            async with session.serve() as gateway:
                response = await gateway.submit(tenant, query)
        """
        from repro.serving.gateway import Gateway
        from repro.serving.session import SessionManager

        if serving is None:
            serving = self.spec.serving
        if serving is None:
            serving = ServingSpec()
        sessions = SessionManager(embedder=self.embedder)
        if serving.tenants:
            for tenant in serving.tenants:
                # the tenant's CatalogSpec override (variant / subset /
                # replacement pool) is applied declaratively at load time;
                # a tenant-level engine wins over the serving default
                engine = (tenant.engine if tenant.engine is not None
                          else serving.default_engine)
                sessions.register(tenant.name, tenant.effective_suite().load(),
                                  engine=engine)
        else:
            sessions.register(self.suite.name, self.suite,
                              engine=serving.default_engine)
        return Gateway(sessions, config=serving)


def open_session(spec: Any = None, *, suite: Any = None,
                 n_queries: int | None = None, seed: int | None = None,
                 embedder=None) -> Session:
    """Open a :class:`Session` — the single entrypoint to the stack.

    ``spec`` may be:

    * an :class:`~repro.specs.ExperimentSpec` (used as-is);
    * a :class:`~repro.specs.SuiteSpec` or a suite name string —
      ``open_session("bfcl", n_queries=20)``;
    * a :class:`~repro.specs.ServingSpec` — a serving-only session;
    * a dict, decoded via :meth:`ExperimentSpec.from_dict`;
    * ``None`` with ``suite=`` a ready-built
      :class:`~repro.suites.base.BenchmarkSuite` instance (the
      bring-your-own-tools path — no registry entry needed).

    ``embedder`` overrides the shared process-wide embedding cache
    (useful for isolation in benchmarks and tests); it is then the only
    embedder the session's agents, simulated LLMs and Search Levels use.
    """
    suite_obj = None
    if spec is None and suite is not None and not isinstance(suite, (str, SuiteSpec)):
        # a constructed BenchmarkSuite rides alongside a placeholder spec
        suite_obj = suite
        spec = ExperimentSpec(suite=SuiteSpec(name=getattr(suite, "name", "custom")))
    elif spec is None and suite is not None:
        spec = suite
    if isinstance(spec, str):
        spec = SuiteSpec(name=spec, n_queries=n_queries, seed=seed)
    elif n_queries is not None or seed is not None:
        # anything other than a bare suite name already pins (or cannot
        # express) these; dropping them silently would hand back a
        # session over a very different query pool
        raise ValueError(
            "n_queries/seed only apply when opening a session from a suite "
            "name; set them on the SuiteSpec instead")
    if isinstance(spec, SuiteSpec):
        spec = ExperimentSpec(suite=spec)
    elif isinstance(spec, ServingSpec):
        spec = ExperimentSpec(serving=spec)
    elif isinstance(spec, dict):
        spec = ExperimentSpec.from_dict(spec)
    if spec is None:
        raise ValueError(
            "open_session needs an ExperimentSpec, a SuiteSpec/suite name, a "
            "ServingSpec, or suite=<BenchmarkSuite>")
    return Session(spec, embedder=embedder, suite=suite_obj)


__all__ = ["Session", "open_session"]
