"""Multi-tenant session state: per-tenant tool catalogs and Search Levels.

Each tenant is one :class:`~repro.suites.base.BenchmarkSuite` — its own
tool catalog, offline-built Search Levels and lazily-constructed agent
grid cells.  Tenants share a single lock-protected
:class:`~repro.embedding.cache.CachedEmbedder`, so the vector for a
given text is computed once across the whole gateway regardless of which
tenant first asked for it.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque

from repro.embedding.cache import CachedEmbedder
from repro.evaluation.runner import ExperimentRunner
from repro.suites.base import BenchmarkSuite, Query


class UnknownTenantError(KeyError):
    """Raised when a request names a tenant that was never registered."""


class TenantSession:
    """One tenant's serving state: suite, Search Levels, agent cache, and
    every piece of control-plane state the gateway keeps per tenant.

    Agents are constructed lazily per ``(scheme, model, quant)`` cell via
    the tenant's :class:`ExperimentRunner` (so Search Levels are built
    once and shared, exactly like the offline evaluation path) and cached
    for reuse across requests.

    The tool catalog is hot-swappable: :meth:`swap_catalog` re-tools the
    suite, re-indexes the Search Levels and drops the agent cache in one
    atomic reference swap, and :attr:`catalog_version` — returned
    together with the agent by :meth:`leased_agent` — keys the gateway's
    plan cache so a plan computed against one catalog can never be
    replayed against another.

    The control-plane state lives here too, so it lives exactly as long
    as the registration: the gateway resolves the session once, at
    ``submit``, and every later step of the request (planning, episode,
    energy accounting) writes to that object.  A tenant re-registered
    under the same name is a new session and starts clean, while the
    removed one's late work lands on its own dead record.
    """

    def __init__(self, name: str, suite: BenchmarkSuite, embedder: CachedEmbedder,
                 engine=None):
        self.name = name
        self.suite = suite
        self.engine = engine
        self.runner = ExperimentRunner(suite, embedder=embedder, engine=engine)
        self._agents: dict[tuple[str, str, str], object] = {}
        self._lock = threading.Lock()
        self._index_queries(suite)
        #: registration number, set by :meth:`SessionManager.register`;
        #: the plan cache's tenant slot, so no successor reaches these plans
        self.incarnation = 0
        #: qid -> requests submitted so far (the trace ids' repeat)
        self.repeats: dict[str, int] = {}
        #: index into ``repro.power.budget.RUNGS``; only the
        #: BudgetController moves it
        self.rung = 0
        #: the EnergyMeter's rolling window and the records ever attributed
        self.energy_window: deque = deque()
        self.energy_requests = 0
        #: the BudgetController's recovery and shed-probation streaks, and
        #: ``energy_requests`` at its last ladder move
        self.clear_streak = self.shed_streak = self.settle_mark = 0
        #: the HTTP edge's token bucket, ``(tokens, last refill)``, set
        #: on the first rate-limited call (``http.limits.RateLimiter``)
        self.rate_bucket: tuple[float, float] | None = None

    def _index_queries(self, suite: BenchmarkSuite) -> None:
        """(Re)build the qid and exact-text lookup maps for ``suite``."""
        self._queries_by_qid = {query.qid: query for query in suite.queries}
        self._queries_by_text = {query.text: query for query in suite.queries}

    @property
    def catalog_version(self) -> str:
        """Content-hash version of the currently served tool catalog."""
        return self.suite.catalog.version

    def agent_for(self, scheme: str, model: str, quant: str):
        """Return (building if needed) the agent for one grid cell."""
        return self.leased_agent(scheme, model, quant)[0]

    def leased_agent(self, scheme: str, model: str,
                     quant: str) -> tuple[object, str]:
        """``(agent, catalog_version)`` under one lock acquisition.

        The pair is consistent by construction: a concurrent
        :meth:`swap_catalog` lands either entirely before (new agent +
        new version) or entirely after (old agent + old version), so the
        gateway never caches a plan under the wrong catalog version.
        """
        key = (scheme, model, quant)
        with self._lock:
            agent = self._agents.get(key)
            if agent is None:
                agent = self.runner.make_agent(scheme, model, quant)
                self._agents[key] = agent
            return agent, self.suite.catalog.version

    def swap_catalog(self, catalog, warm_cell: tuple[str, str, str] | None = None):
        """Atomically re-tool this tenant onto ``catalog``.

        The expensive work — re-validating gold calls against the new
        catalog, re-building the Search Levels over the new description
        corpus, warming the default agent cell — happens *before* the
        swap, on the caller's thread, against fresh objects; the running
        state is then replaced in one lock-protected reference swap, so
        concurrent :meth:`leased_agent` callers see either the complete
        old state or the complete new state, never a mix.

        Returns the new catalog version.  A catalog that dropped a tool
        the query pool still references fails validation here, leaving
        the tenant untouched.
        """
        new_suite = self.suite.with_catalog(catalog)  # validates gold calls
        new_runner = ExperimentRunner(new_suite, embedder=self.runner.embedder,
                                      engine=self.engine)
        _ = new_runner.levels  # re-index now, not on the first request
        new_runner.embedder.encode_corpus(new_suite.catalog.descriptions())
        new_agents: dict[tuple[str, str, str], object] = {}
        if warm_cell is not None:
            new_agents[warm_cell] = new_runner.make_agent(*warm_cell)
        with self._lock:
            self.suite = new_suite
            self.runner = new_runner
            self._agents = new_agents
            self._index_queries(new_suite)
        return new_suite.catalog.version

    def resolve_query(self, query: Query | str) -> Query:
        """Accept a :class:`Query` or a qid string from this tenant's suite."""
        if isinstance(query, Query):
            return query
        try:
            return self._queries_by_qid[query]
        except KeyError:
            raise KeyError(
                f"tenant {self.name!r} has no query with qid {query!r}") from None

    def resolve_text(self, text: str) -> Query:
        """Find the suite query whose text matches ``text`` exactly.

        Episodes are only defined for queries with gold calls, so the
        HTTP edge serves suite queries by qid *or* by their exact text —
        free-form text has no ground truth to score against.
        """
        try:
            return self._queries_by_text[text]
        except KeyError:
            raise KeyError(
                f"tenant {self.name!r} has no query with text {text!r}; "
                f"address suite queries by qid or their exact text") from None

    def warm(self, scheme: str, model: str, quant: str) -> None:
        """Build levels, the agent and the tool-corpus embeddings up front.

        Serving latency should not pay the one-time offline cost on the
        first request, so the gateway warms every registered tenant's
        default cell before accepting traffic.  The descriptions are
        encoded on the session's embedder, which every agent's simulated
        LLM reads them from when it scores a presented set, whatever the
        scheme (the paper's baseline agent has no retrieval of its own).
        """
        self.agent_for(scheme, model, quant)
        self.runner.embedder.encode_corpus(self.suite.catalog.descriptions())


class SessionManager:
    """Registry of tenants sharing one embedder cache.

    Thread-safe: tenants may be registered while the gateway serves
    (e.g. onboarding a new tool catalog), and lookups happen from both
    the event loop and the batch worker.
    """

    def __init__(self, embedder: CachedEmbedder | None = None):
        self.embedder = embedder if embedder is not None else CachedEmbedder()
        self._tenants: dict[str, TenantSession] = {}
        self._incarnations = itertools.count(1)
        self._lock = threading.Lock()

    def register(self, name: str, suite: BenchmarkSuite,
                 engine=None) -> TenantSession:
        """Add a tenant serving ``suite``; duplicate names are an error.

        ``engine`` (an :class:`~repro.specs.EngineSpec`, or ``None`` for
        the simulated default) selects the LLM backend for every agent
        this tenant builds — including after catalog hot-swaps.
        """
        with self._lock:
            if name in self._tenants:
                raise ValueError(f"tenant {name!r} already registered")
            session = TenantSession(name, suite, self.embedder, engine=engine)
            session.incarnation = next(self._incarnations)
            self._tenants[name] = session
            return session

    def deregister(self, name: str) -> None:
        """Remove a tenant; unknown names raise :class:`UnknownTenantError`.

        Everything kept for the tenant goes with its session: rung,
        trace-id repeats, energy window, budget streaks, rate-limit bucket
        and (by incarnation) its cached plans, so a tenant registered
        again under ``name`` starts clean.  Requests already submitted resolved their
        session at ``submit`` and finish normally on it, accounted to it;
        later submissions fail with the unknown-tenant error.  Lifetime
        counters kept by name (telemetry, the cost ledger) do not reset.
        """
        with self._lock:
            if name not in self._tenants:
                raise UnknownTenantError(
                    f"unknown tenant {name!r}; registered: {sorted(self._tenants)}")
            del self._tenants[name]

    def get(self, name: str) -> TenantSession:
        with self._lock:
            try:
                return self._tenants[name]
            except KeyError:
                raise UnknownTenantError(
                    f"unknown tenant {name!r}; registered: {sorted(self._tenants)}"
                ) from None

    @property
    def tenant_names(self) -> list[str]:
        with self._lock:
            return list(self._tenants)

    def __iter__(self):
        """Iterate over a snapshot of the registered sessions."""
        with self._lock:
            return iter(list(self._tenants.values()))

    def warm_all(self, scheme: str, model: str, quant: str) -> None:
        """Warm every registered tenant's default grid cell."""
        for session in self:
            session.warm(scheme, model, quant)
