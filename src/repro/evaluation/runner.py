"""Experiment runner: build agents, run batches, cache shared state."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

import repro.baselines  # noqa: F401 - registers the baseline schemes
import repro.core.pipeline  # noqa: F401 - registers the "lis" scheme
from repro.core.episode import EpisodeResult
from repro.core.levels import SearchLevelBuilder, SearchLevels
from repro.embedding.cache import CachedEmbedder, shared_embedder
from repro.evaluation.metrics import MetricSummary, summarize
from repro.registry import (
    GRID_BACKENDS,
    SchemeContext,
    build_scheme,
    register_grid_backend,
)
from repro.specs import EngineSpec
from repro.suites.base import BenchmarkSuite


@dataclass
class EvaluationRun:
    """One (scheme, model, quant) batch with its raw episodes."""

    scheme: str
    model: str
    quant: str
    episodes: list[EpisodeResult]
    summary: MetricSummary

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.scheme, self.model, self.quant)


@dataclass
class ExperimentRunner:
    """Runs evaluation batches over a suite with shared offline state.

    Search Levels are model-independent, so they are built once per
    runner and reused across the whole model x quant x scheme grid —
    exactly the paper's one-time offline step.

    ``engine`` (an :class:`~repro.specs.EngineSpec`, default ``None`` =
    the simulated engine) selects the LLM backend for every agent this
    runner builds.  It is plain picklable data: the runner snapshot
    carries it to process-pool workers, and each worker re-resolves the
    engine factory by registry name — live HTTP clients never cross the
    pool boundary.
    """

    suite: BenchmarkSuite
    embedder: CachedEmbedder = field(default_factory=shared_embedder)
    engine: EngineSpec | None = None
    _levels: SearchLevels | None = None

    @property
    def levels(self) -> SearchLevels:
        if self._levels is None:
            self._levels = SearchLevelBuilder(embedder=self.embedder).build(self.suite)
        return self._levels

    # ------------------------------------------------------------------
    # agent construction
    # ------------------------------------------------------------------
    def make_agent(self, scheme: str, model: str, quant: str, **kwargs):
        """Build an agent for one grid cell through the scheme registry.

        Built-in scheme names: ``default``, ``gorilla``, ``toolllm``,
        ``lis`` (alias ``lis-k3``), or any parameterized ``lis-k<N>``;
        schemes added via :func:`repro.registry.register_scheme` resolve
        identically.  The factory receives this runner's suite, shared
        embedder, lazily-built Search Levels and engine spec, so every
        cell of a grid reuses one offline index and one LLM backend
        selection.  ``engine`` overrides the runner's engine for this
        one agent (an :class:`~repro.specs.EngineSpec` or engine name).
        """
        engine = kwargs.pop("engine", None)
        if engine is None:
            engine = self.engine
        context = SchemeContext(suite=self.suite, embedder=self.embedder,
                                levels_fn=lambda: self.levels, engine=engine)
        return build_scheme(scheme, model, quant, context, **kwargs)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, scheme: str, model: str, quant: str,
            n_queries: int | None = None, **kwargs) -> EvaluationRun:
        """Run one batch (default: every eval query in the suite)."""
        agent = self.make_agent(scheme, model, quant, **kwargs)
        queries = self.suite.queries if n_queries is None else self.suite.queries[:n_queries]
        episodes = [agent.run(query) for query in queries]
        return EvaluationRun(
            scheme=scheme, model=model, quant=quant,
            episodes=episodes, summary=summarize(episodes),
        )

    def run_grid(self, schemes: list[str], models: list[str], quants: list[str],
                 n_queries: int | None = None,
                 max_workers: int | None = None,
                 backend: str = "thread") -> dict[tuple[str, str, str], EvaluationRun]:
        """Run the full scheme x model x quant grid.

        Cells are independent (each builds its own agent/LLM), so they
        execute on a worker pool sized by ``max_workers`` (default: one
        worker per CPU, capped at the cell count; pass 1 to force the
        sequential path).  ``backend`` selects how workers run:

        ``"thread"`` (default)
            A :class:`ThreadPoolExecutor` over shared state.  Episodes
            are GIL-bound pure Python, so wall time barely improves, but
            there is no serialization cost — the right choice for small
            grids and cold caches.
        ``"process"``
            A :class:`ProcessPoolExecutor`: cells are split round-robin
            into one chunk per worker, the runner (suite, Search Levels,
            warm embedder snapshot) is pickled to each worker once, and
            each worker's embedder-cache delta is merged back into the
            parent afterwards.  This is the only backend that scales the
            pure-Python episode loop across cores.
        ``"sequential"``
            Explicit in-process serial execution (same as
            ``max_workers=1``).

        The model-independent offline state — Search Levels and the
        embedder cache warmed with the tool corpus — is built once
        *before* dispatch so every worker shares (or inherits a snapshot
        of) it; every episode draws from named RNG streams, so results
        are bitwise identical to a sequential run regardless of backend
        or scheduling.

        Backends are plugin-dispatched: anything added via
        :func:`repro.registry.register_grid_backend` is selectable here
        by name.
        """
        backend_fn = GRID_BACKENDS.get(backend)
        cells = [(scheme, model, quant)
                 for model in models for quant in quants for scheme in schemes]
        # shared offline state, built exactly once outside the pool
        _ = self.levels
        self.embedder.encode(self.suite.catalog.descriptions())
        if max_workers is None:
            max_workers = min(len(cells), os.cpu_count() or 1)
        if max_workers <= 1 or len(cells) <= 1:
            # no parallelism to extract — every backend degenerates to
            # the in-process serial loop
            backend_fn = GRID_BACKENDS.get("sequential")
        runs = backend_fn(self, cells, n_queries, max_workers)
        return {run.key: run for run in runs}

    def _run_grid_process(self, cells, n_queries, max_workers) -> list[EvaluationRun]:
        """Fan grid cells out to worker processes, merge caches back.

        Cells are dealt round-robin into one chunk per worker (cheap
        static balancing: neighbouring cells share the scheme and have
        similar cost), so the ~1 MB runner snapshot is pickled once per
        worker, not once per cell.  Workers return their episode batches
        plus an :meth:`CachedEmbedder.export_cache` snapshot; merging the
        snapshots keeps the parent's cache as warm as a sequential run
        would have left it, so later phases don't pay re-encoding.
        """
        n_workers = min(max_workers, len(cells))
        chunks = [cells[start::n_workers] for start in range(n_workers)]
        by_cell: dict[tuple[str, str, str], EvaluationRun] = {}
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(_run_grid_chunk, self, chunk, n_queries)
                       for chunk in chunks]
            for future in futures:
                chunk_runs, cache_snapshot = future.result()
                self.embedder.merge_cache(cache_snapshot)
                for run in chunk_runs:
                    by_cell[run.key] = run
        # deterministic ordering regardless of which worker finished first
        return [by_cell[cell] for cell in cells]


@register_grid_backend("sequential")
def _grid_sequential(runner: ExperimentRunner, cells, n_queries,
                     max_workers) -> list[EvaluationRun]:
    """Explicit in-process serial execution."""
    return [runner.run(*cell, n_queries=n_queries) for cell in cells]


@register_grid_backend("thread")
def _grid_thread(runner: ExperimentRunner, cells, n_queries,
                 max_workers) -> list[EvaluationRun]:
    """Thread pool over shared state (no serialization cost)."""
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(
            lambda cell: runner.run(*cell, n_queries=n_queries), cells))


@register_grid_backend("process")
def _grid_process(runner: ExperimentRunner, cells, n_queries,
                  max_workers) -> list[EvaluationRun]:
    """Process pool — the only backend that scales the episode loop."""
    return runner._run_grid_process(cells, n_queries, max_workers)


def _run_grid_chunk(runner: ExperimentRunner, cells, n_queries):
    """Process-pool worker body: run a chunk of grid cells.

    Module-level so it pickles by reference; the runner argument arrives
    as a deep snapshot of the parent's (suite, levels, embedder) state.
    Only the cache entries this worker *adds* are shipped back — the
    inherited snapshot is already in the parent.
    """
    inherited = runner.embedder.cached_texts()
    runs = [runner.run(*cell, n_queries=n_queries) for cell in cells]
    return runs, runner.embedder.export_cache(exclude=inherited)
