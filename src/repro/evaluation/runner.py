"""Experiment runner: build agents, run batches, cache shared state."""

from __future__ import annotations

from dataclasses import dataclass, field

import repro.baselines  # noqa: F401 - registers the baseline schemes
import repro.core.pipeline  # noqa: F401 - registers the "lis" scheme
from repro.core.episode import EpisodeResult
from repro.core.levels import SearchLevelBuilder, SearchLevels
from repro.embedding.cache import CachedEmbedder, shared_embedder
from repro.evaluation.metrics import MetricSummary, summarize
from repro.registry import SchemeContext, build_scheme
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
    runner builds; the engine factory is resolved by registry name.
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

    def run_grid(self, schemes: list[str], models: list[str],
                 quants: list[str]) -> dict[tuple[str, str, str], EvaluationRun]:
        """Run the full scheme x model x quant grid, cell by cell.

        The model-independent offline state — Search Levels and the
        embedder cache warmed with the tool corpus — is built once
        before the first cell; every cell then equals the
        :meth:`run` call of the same arguments.  Cells run in order in
        this process: episodes are GIL-bound pure Python, so a thread
        pool ran the paper's panels at about 0.6x the speed of this
        loop and a two-process pool between 0.9x and 1.2x (README, "Grid
        execution", has the measurements).
        """
        _ = self.levels
        self.embedder.encode_corpus(self.suite.catalog.descriptions())
        runs = [self.run(scheme, model, quant)
                for model in models for quant in quants for scheme in schemes]
        return {run.key: run for run in runs}
