"""Core benchmark-suite datatypes."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tools.catalog import ToolCatalog
from repro.tools.schema import ToolCall

#: Mini-batch size used throughout the paper's evaluation (Section IV).
PAPER_QUERY_BATCH = 230


@dataclass(frozen=True)
class QueryTurn:
    """One conversation turn of a multi-turn query.

    ``text`` is what the user says on this turn; ``gold_calls`` the
    reference calls the agent should issue *during* this turn, in order.
    """

    text: str
    gold_calls: tuple[ToolCall, ...]

    def __post_init__(self):
        object.__setattr__(self, "gold_calls", tuple(self.gold_calls))
        if not self.text:
            raise ValueError("QueryTurn.text must be a non-empty string")
        if not self.gold_calls:
            raise ValueError("QueryTurn.gold_calls must not be empty")


@dataclass(frozen=True)
class Query:
    """One benchmark query with its gold solution.

    ``gold_calls`` holds the reference tool-call sequence: length 1 for
    BFCL-style independent queries, length >= 2 for GeoEngine-style
    sequential tasks (order matters there — each call consumes the
    previous call's output).

    ``turns`` (optional) structures a conversation: each
    :class:`QueryTurn` carries the user text and gold calls of one turn,
    and their concatenation must equal ``gold_calls`` — turns partition
    the flat chain, so every single-shot consumer (step counts, tool
    accuracy, the recommender) keeps working unchanged while multi-turn
    consumers (turn-indexed step records, per-episode executor state)
    read the boundaries.
    """

    qid: str
    text: str
    category: str
    gold_calls: tuple[ToolCall, ...]
    sequential: bool = False
    turns: tuple[QueryTurn, ...] = ()

    def __post_init__(self):
        if not self.gold_calls:
            raise ValueError(f"query {self.qid}: gold_calls must not be empty")
        object.__setattr__(self, "turns", tuple(self.turns))
        if self.turns:
            flattened = tuple(call for turn in self.turns
                              for call in turn.gold_calls)
            if flattened != tuple(self.gold_calls):
                raise ValueError(
                    f"query {self.qid}: per-turn gold_calls must concatenate "
                    f"to gold_calls (turns cover {len(flattened)} calls, "
                    f"query has {len(self.gold_calls)})")

    @property
    def gold_tools(self) -> tuple[str, ...]:
        """Names of the gold tools, in call order."""
        return tuple(call.tool for call in self.gold_calls)

    @property
    def n_steps(self) -> int:
        return len(self.gold_calls)

    @property
    def n_turns(self) -> int:
        """Conversation turns (1 for single-shot queries)."""
        return len(self.turns) if self.turns else 1

    def turn_of_step(self, step_index: int) -> int:
        """The turn a chain step belongs to (0 for single-shot queries)."""
        if not self.turns:
            return 0
        boundary = 0
        for turn_index, turn in enumerate(self.turns):
            boundary += len(turn.gold_calls)
            if step_index < boundary:
                return turn_index
        return len(self.turns) - 1


@dataclass
class BenchmarkSuite:
    """A tool catalog plus deterministic eval/train query sets.

    ``queries`` is the evaluation mini-batch (paper: 230 queries);
    ``train_queries`` is a disjoint pool that only Level-2 construction
    may look at (mirroring the paper's use of benchmark training splits
    for GPT-4 augmentation).

    ``executor_factory`` (optional) builds the suite's tool executor
    from its catalog — ``f(catalog) -> SimulatedToolExecutor`` — letting
    stateful suites (the browser suite) install an executor whose
    :meth:`~repro.tools.executor.SimulatedToolExecutor.new_episode_state`
    carries tool state across the turns of one episode.  It must be a
    module-level callable so suites stay picklable.
    """

    name: str
    catalog: ToolCatalog
    queries: list[Query]
    train_queries: list[Query] = field(default_factory=list)
    sequential: bool = False
    executor_factory: object = None

    def __post_init__(self):
        if not isinstance(self.catalog, ToolCatalog):
            raise TypeError(
                f"suite {self.name!r}: catalog must be a ToolCatalog, "
                f"got {type(self.catalog).__name__}")
        for query in list(self.queries) + list(self.train_queries):
            for tool in query.gold_tools:
                if tool not in self.catalog:
                    raise ValueError(
                        f"query {query.qid} references unknown tool {tool!r} "
                        f"(catalog {self.catalog.name!r}, "
                        f"version {self.catalog.version[:12]})"
                    )

    def with_catalog(self, catalog: ToolCatalog) -> "BenchmarkSuite":
        """This suite re-tooled onto ``catalog`` (same query pools).

        Gold calls are re-validated against the new catalog, so swapping
        in a catalog that dropped a referenced tool fails loudly here —
        the serving hot-swap path relies on that check.
        """
        return BenchmarkSuite(
            name=self.name, catalog=catalog, queries=self.queries,
            train_queries=self.train_queries, sequential=self.sequential,
            executor_factory=self.executor_factory,
        )

    @property
    def n_tools(self) -> int:
        return len(self.catalog)

    @property
    def categories(self) -> list[str]:
        """Query categories present in the eval split, first-appearance order."""
        seen: dict[str, None] = {}
        for query in self.queries:
            seen.setdefault(query.category, None)
        return list(seen)

    def queries_by_category(self, category: str, split: str = "eval") -> list[Query]:
        """Queries of one category from the ``eval`` or ``train`` split."""
        pool = self.queries if split == "eval" else self.train_queries
        return [query for query in pool if query.category == category]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BenchmarkSuite({self.name!r}, tools={self.n_tools}, "
            f"eval={len(self.queries)}, train={len(self.train_queries)}, "
            f"sequential={self.sequential})"
        )
