"""Shared execution loop for all function-calling agents.

The Less-is-More agent and every baseline differ only in *which tools
they present, at which context window, with which calling style*; the
step loop — call the LLM, execute the tool, retry on failure, account
time and energy — is identical.  Subclasses implement :meth:`plan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.episode import EpisodeResult, StepRecord
from repro.hardware import (
    JETSON_AGX_ORIN,
    DeviceProfile,
    InferenceRequest,
    MeasurementSession,
    simulate_inference,
)
from repro.llm import SimulatedLLM, TokenUsage
from repro.suites.base import BenchmarkSuite, Query
from repro.tools import SimulatedToolExecutor
from repro.tools.schema import ToolSpec
from repro.utils.rng import _BULK_MIN, DEFAULT_ROOT_SEED, prefetched

#: Host-side overhead of embedding one short text on the Orin CPU/GPU
#: (the "inexpensive pretrained embedding tokenizer" of the paper).
EMBEDDING_OVERHEAD_S = 0.009
#: One k-NN probe over a tools/cluster index (FAISS-scale, tiny pools).
KNN_OVERHEAD_S = 0.0025

#: Context windows used in the paper's evaluation (Section IV): default
#: models run at 16K so all tools fit; Gorilla and LiS run at 8K.
DEFAULT_CONTEXT_WINDOW = 16384
REDUCED_CONTEXT_WINDOW = 8192


@dataclass
class ToolPlan:
    """What an agent decided to present for one query."""

    tools: list[ToolSpec]
    context_window: int
    level: int | None = None
    overhead_s: float = 0.0
    pre_usages: list[TokenUsage] = field(default_factory=list)


class FunctionCallingAgent:
    """Base agent: subclass and implement :meth:`plan`.

    ``skill_multiplier`` scales the model's tool-choice and argument
    skill alike on every turn (Gorilla's docs-to-call penalty).
    """

    scheme = "base"
    #: whether a repeated error signal escalates to all tools at 16K
    fallback_to_all = False

    def __init__(
        self,
        llm: SimulatedLLM,
        suite: BenchmarkSuite,
        device: DeviceProfile = JETSON_AGX_ORIN,
        skill_multiplier: float = 1.0,
    ):
        self.llm = llm
        self.suite = suite
        self.device = device
        self.skill_multiplier = skill_multiplier
        factory = suite.executor_factory
        self.executor = (factory(suite.catalog) if factory is not None
                         else SimulatedToolExecutor(suite.catalog))

    # ------------------------------------------------------------------
    # to be provided by subclasses
    # ------------------------------------------------------------------
    def plan(self, query: Query) -> ToolPlan:
        """Choose the tool subset and window for ``query``."""
        raise NotImplementedError

    def plan_batch(self, queries: list[Query]) -> list[ToolPlan]:
        """Plan many queries at once.

        The base implementation simply loops; agents whose planning is
        dominated by vectorizable work (embedding + retrieval) override
        this to coalesce the batch into single kernel calls.  Plans must
        be identical to per-query :meth:`plan` output — the serving
        gateway's equivalence guarantee rests on it.
        """
        return [self.plan(query) for query in queries]

    def tools_for_step(self, query: Query, step_index: int,
                       current_tools: list[ToolSpec],
                       called_tools: list[str]) -> tuple[list[ToolSpec], float]:
        """Optionally re-plan tools before each chain step.

        Returns ``(tools, extra_overhead_s)``.  The default keeps the
        episode plan; retrieval-per-turn baselines (Gorilla) override.
        """
        return current_tools, 0.0

    # ------------------------------------------------------------------
    # episode loop
    # ------------------------------------------------------------------
    def run(self, query: Query) -> EpisodeResult:
        """Execute one full episode and measure it on the device model."""
        return self.run_planned(query, self.plan(query))

    def run_planned(self, query: Query, plan: ToolPlan,
                    device: DeviceProfile | None = None) -> EpisodeResult:
        """Execute one episode from an already-computed plan.

        Split from :meth:`run` so a serving layer can plan a whole
        micro-batch in one vectorized pass and then execute each episode
        individually.  ``device`` is the board the episode is measured
        on (default: the agent's); the gateway passes its power mode's.
        The method touches no agent-level mutable state, so one agent
        instance can execute episodes concurrently as long as its
        executor/embedder are thread-safe (they are by default).
        """
        session = MeasurementSession(
            device=self.device if device is None else device)
        session.add_overhead(plan.overhead_s)

        result = EpisodeResult(
            qid=query.qid,
            scheme=self.scheme,
            model=self.llm.model.name,
            quant=self.llm.quant.name,
            selected_level=plan.level,
        )
        for index, usage in enumerate(plan.pre_usages):
            self._account(usage, plan.context_window, session, result,
                          self._jitter_stream(query.qid, pre=index))

        tools = plan.tools
        window = plan.context_window
        in_fallback = False
        called_tools: list[str] = []
        # one tool-state object per episode: stateful executors carry tool
        # effects across chain steps (and conversation turns) through it
        tool_state = self.executor.new_episode_state()
        for step_index in range(query.n_steps):
            if not in_fallback:
                tools, replan_overhead = self.tools_for_step(
                    query, step_index, tools, called_tools)
                session.add_overhead(replan_overhead)
            record, in_fallback, tools, window = self._run_step(
                query, step_index, tools, window, in_fallback, session, result,
                tool_state,
            )
            result.steps.append(record)
            if record.tool_called is not None:
                called_tools.append(record.tool_called)

        result.fallback_used = in_fallback
        result.time_s = session.total_time_s
        result.energy_j = session.energy_j
        result.avg_power_w = session.avg_power_w
        result.peak_memory_gb = session.peak_memory_gb
        return result

    def run_planned_many(self, queries: list[Query], plans: list[ToolPlan],
                         device: DeviceProfile | None = None,
                         ) -> list[EpisodeResult]:
        """Execute a batch of already-planned episodes, in order.

        The serial loop the gateway's batch worker runs after
        ``plan_batch``, one planned group at a time, every episode on
        ``device`` (see :meth:`run_planned`), certain streams seeded in bulk
        (not when their bound, ``2 * n_steps`` a query plus its pre-calls,
        is too few).
        """
        if len(queries) != len(plans):
            raise ValueError(
                f"{len(queries)} queries but {len(plans)} plans")
        few = sum(2 * query.n_steps + len(plan.pre_usages)
                  for query, plan in zip(queries, plans)) < _BULK_MIN
        with prefetched(() if few else self._certain_streams(queries, plans)):
            return [self.run_planned(query, plan, device)
                    for query, plan in zip(queries, plans)]

    def _certain_streams(self, queries: list[Query], plans: list[ToolPlan]):
        """Streams every episode draws: pre-calls' jitter, each first turn's two."""
        simulated = isinstance(self.llm, SimulatedLLM)
        for query, plan in zip(queries, plans):
            for index in range(len(plan.pre_usages)):
                yield (DEFAULT_ROOT_SEED, "hw-jitter",
                       self._jitter_stream(query.qid, pre=index))
            for step in range(query.n_steps):
                if simulated:
                    yield self.llm.stream_name(query.qid, "step", step, "attempt", 0)
                yield (DEFAULT_ROOT_SEED, "hw-jitter", self._jitter_stream(query.qid, step, 0))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run_step(self, query, step_index, tools, window, in_fallback,
                  session, result, tool_state=None):
        attempt = 0
        turn_index = query.turn_of_step(step_index)
        turn = self._turn(query, step_index, tools, window, attempt, session, result)

        if turn.signalled_error:
            # paper Section III-C: retry once, then fall back to Level 3
            attempt += 1
            turn = self._turn(query, step_index, tools, window, attempt, session, result)
            if turn.signalled_error and self.fallback_to_all and not in_fallback:
                in_fallback = True
                tools = list(self.suite.catalog)
                window = DEFAULT_CONTEXT_WINDOW
                attempt += 1
                turn = self._turn(query, step_index, tools, window, attempt,
                                  session, result)

        if turn.call is None:
            record = StepRecord(step_index, None, False, False, len(tools),
                                retried=attempt > 0, turn_index=turn_index)
            return record, in_fallback, tools, window

        allowed = set(turn.tools_seen)
        outcome = self.executor.execute(turn.call, allowed=allowed,
                                        state=tool_state)
        session.add_api_latency(outcome.api_latency_s)
        if not outcome.ok and query.sequential:
            # multi-turn copilots (GeoEngine) surface the API validation
            # error back to the model, which retries once; single-shot
            # suites (BFCL) grade the first call, so no recovery there
            attempt += 1
            retry_turn = self._turn(query, step_index, tools, window, attempt,
                                    session, result)
            if retry_turn.call is not None:
                turn = retry_turn
                outcome = self.executor.execute(turn.call, allowed=set(turn.tools_seen),
                                                state=tool_state)
                session.add_api_latency(outcome.api_latency_s)

        record = StepRecord(
            step_index=step_index,
            tool_called=turn.call.tool if turn.call else None,
            correct_tool=turn.correct_tool,
            execution_ok=outcome.ok if turn.call else False,
            n_tools_presented=len(tools),
            retried=attempt > 0,
            turn_index=turn_index,
        )
        return record, in_fallback, tools, window

    def _turn(self, query, step_index, tools, window, attempt, session, result):
        turn = self.llm.execute_step(
            query, step_index, tools, window, attempt=attempt,
            skill_multiplier=self.skill_multiplier,
            arg_multiplier=self.skill_multiplier,
        )
        self._account(turn.usage, window, session, result,
                      self._jitter_stream(query.qid, step_index, attempt))
        return turn

    def _jitter_stream(self, qid: str, step: int | None = None, attempt: int = 0,
                       pre: int = 0) -> str:
        """``hw-jitter`` stream of pre-call ``pre`` (no ``step``) or a turn.

        Pre-call 0 is ``pre`` and pre-call *i* is ``pre{i}``, so a
        one-pre-call plan (Less-is-More's recommender) keeps its name.
        """
        suffix = f"pre{pre or ''}" if step is None else f"s{step}-a{attempt}"
        return f"{self.scheme}-{self.llm.name}-{qid}-{suffix}"

    def _account(self, usage: TokenUsage, window: int,
                 session: MeasurementSession, result: EpisodeResult,
                 jitter_stream: str) -> None:
        """Convert token usage into a hardware trace and tally it."""
        trace = simulate_inference(
            InferenceRequest(
                params_b=self.llm.model.params_b,
                bits_per_weight=self.llm.quant.bits_per_weight,
                prompt_tokens=usage.prompt_tokens,
                generated_tokens=usage.completion_tokens,
                context_window=window,
                kv_cached_tokens=usage.kv_cached_tokens,
                jitter_stream=jitter_stream,
            ),
            device=session.device,
        )
        session.add_trace(trace)
        result.n_llm_calls += 1
        result.prompt_tokens += usage.prompt_tokens
        result.completion_tokens += usage.completion_tokens
