"""A simulated turn without numpy, against the numpy it replaced.

``SimulatedLLM.execute_step`` reads gold similarity and the top-3
distractor mean off a :class:`PresentedView` as plain Python floats,
lays the prompt out with a bisect over running totals and clips its two
probabilities with ``min``/``max``.  The parent commit did all three
with numpy calls and an O(n_tools) loop; those expressions live on
*here*, verbatim, as the reference every property compares against —
bit for bit, since the arithmetic did not change.

The last test pins what a turn still costs as operation counts per
episode (seeded streams derived, encode computes, views built); it
times nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AgentSpec, open_session
from repro.embedding.cache import CachedEmbedder
from repro.hardware import inference as inference_module
from repro.llm import SimulatedLLM, behavior
from repro.llm import engine as engine_module
from repro.llm.engine import PresentedView
from repro.llm.registry import MODEL_REGISTRY, QUANT_REGISTRY
from repro.llm.responses import AgentTurn
from repro.llm.tokens import (
    AGENT_SYSTEM_TOKENS,
    HISTORY_TOKENS_PER_STEP,
    PromptPlan,
    context_pressure,
    estimate_tokens,
    plan_agent_prompt,
    tool_prompt_tokens,
)
from repro.suites.base import Query
from repro.tools import executor as executor_module
from repro.tools.schema import ToolCall, ToolParameter, ToolSpec
from repro.utils.rng import derive_rng

GOLD = "gold"
NAME_POOL = (GOLD, "alpha", "beta", "gamma", "delta")


# ----------------------------------------------------------------------
# the parent commit's expressions (the reference; do not "simplify")
# ----------------------------------------------------------------------
def reference_reads(sims: np.ndarray, names, gold: str):
    """``(distractor_sim, gold_similarity or None, has_distractor)``."""
    is_gold = np.array([name == gold for name in names], dtype=bool)
    distractor_rows = np.flatnonzero(~is_gold)
    distractor_sims = sims[distractor_rows]
    distractor_sim = (float(np.mean(np.sort(distractor_sims)[::-1][:3]))
                      if distractor_rows.size else 0.0)
    gold_similarity = float(sims[np.argmax(is_gold)]) if is_gold.any() else None
    return distractor_sim, gold_similarity, bool(distractor_rows.size)


def reference_plan(query_text, tools, context_window, step_index=0,
                   generation_reserve=1024) -> PromptPlan:
    query_tokens = estimate_tokens(query_text)
    history_tokens = HISTORY_TOKENS_PER_STEP * step_index
    budget = (context_window - generation_reserve - AGENT_SYSTEM_TOKENS
              - query_tokens - history_tokens)
    included: list[str] = []
    truncated: list[str] = []
    tool_tokens = 0
    overflowed = False
    for tool in tools:
        cost = tool_prompt_tokens(tool)
        if not overflowed and tool_tokens + cost <= budget:
            tool_tokens += cost
            included.append(tool.name)
        else:
            overflowed = True
            truncated.append(tool.name)
    return PromptPlan(
        system_tokens=AGENT_SYSTEM_TOKENS,
        tool_tokens=tool_tokens,
        query_tokens=query_tokens,
        history_tokens=history_tokens,
        tools_included=tuple(included),
        tools_truncated=tuple(truncated),
    )


def reference_execute_step(llm: SimulatedLLM, query: Query, step_index: int,
                           presented_tools, context_window: int,
                           attempt: int = 0, skill_multiplier: float = 1.0,
                           arg_multiplier: float = 1.0) -> AgentTurn:
    gold_call = query.gold_calls[min(step_index, query.n_steps - 1)]
    rng = llm._rng(query.qid, "step", step_index, "attempt", attempt)

    plan = reference_plan(query.text, presented_tools, context_window,
                          step_index=step_index)
    included_names = set(plan.tools_included)
    included = [tool for tool in presented_tools if tool.name in included_names]
    pressure = context_pressure(plan.prompt_tokens, context_window)
    usage = llm._turn_usage(plan.prompt_tokens, step_index, len(included),
                            gold_call, rng)

    if rng.random() < behavior.error_signal_probability(
            llm.model, llm.quant, pressure, llm.calibration):
        return AgentTurn(call=None, usage=usage, signalled_error=True,
                         tools_seen=plan.tools_included)

    sims = np.asarray(llm._similarities(query.text, included))
    is_gold = np.array([tool.name == gold_call.tool for tool in included],
                       dtype=bool)
    distractor_rows = np.flatnonzero(~is_gold)
    distractor_sims = sims[distractor_rows]
    distractor_sim = (float(np.mean(np.sort(distractor_sims)[::-1][:3]))
                      if distractor_rows.size else 0.0)
    if is_gold.any():
        logit = behavior.selection_logit(
            llm.model, llm.quant, len(included), distractor_sim, pressure,
            gold_similarity=float(sims[np.argmax(is_gold)]),
            step_index=step_index if query.sequential else 0,
            sequential=query.sequential,
            skill_multiplier=skill_multiplier,
            calibration=llm.calibration,
        )
        correct = rng.random() < behavior.sigmoid(logit)
    else:
        correct = False

    if correct:
        call = llm._format_gold_call(gold_call, pressure, distractor_sim,
                                     arg_multiplier, rng)
        return AgentTurn(call=call, usage=usage, correct_tool=True,
                         tools_seen=plan.tools_included)

    if not distractor_rows.size:
        return AgentTurn(call=None, usage=usage, signalled_error=True,
                         tools_seen=plan.tools_included)
    weights = np.exp((distractor_sims - distractor_sims.max()) / 0.08)
    weights /= weights.sum()
    distractor = included[distractor_rows[
        int(rng.choice(distractor_rows.size, p=weights))]]
    call = ToolCall(distractor.name, llm._placeholder_arguments(distractor))
    return AgentTurn(call=call, usage=usage, correct_tool=False,
                     tools_seen=plan.tools_included)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
#: magnitudes 1e-3 … 1e3 either sign, plus a few fixed values so ties
#: (and a tie with zero) turn up often
_similarity = st.one_of(
    st.sampled_from([0.0, 0.25, -0.25, 0.5]),
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 10.0),
              st.integers(-3, 2)),
)


@st.composite
def presented_sets(draw):
    """``(names, sims)``: gold present, absent or duplicated beside 0-5
    (possibly same-named) distractors; never empty."""
    n_gold = draw(st.integers(0, 2))
    n_distractors = draw(st.integers(0 if n_gold else 1, 5))
    names = [GOLD] * n_gold + [draw(st.sampled_from(NAME_POOL[1:]))
                               for _ in range(n_distractors)]
    names = draw(st.permutations(names))
    sims = draw(st.lists(_similarity, min_size=len(names), max_size=len(names)))
    return tuple(names), np.array(sims, dtype=float)


def _tool(name: str, row: int, description_words: int = 3) -> ToolSpec:
    return ToolSpec(
        name, " ".join(["word"] * description_words) + f" {row}",
        parameters=(ToolParameter("target", "string"),
                    ToolParameter("count", "integer")))


def _query(qid: str, sequential: bool) -> Query:
    call = ToolCall(GOLD, {"target": "kitchen", "count": 2})
    return Query(qid, "do the thing in the kitchen", "synthetic",
                 (call, call) if sequential else (call,), sequential=sequential)


def _llm_reading(model: str, quant: str, names, sims) -> SimulatedLLM:
    """An LLM whose similarity lookup answers with the given vector."""
    llm = SimulatedLLM.from_registry(model, quant, embedder=CachedEmbedder())
    view = PresentedView.of(sims.copy(), tuple(names))
    llm._similarities = lambda query_text, included: view
    return llm


# ----------------------------------------------------------------------
# the view
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(presented_sets())
def test_view_reads_equal_the_numpy_expressions(presented):
    names, sims = presented
    view = PresentedView.of(sims.copy(), names)
    assert not view.flags.writeable
    np.testing.assert_array_equal(view, sims)
    assert view.values == tuple(sims.tolist())
    assert sorted(view.order) == list(range(len(names)))

    distractor_sim, gold_similarity, has_distractor = reference_reads(
        sims, names, GOLD)
    mean, found = view.distractor_similarity(GOLD)
    # equal as floats *and* as bit patterns (0.0 == -0.0 would hide a sign)
    assert (mean, found) == (distractor_sim, has_distractor)
    assert np.float64(mean).tobytes() == np.float64(distractor_sim).tobytes()
    gold_row = view.first_row.get(GOLD)
    if gold_similarity is None:
        assert gold_row is None
    else:
        assert view.values[gold_row] == gold_similarity
        assert names[gold_row] == GOLD and GOLD not in names[:gold_row]


def test_arrays_derived_from_a_view_carry_no_laid_out_values():
    view = PresentedView.of(np.array([0.3, 0.9, 0.1]), ("a", "b", "c"))
    for derived in (view[:2], view.copy(), view * 2.0):
        assert (derived.values, derived.names, derived.order,
                derived.first_row) == (None, None, None, None)
    assert view.order == (1, 0, 2) and view.first_row == {"a": 0, "b": 1, "c": 2}


@settings(max_examples=300, deadline=None)
@given(presented=presented_sets(),
       model=st.sampled_from(["qwen2-1.5b", "hermes2-pro-8b"]),
       quant=st.sampled_from(["q4_0", "q8_0"]),
       qid=st.integers(0, 10_000), sequential=st.booleans(),
       step_index=st.integers(0, 1), attempt=st.integers(0, 2))
def test_turn_equals_the_numpy_turn(presented, model, quant, qid, sequential,
                                    step_index, attempt):
    """Same error signal, same ``correct`` decision, same argument
    fumble, and — on the wrong-tool branch — the same tool drawn from
    the same RNG state: the two turns consume one seeded stream in the
    same order, so any divergence shows in the returned turn."""
    names, sims = presented
    tools = [_tool(name, row) for row, name in enumerate(names)]
    llm = _llm_reading(model, quant, names, sims)
    query = _query(f"q-{qid}", sequential)
    turn = llm.execute_step(query, step_index, tools, 8192, attempt=attempt)
    assert turn == reference_execute_step(llm, query, step_index, tools, 8192,
                                          attempt=attempt)


def test_every_branch_of_the_turn_is_compared():
    """The property above is only as good as the branches it reaches:
    a fixed sweep that hits all five and compares each."""
    rng = np.random.default_rng(22)
    reached = Counter()
    for trial in range(400):
        n_distractors = int(rng.integers(0, 6))
        names = [GOLD] * int(rng.integers(0, 2)) + [
            NAME_POOL[1 + int(rng.integers(4))] for _ in range(n_distractors)]
        if not names:
            names = [GOLD]
        sims = rng.uniform(-0.2, 0.9, size=len(names)).round(2)
        tools = [_tool(name, row) for row, name in enumerate(names)]
        llm = _llm_reading("qwen2-1.5b", "q4_0", names, sims)
        query = _query(f"sweep-{trial}", sequential=bool(trial % 2))
        turn = llm.execute_step(query, trial % 2, tools, 8192)
        assert turn == reference_execute_step(llm, query, trial % 2, tools, 8192)
        if turn.call is None:
            reached["no call"] += 1
        elif not turn.correct_tool:
            reached["wrong tool"] += 1
        elif turn.call.arguments == query.gold_calls[0].arguments:
            reached["gold call"] += 1
        else:
            reached["fumbled arguments"] += 1
        reached["gold absent"] += GOLD not in names
    assert all(reached[branch] >= 10 for branch in (
        "no call", "wrong tool", "gold call", "fumbled arguments",
        "gold absent")), reached


def test_truncated_prompt_reads_only_the_included_rows():
    """When the window cuts the tool list, the turn's vector covers the
    included prefix (plus any later tool sharing an included name, as
    the parent's name filter did) — and still equals the numpy turn."""
    names = [f"tool-{row}" for row in range(30)] + [GOLD, "tool-0"]
    tools = [_tool(name, row, description_words=40)
             for row, name in enumerate(names)]
    window = 3600
    plan = plan_agent_prompt("do the thing in the kitchen", tools, window)
    assert plan.tools_included and plan.tools_truncated
    assert GOLD in plan.tools_truncated
    seen = []
    llm = SimulatedLLM.from_registry("hermes2-pro-8b", "q4_K_M",
                                     embedder=CachedEmbedder())
    similarities = llm._similarities
    llm._similarities = lambda text, included: (
        seen.append([tool.name for tool in included]),
        similarities(text, included))[1]
    for qid in range(20):
        query = _query(f"cut-{qid}", sequential=False)
        assert (llm.execute_step(query, 0, tools, window)
                == reference_execute_step(llm, query, 0, tools, window))
    assert seen and all(
        names_seen == list(plan.tools_included) + ["tool-0"]
        for names_seen in seen)


def test_renamed_tools_never_read_another_sets_view():
    """Same descriptions under other names: a separate memo entry, whose
    names and first rows are its own."""
    llm = SimulatedLLM.from_registry("hermes2-pro-8b", "q4_K_M",
                                     embedder=CachedEmbedder())
    tools = [_tool(name, row) for row, name in enumerate(("alpha", "beta"))]
    renamed = [replace(tool, name=name)
               for tool, name in zip(tools, ("beta", GOLD))]
    first = llm._similarities("dim the lights", tools)
    second = llm._similarities("dim the lights", renamed)
    assert second is not first and len(llm._similarity_memo) == 2
    np.testing.assert_array_equal(second, first)
    assert second.names == ("beta", GOLD)
    assert second.first_row == {"beta": 0, GOLD: 1}
    assert llm._similarities("dim the lights", tools) is first


# ----------------------------------------------------------------------
# prompt layout
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(description_words=st.lists(st.integers(1, 120), min_size=1, max_size=12),
       context_window=st.integers(256, 6000),
       step_index=st.integers(0, 6),
       generation_reserve=st.sampled_from([0, 256, 1024]),
       query_words=st.integers(1, 60))
def test_bisect_layout_equals_the_loop(description_words, context_window,
                                       step_index, generation_reserve,
                                       query_words):
    """Random per-tool costs, budgets from far negative (window below
    the fixed scaffolding) to roomy, every chain step."""
    tools = [_tool(f"tool-{row}", row, words)
             for row, words in enumerate(description_words)]
    query_text = " ".join(["please"] * query_words)
    assert (plan_agent_prompt(query_text, tools, context_window, step_index,
                              generation_reserve)
            == reference_plan(query_text, tools, context_window, step_index,
                              generation_reserve))


def test_layout_covers_negative_exact_and_roomy_budgets():
    tools = [_tool(f"tool-{row}", row, 10 + row) for row in range(6)]
    costs = [tool_prompt_tokens(tool) for tool in tools]
    fixed = 1024 + AGENT_SYSTEM_TOKENS + estimate_tokens("q")
    for budget, n_included in ((-5, 0), (0, 0), (costs[0] - 1, 0),
                               (costs[0], 1), (sum(costs[:3]), 3),
                               (sum(costs[:3]) + 1, 3), (sum(costs), 6),
                               (sum(costs) + 999, 6)):
        plan = plan_agent_prompt("q", tools, fixed + budget)
        assert plan == reference_plan("q", tools, fixed + budget)
        assert len(plan.tools_included) == n_included
        assert plan.tool_tokens == sum(costs[:n_included])


# ----------------------------------------------------------------------
# scalar clips
# ----------------------------------------------------------------------
_deployments = st.tuples(st.sampled_from(sorted(MODEL_REGISTRY)),
                         st.sampled_from(sorted(QUANT_REGISTRY)))


@settings(max_examples=300, deadline=None)
@given(deployment=_deployments, pressure=st.floats(0.0, 1.0))
def test_error_signal_clip_equals_np_clip(deployment, pressure):
    model, quant = MODEL_REGISTRY[deployment[0]], QUANT_REGISTRY[deployment[1]]
    calibration = behavior.DEFAULT_CALIBRATION
    skill = behavior.effective_skill(model, quant)
    expected = float(np.clip(
        calibration.error_signal_base * (1.0 - skill) * (1.0 + 2.0 * pressure),
        0.0, 0.35,
    ))
    value = behavior.error_signal_probability(model, quant, pressure)
    assert type(value) is float and value == expected


@settings(max_examples=300, deadline=None)
@given(deployment=_deployments, n_params=st.integers(0, 12),
       pressure=st.floats(0.0, 1.0), distractor=st.floats(-1.0, 1.0),
       multiplier=st.floats(0.25, 1.5))
def test_argument_clip_equals_np_clip(deployment, n_params, pressure,
                                      distractor, multiplier):
    model, quant = MODEL_REGISTRY[deployment[0]], QUANT_REGISTRY[deployment[1]]
    calibration = behavior.DEFAULT_CALIBRATION
    arg_quality = model.arg_skill * quant.format_stability * multiplier
    difficulty = (
        calibration.arg_base_penalty
        + calibration.arg_per_param_penalty * n_params
        + calibration.arg_pressure_penalty * pressure
        + calibration.arg_distractor_penalty * max(0.0, distractor)
    )
    expected = float(np.clip(1.0 - (1.0 - arg_quality) * difficulty,
                             0.02, 0.995))
    value = behavior.argument_success_probability(
        model, quant, n_params, pressure, distractor_similarity=distractor,
        skill_multiplier=multiplier)
    assert type(value) is float and value == expected


# ----------------------------------------------------------------------
# what an episode still costs, as counts
# ----------------------------------------------------------------------
def test_operation_counts_per_episode(monkeypatch):
    """Per episode: one seeded stream per LLM turn (+1 for the
    recommender), one per accounted call, one per accepted tool call;
    one view and at most one encode compute inside ``execute_step`` per
    presented set — across steps, retries and the Level-3 fallback."""
    session = open_session("geoengine", n_queries=100, seed=1507,
                           embedder=CachedEmbedder())
    agent = session.build_agent(AgentSpec("lis-k3", "qwen2-1.5b", "q4_0"))
    plans = agent.plan_batch(session.suite.queries)

    counts = Counter()
    presented = set()
    in_turn = []

    def counting_derive_rng(*stream, **kwargs):
        counts[stream[0]] += 1
        return derive_rng(*stream, **kwargs)

    for module in (engine_module, inference_module, executor_module):
        monkeypatch.setattr(module, "derive_rng", counting_derive_rng)

    execute_step = SimulatedLLM.execute_step

    def counting_execute_step(self, *args, **kwargs):
        counts["turns"] += 1
        in_turn.append(True)
        try:
            return execute_step(self, *args, **kwargs)
        finally:
            in_turn.pop()

    monkeypatch.setattr(SimulatedLLM, "execute_step", counting_execute_step)

    similarities = SimulatedLLM._similarities

    def recording_similarities(self, query_text, included):
        presented.add((query_text, tuple(tool.name for tool in included)))
        return similarities(self, query_text, included)

    monkeypatch.setattr(SimulatedLLM, "_similarities", recording_similarities)

    build_view = PresentedView.of.__func__

    def counting_build_view(cls, sims, names):
        counts["views"] += 1
        return build_view(cls, sims, names)

    monkeypatch.setattr(PresentedView, "of", classmethod(counting_build_view))

    compute = agent.llm.embedder.embedder.encode

    def counting_compute(texts):
        counts["computes in turn"] += bool(in_turn)
        return compute(texts)

    monkeypatch.setattr(agent.llm.embedder.embedder, "encode", counting_compute)

    seen = Counter()
    built = set()   # the pool repeats some query texts: those hit the memo
    for query, plan in zip(session.suite.queries, plans):
        counts.clear()
        presented.clear()
        agent.executor.reset()
        episode = agent.run_planned(query, plan)

        accepted = sum(outcome.ok for outcome in agent.executor.executed)
        assert counts["llm"] == counts["turns"]
        assert counts["hw-jitter"] == episode.n_llm_calls
        assert episode.n_llm_calls == counts["turns"] + len(plan.pre_usages)
        assert counts["tool-exec"] == accepted
        assert len(presented) <= 2
        assert counts["views"] == len(presented - built)
        assert counts["computes in turn"] <= len(presented - built)
        built |= presented

        retried = any(step.retried for step in episode.steps)
        seen["retried"] += retried
        seen["fallback"] += episode.fallback_used
        seen["many turns on one set"] += counts["turns"] > 2 * len(presented)
    assert all(seen[kind] for kind in (
        "retried", "fallback", "many turns on one set")), seen

    # the recommender's stream is the one derivation outside the turns
    counts.clear()
    agent.plan(session.suite.queries[0])
    assert counts["llm"] == 1 and counts["turns"] == 0
