"""The browser suite: multi-turn queries, stateful executor, every path.

The suite's point is tool-state carryover — later turns of an episode
only succeed because an earlier turn opened a page — so beyond the
usual suite hygiene (catalog shape, determinism, gold validation) these
tests pin the state machine itself, then drive the suite through each
execution path: a sequential Session run and the serving gateway,
asserting bitwise equality and per-turn records throughout.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.embedding.cache import CachedEmbedder
from repro.evaluation.runner import ExperimentRunner
from repro.registry import CATALOGS
from repro.serving import Gateway, SessionManager
from repro.specs import ServingSpec
from repro.session import open_session
from repro.suites import load_suite
from repro.suites.browser import (
    BrowserToolExecutor,
    build_browser_executor,
    build_browser_suite,
)
from repro.tools.catalog import load_catalog
from repro.tools.schema import ToolCall

MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"


@pytest.fixture(scope="module")
def suite():
    return build_browser_suite(n_queries=24)


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------
class TestCatalog:
    def test_registered_and_loadable(self):
        assert "browser" in CATALOGS
        catalog = load_catalog("browser")
        assert catalog.name == "browser"
        assert len(catalog) == 14

    def test_three_domains(self):
        catalog = load_catalog("browser")
        assert set(catalog.categories) == {"navigation", "input", "reading"}

    def test_variants_shrink_token_cost(self):
        from repro.llm.tokens import tool_prompt_tokens

        catalog = load_catalog("browser")
        tokens = {variant: sum(tool_prompt_tokens(tool)
                               for tool in catalog.at(variant))
                  for variant in ("full", "compressed", "minimal")}
        assert tokens["minimal"] < tokens["compressed"] < tokens["full"]

    def test_no_collision_with_other_catalogs(self):
        browser = set(load_catalog("browser").names)
        for other in ("edgehome", "bfcl", "geoengine"):
            assert not browser & set(load_catalog(other).names)


# ----------------------------------------------------------------------
# multi-turn queries
# ----------------------------------------------------------------------
class TestQueries:
    def test_loadable_by_name(self):
        assert load_suite("browser", n_queries=4).name == "browser"

    def test_every_query_is_multi_turn(self, suite):
        assert all(query.n_turns >= 2 for query in suite.queries)
        assert all(query.sequential for query in suite.queries)

    def test_turns_partition_gold_calls(self, suite):
        for query in suite.queries:
            flattened = tuple(call for turn in query.turns
                              for call in turn.gold_calls)
            assert flattened == query.gold_calls

    def test_turn_of_step_walks_the_partition(self, suite):
        query = next(q for q in suite.queries if q.n_turns == 3)
        turn_sizes = [len(turn.gold_calls) for turn in query.turns]
        expected = [turn_index
                    for turn_index, size in enumerate(turn_sizes)
                    for _ in range(size)]
        got = [query.turn_of_step(i) for i in range(query.n_steps)]
        assert got == expected
        # past-the-end steps (fallback retries) stick to the last turn
        assert query.turn_of_step(query.n_steps + 3) == query.n_turns - 1

    def test_first_turn_always_opens_a_page(self, suite):
        # the state contract depends on it: turn one must open the page
        # that later turns operate on
        for query in suite.queries:
            assert query.turns[0].gold_calls[0].tool == "open_page"

    def test_gold_arguments_validate(self, suite):
        for query in suite.queries:
            for call in query.gold_calls:
                spec = suite.catalog.get(call.tool)
                assert spec.validate_arguments(call.arguments) == [], query.qid

    def test_deterministic(self):
        a = build_browser_suite(n_queries=12)
        b = build_browser_suite(n_queries=12)
        assert [q.text for q in a.queries] == [q.text for q in b.queries]
        assert [q.gold_calls for q in a.queries] == \
            [q.gold_calls for q in b.queries]


# ----------------------------------------------------------------------
# the stateful executor
# ----------------------------------------------------------------------
class TestBrowserExecutor:
    @pytest.fixture()
    def executor(self, suite):
        return build_browser_executor(suite.catalog)

    def test_suite_wires_the_factory(self, suite):
        assert suite.executor_factory is build_browser_executor
        assert isinstance(build_browser_executor(suite.catalog),
                          BrowserToolExecutor)

    def test_page_required_before_dependent_tools(self, executor):
        state = executor.new_episode_state()
        outcome = executor.execute(ToolCall("read_title", {}), state=state)
        assert not outcome.ok
        assert "needs an open page" in outcome.error

    def test_state_carries_across_calls(self, executor):
        state = executor.new_episode_state()
        opened = executor.execute(
            ToolCall("open_page", {"url": "https://wiki.example.org"}),
            state=state)
        assert opened.ok
        read = executor.execute(ToolCall("read_title", {}), state=state)
        assert read.ok
        assert read.value["page"] == "https://wiki.example.org"
        assert "wiki.example.org" in read.value["title"]
        assert read.value["session_actions"] == 2

    def test_go_back_pops_history(self, executor):
        state = executor.new_episode_state()
        for url in ("https://a.example", "https://b.example"):
            executor.execute(ToolCall("open_page", {"url": url}), state=state)
        back = executor.execute(ToolCall("go_back", {}), state=state)
        assert back.ok and back.value["page"] == "https://a.example"

    def test_episodes_are_isolated(self, executor):
        first = executor.new_episode_state()
        second = executor.new_episode_state()
        executor.execute(ToolCall("open_page", {"url": "https://a.example"}),
                         state=first)
        # the second episode never opened anything — it must not see
        # the first episode's page
        outcome = executor.execute(ToolCall("list_links", {}), state=second)
        assert not outcome.ok

    def test_none_state_degrades_to_stateless(self, executor):
        # callers that never create a state (the base agent on ordinary
        # suites) keep the old behaviour: no gating, no page bookkeeping
        outcome = executor.execute(ToolCall("read_title", {}))
        assert outcome.ok
        assert "page" not in outcome.value

    def test_schema_validation_still_first(self, executor):
        state = executor.new_episode_state()
        outcome = executor.execute(
            ToolCall("open_page", {}), state=state)  # missing required url
        assert not outcome.ok
        assert state["page"] is None  # rejected calls never mutate state


# ----------------------------------------------------------------------
# end to end: sequential and served
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_session_run_carries_state_across_turns(self):
        session = open_session("browser", n_queries=12)
        run = session.run("lis-k3")
        by_qid = {query.qid: query for query in session.suite.queries}

        later_turn_steps = [step for episode in run.episodes
                            for step in episode.steps if step.turn_index > 0]
        assert later_turn_steps, "no step was recorded on a later turn"
        for episode in run.episodes:
            query = by_qid[episode.qid]
            for step_index, step in enumerate(episode.steps):
                assert step.turn_index == query.turn_of_step(step_index)
        # the carryover claim: every browser tool except open_page fails
        # unless an *earlier step of the same episode* opened a page, so
        # later-turn steps succeeding at all proves the state carried
        # (simulated argument errors keep the fraction below 1.0)
        ok_fraction = sum(step.execution_ok for step in later_turn_steps) \
            / len(later_turn_steps)
        assert ok_fraction > 0.5, f"carryover broken: {ok_fraction:.0%} ok"
        # the suite is solvable end to end, not trivially failing
        assert run.summary.success_rate > 0.5

    def test_served_episodes_equal_sequential_and_keep_turns(self):
        suite = load_suite("browser", n_queries=12)
        reference_runner = ExperimentRunner(suite, embedder=CachedEmbedder())
        reference = {
            episode.qid: episode
            for episode in reference_runner.run("lis-k3", MODEL, QUANT).episodes
        }

        async def serve_all():
            sessions = SessionManager()
            sessions.register("t", suite)
            config = ServingSpec(max_batch_size=8)
            async with Gateway(sessions, config=config) as gateway:
                return await asyncio.gather(*(
                    gateway.submit("t", query) for query in suite.queries))

        responses = asyncio.run(serve_all())
        assert len(responses) == len(reference)
        for response in responses:
            assert response.episode == reference[response.episode.qid]
        served_later_steps = [step for response in responses
                              for step in response.episode.steps
                              if step.turn_index > 0]
        assert served_later_steps, "served episodes lost their turn records"
