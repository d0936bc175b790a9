"""Session-path equivalences: bitwise-identical episodes across seams.

Every way of reaching an agent — a suite assembled by hand vs the
suite and catalog registries, the engine-less direct path vs the
``simulated`` engine, sequential vs served — must produce the same
episodes field for field, float for float.
"""

import pytest

from repro import AgentSpec, EngineSpec, open_session
from repro.suites import load_suite

MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"
N_QUERIES = 8


@pytest.fixture(scope="module")
def suite():
    return load_suite("edgehome", n_queries=N_QUERIES)


@pytest.mark.parametrize("suite_name", ["bfcl", "geoengine", "edgehome"])
def test_catalog_full_variant_equals_pre_redesign_tool_path(suite_name):
    """Default-variant episodes == a hand-assembled suite, per suite.

    A suite assembled by hand (the module-private tool tuple in a
    ``ToolCatalog`` + the raw query generators) must produce
    bitwise-identical episodes to the same suite loaded through the
    suite and catalog registries — ``load_suite`` is plumbing, not a
    behavior change.
    """
    from repro.suites.base import BenchmarkSuite
    from repro.suites.bfcl import generate_bfcl_queries
    from repro.suites.bfcl_catalog import _bfcl_tools
    from repro.suites.edgehome import _edgehome_tools, generate_edgehome_queries
    from repro.suites.geoengine import generate_geoengine_queries
    from repro.suites.geoengine_catalog import _geoengine_tools
    from repro.tools import ToolCatalog

    by_hand = {
        # (tool tuple, query generator, builder's n_train, sequential)
        "bfcl": (_bfcl_tools, generate_bfcl_queries, 120, False),
        "geoengine": (_geoengine_tools, generate_geoengine_queries, 120, True),
        "edgehome": (_edgehome_tools, generate_edgehome_queries, 100, True),
    }
    tools, generate, n_train, sequential = by_hand[suite_name]
    n_queries = 6
    old_suite = BenchmarkSuite(
        name=suite_name,
        catalog=ToolCatalog(suite_name, tools()),
        queries=generate(n_queries, 0, "eval"),
        train_queries=generate(n_train, 0, "train"),
        sequential=sequential,
    )
    old = open_session(suite=old_suite).run(
        AgentSpec(scheme="lis-k3", model=MODEL, quant=QUANT)).episodes
    new = open_session(suite_name, n_queries=n_queries).run(
        AgentSpec(scheme="lis-k3", model=MODEL, quant=QUANT)).episodes
    assert len(old) == len(new) == n_queries
    for old_episode, new_episode in zip(old, new):
        assert old_episode == new_episode


class TestSimulatedEngineEquivalence:
    """The engine boundary is a pure seam: ``engine=simulated`` episodes
    must equal the engine-less direct path bitwise, on every scheme,
    both sequential and served — the acceptance criterion for routing
    the agents' LLM construction through ``repro.engines``."""

    @pytest.mark.parametrize("scheme",
                             ["default", "gorilla", "lis-k3", "lis-k5"])
    def test_sequential_bitwise_identical(self, scheme, suite):
        direct = open_session(suite=suite).run(
            AgentSpec(scheme=scheme, model=MODEL, quant=QUANT)).episodes
        engined = open_session(suite=suite).run(
            AgentSpec(scheme=scheme, model=MODEL, quant=QUANT,
                      engine=EngineSpec("simulated"))).episodes
        assert len(direct) == len(engined) == N_QUERIES
        for direct_episode, engined_episode in zip(direct, engined):
            assert direct_episode == engined_episode

    def test_simulated_engine_adds_no_layer(self, suite):
        """Why the seam costs nothing: the agent holds the very class the
        engine-less path builds, with no adapter between (the structural
        fact the retired ``engine_overhead < 5%`` timing assert stood
        in for)."""
        from repro.llm import SimulatedLLM

        for engine in (None, EngineSpec("simulated")):
            agent = open_session(suite=suite).build_agent(AgentSpec(
                scheme="lis-k3", model=MODEL, quant=QUANT, engine=engine))
            assert type(agent.llm) is SimulatedLLM

    def test_served_bitwise_identical(self, suite):
        import asyncio

        from repro.serving import Gateway, SessionManager
        from repro.specs import ServingSpec

        reference = {
            episode.qid: episode
            for episode in open_session(suite=suite).run(
                AgentSpec(scheme="lis-k3", model=MODEL, quant=QUANT)).episodes
        }

        async def serve_all():
            sessions = SessionManager()
            sessions.register("t", suite, engine=EngineSpec("simulated"))
            config = ServingSpec(max_batch_size=4,
                                 default_scheme="lis-k3",
                                 default_model=MODEL, default_quant=QUANT)
            async with Gateway(sessions, config=config) as gateway:
                return await asyncio.gather(*(
                    gateway.submit("t", query) for query in suite.queries))

        for response in asyncio.run(serve_all()):
            assert response.episode == reference[response.episode.qid]


class TestDeprecationShims:
    """The ``repro.api`` module and its shims are deleted, not aliased;
    what they pinned about agent construction now holds on the one
    remaining path, ``Session.build_agent``."""

    def test_shims_are_gone(self):
        import importlib.util

        import repro

        assert importlib.util.find_spec("repro.api") is None
        for name in ("build_agent", "load_suite", "load_model"):
            assert not hasattr(repro, name)

    def test_build_agent_kwargs_pass_through(self, suite):
        agent = open_session(suite=suite).build_agent(
            AgentSpec("gorilla", MODEL, QUANT), k=6)
        assert agent.k == 6
        assert agent.suite is suite

    def test_build_agent_unknown_scheme_lists_registered(self, suite):
        with pytest.raises(ValueError, match="registered schemes"):
            open_session(suite=suite).build_agent(
                AgentSpec("react", MODEL, QUANT))

    def test_load_suite_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            load_suite("edgehome", n_queries=2)
