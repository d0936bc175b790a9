"""Plugin registries: registration, resolution, actionable errors."""

import pytest

from repro.registry import (
    CATALOGS,
    SCHEMES,
    SUITES,
    Registry,
    SchemeContext,
    build_scheme,
    register_catalog,
    register_scheme,
    register_suite,
    resolve_scheme,
)
from repro.suites import load_suite


class TestRegistryCore:
    def test_register_and_get(self):
        registry = Registry("thing")
        registry.register("a", 1)
        assert registry.get("a") == 1
        assert "a" in registry
        assert registry.names() == ["a"]

    def test_names_are_case_insensitive(self):
        registry = Registry("thing")
        registry.register("MiXeD", "x")
        assert registry.get("mixed") == "x"
        assert "MIXED" in registry

    def test_decorator_form(self):
        registry = Registry("thing")

        @registry.register("fn")
        def fn():
            return 42

        assert registry.get("fn") is fn

    def test_unknown_name_lists_registered(self):
        registry = Registry("widget")
        registry.register("alpha", 1)
        registry.register("beta", 2)
        with pytest.raises(ValueError) as excinfo:
            registry.get("gamma")
        message = str(excinfo.value)
        assert "unknown widget 'gamma'" in message
        assert "alpha" in message and "beta" in message
        assert not isinstance(excinfo.value, KeyError)

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", 2)
        registry.register("a", 2, replace=True)
        assert registry.get("a") == 2

    def test_unregister(self):
        registry = Registry("thing")
        registry.register("a", 1)
        registry.unregister("a")
        assert "a" not in registry


class TestBuiltins:
    def test_builtin_loading_from_cold_interpreter(self):
        """Listing a registry must self-import its builtins without
        deadlocking (registration re-enters the registry lock during the
        lazy import)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = ("from repro.registry import SCHEMES; "
                "print(','.join(SCHEMES.names()))")
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120,
                             check=True)
        assert out.stdout.strip() == "default,gorilla,lis,toolllm"

    def test_builtin_schemes_present(self):
        for name in ("default", "gorilla", "toolllm", "lis"):
            assert name in SCHEMES

    def test_builtin_suites_present(self):
        for name in ("bfcl", "geoengine", "edgehome"):
            assert name in SUITES

    def test_builtin_catalogs_present(self):
        for name in ("bfcl", "geoengine", "edgehome"):
            assert name in CATALOGS

    def test_register_catalog_decorator(self):
        @register_catalog("test-extra-catalog")
        def build():
            from repro.tools.catalog import ToolCatalog
            from repro.tools.schema import ToolSpec

            return ToolCatalog("test-extra-catalog",
                               (ToolSpec("ping", "Ping the thing."),))

        try:
            assert "test-extra-catalog" in CATALOGS
            assert CATALOGS.get("test-extra-catalog") is build
        finally:
            CATALOGS.unregister("test-extra-catalog")

    def test_unknown_catalog_error_lists_names(self):
        with pytest.raises(ValueError, match="registered catalogs:.*bfcl"):
            CATALOGS.get("nope")


class TestSchemeResolution:
    def test_exact_name(self):
        factory, implied = resolve_scheme("default")
        assert implied == {}
        assert callable(factory)

    def test_parameterized_k_suffix(self):
        factory, implied = resolve_scheme("lis-k7")
        assert implied == {"k": 7}
        assert factory is resolve_scheme("lis")[0]

    def test_unknown_scheme_error_lists_names(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_scheme("react")
        message = str(excinfo.value)
        assert "unknown scheme 'react'" in message
        for name in ("default", "gorilla", "lis", "toolllm"):
            assert name in message

    def test_build_scheme_applies_implied_k(self):
        suite = load_suite("edgehome", n_queries=4)
        agent = build_scheme("lis-k5", "hermes2-pro-8b", "q4_K_M",
                             SchemeContext(suite=suite))
        assert agent.k == 5

    def test_build_scheme_conflicting_k_rejected(self):
        """lis-k5 + explicit k=2 would run mislabeled — refuse it."""
        suite = load_suite("edgehome", n_queries=4)
        with pytest.raises(ValueError, match="implies k=5"):
            build_scheme("lis-k5", "hermes2-pro-8b", "q4_K_M",
                         SchemeContext(suite=suite), k=2)

    def test_build_scheme_agreeing_k_accepted(self):
        suite = load_suite("edgehome", n_queries=4)
        agent = build_scheme("lis-k5", "hermes2-pro-8b", "q4_K_M",
                             SchemeContext(suite=suite), k=5)
        assert agent.k == 5


class TestSchemeContext:
    def test_context_builds_levels_on_demand(self):
        suite = load_suite("edgehome", n_queries=4)
        context = SchemeContext(suite=suite)
        levels = context.levels
        assert levels.n_clusters >= 1
        assert context.levels is levels  # memoized

    def test_context_prefers_levels_fn(self):
        sentinel = object()
        context = SchemeContext(suite=None, levels_fn=lambda: sentinel)
        assert context.levels is sentinel


class TestThirdPartyPlugins:
    def test_custom_scheme_runs_through_session(self):
        from repro import AgentSpec, open_session
        from repro.baselines.default_agent import DefaultAgent

        class EagerAgent(DefaultAgent):
            scheme = "eager"

        @register_scheme("eager")
        def build_eager(model, quant, context, **kwargs):
            from repro.llm import SimulatedLLM

            llm = SimulatedLLM.from_registry(model, quant)
            return EagerAgent(llm=llm, suite=context.suite, **kwargs)

        try:
            session = open_session("edgehome", n_queries=3)
            run = session.run(AgentSpec(scheme="eager", model="hermes2-pro-8b",
                                        quant="q4_K_M"))
            assert [e.scheme for e in run.episodes] == ["eager"] * 3
        finally:
            SCHEMES.unregister("eager")

    def test_custom_suite_loads_by_name(self):
        base = load_suite("edgehome", n_queries=3)

        @register_suite("tiny-home")
        def build_tiny(n_queries=None, seed=None):
            return base

        try:
            from repro import open_session

            session = open_session("tiny-home")
            assert session.suite is base
        finally:
            SUITES.unregister("tiny-home")
