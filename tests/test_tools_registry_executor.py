"""Tests for the catalog read API agents use and repro.tools.executor."""

import pytest

from repro.tools import SimulatedToolExecutor, ToolCall, ToolCatalog, ToolParameter, ToolSpec


@pytest.fixture
def catalog():
    return ToolCatalog("trio", [
        ToolSpec("alpha", "First tool.", (ToolParameter("x", "integer"),), category="a"),
        ToolSpec("beta", "Second tool.", (), category="a"),
        ToolSpec("gamma", "Third tool.", (ToolParameter("s", "string"),), category="b"),
    ])


class TestToolRegistry:
    def test_len_and_contains(self, catalog):
        assert len(catalog) == 3
        assert "alpha" in catalog
        assert "delta" not in catalog

    def test_registration_order_preserved(self, catalog):
        assert catalog.names == ["alpha", "beta", "gamma"]

    def test_get_unknown(self, catalog):
        with pytest.raises(KeyError):
            catalog.get("delta")

    def test_get_unknown_suggests_near_miss(self, catalog):
        with pytest.raises(KeyError, match="did you mean 'gamma'"):
            catalog.get("gama")

    def test_get_unknown_lists_known_names(self, catalog):
        with pytest.raises(KeyError, match="known names: alpha, beta, gamma"):
            catalog.get("zzz")

    def test_categories(self, catalog):
        assert catalog.categories == ["a", "b"]

    def test_by_category(self, catalog):
        assert [t.name for t in catalog.by_category("a")] == ["alpha", "beta"]

    def test_subset_preserves_order(self, catalog):
        # a list in the *given* order is ``select`` on a catalog
        assert [t.name for t in catalog.select(["gamma", "alpha"])] == ["gamma", "alpha"]

    def test_descriptions_order(self, catalog):
        assert catalog.descriptions()[0] == "First tool."

    def test_prompt_text_contains_all(self, catalog):
        text = "\n".join(tool.json_text() for tool in catalog)
        for name in catalog.names:
            assert name in text

    def test_prompt_text_subset(self, catalog):
        text = "\n".join(tool.json_text() for tool in catalog.select(["beta"]))
        assert "beta" in text and "alpha" not in text


class TestSimulatedToolExecutor:
    def test_successful_call(self, catalog):
        executor = SimulatedToolExecutor(catalog)
        outcome = executor.execute(ToolCall("alpha", {"x": 3}))
        assert outcome.ok
        assert outcome.value["tool"] == "alpha"
        assert outcome.api_latency_s > 0

    def test_unknown_tool_fails(self, catalog):
        outcome = SimulatedToolExecutor(catalog).execute(ToolCall("delta"))
        assert not outcome.ok
        assert "unknown tool" in outcome.error

    def test_not_offered_tool_fails(self, catalog):
        executor = SimulatedToolExecutor(catalog)
        outcome = executor.execute(ToolCall("alpha", {"x": 3}), allowed={"beta"})
        assert not outcome.ok
        assert "not offered" in outcome.error

    def test_validation_failure(self, catalog):
        outcome = SimulatedToolExecutor(catalog).execute(ToolCall("alpha", {"x": "three"}))
        assert not outcome.ok
        assert outcome.issues

    def test_deterministic_latency_and_result(self, catalog):
        call = ToolCall("gamma", {"s": "hello"})
        a = SimulatedToolExecutor(catalog).execute(call)
        b = SimulatedToolExecutor(catalog).execute(call)
        assert a.api_latency_s == b.api_latency_s
        assert a.value == b.value

    def test_execution_log_and_reset(self, catalog):
        executor = SimulatedToolExecutor(catalog, log_calls=True)
        executor.execute(ToolCall("beta"))
        executor.execute(ToolCall("delta"))
        assert [outcome.ok for outcome in executor.executed] == [True, False]
