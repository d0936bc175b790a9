"""Cost ledger: per-tenant token accounting and the variant readout.

When an operator hot-swaps a tenant's catalog to the ``compressed``
variant, the per-request tool-token cost the ledger records must shrink
— the ``by_variant`` breakdown quantifies it per served request.  (The
variants are an operator's tool, not degradation rungs.)
"""

from __future__ import annotations

import asyncio

import pytest

from repro.llm.tokens import tool_prompt_tokens
from repro.obs import CostLedger, CostRecord, plan_tool_tokens
from repro.serving import Gateway, SessionManager, run_load
from repro.specs import ServingSpec
from repro.suites import load_suite
from repro.tools.catalog import load_catalog


# ----------------------------------------------------------------------
# ledger mechanics
# ----------------------------------------------------------------------
def test_ledger_accumulates_per_tenant_and_per_variant():
    ledger = CostLedger()
    ledger.record(CostRecord("home", "full", 500, prompt_tokens=40,
                             completion_tokens=10, llm_calls=2,
                             catalog_version="abc123"))
    ledger.record(CostRecord("home", "compressed", 300, prompt_tokens=30,
                             completion_tokens=8, llm_calls=1))
    ledger.record(CostRecord("office", "full", 200))
    snapshot = ledger.snapshot()

    assert snapshot["total"]["requests"] == 3
    assert snapshot["total"]["tool_prompt_tokens"] == 1000
    assert snapshot["total"]["total_tokens"] == 40 + 10 + 30 + 8

    home = snapshot["by_tenant"]["home"]
    assert home["requests"] == 2
    assert home["catalog_version"] == "abc123"
    assert home["by_variant"]["full"]["tool_prompt_tokens"] == 500
    assert home["by_variant"]["compressed"]["tool_prompt_tokens"] == 300
    assert home["by_variant"]["full"]["mean_tool_prompt_tokens"] == 500.0

    office = snapshot["by_tenant"]["office"]
    assert office["requests"] == 1
    assert "catalog_version" not in office


def test_snapshot_is_json_plain_and_detached():
    ledger = CostLedger()
    ledger.record(CostRecord("home", "full", 100))
    snapshot = ledger.snapshot()
    snapshot["by_tenant"]["home"]["requests"] = 999  # mutate the copy
    assert ledger.snapshot()["by_tenant"]["home"]["requests"] == 1


def test_snapshot_total_equals_sum_of_tenants_under_concurrent_records():
    """``total`` is derived from the same copy ``by_tenant`` is, so no
    ``record()`` can land between the two (one lock acquisition)."""
    import threading

    ledger = CostLedger()
    stop = threading.Event()

    def hammer():
        n = 0
        while not stop.is_set():
            ledger.record(CostRecord(f"t{n % 3}", "full", 7, prompt_tokens=11,
                                     completion_tokens=3, llm_calls=1))
            n += 1

    writer = threading.Thread(target=hammer, daemon=True)
    writer.start()
    try:
        for _ in range(2000):
            snapshot = ledger.snapshot()
            for counter in ("requests", "tool_prompt_tokens", "prompt_tokens",
                            "completion_tokens", "llm_calls"):
                assert snapshot["total"][counter] == sum(
                    stats[counter]
                    for stats in snapshot["by_tenant"].values()), counter
    finally:
        stop.set()
        writer.join(timeout=5.0)
    assert ledger.snapshot()["total"]["requests"] > 0


def test_plan_tool_tokens_matches_the_catalog_estimator():
    catalog = load_catalog("edgehome")
    tools = list(catalog)[:5]

    class _Plan:
        pass

    plan = _Plan()
    plan.tools = tools
    assert plan_tool_tokens(plan) == sum(
        tool_prompt_tokens(tool) for tool in tools)
    # plans without a tool list (or with an empty one) cost zero
    assert plan_tool_tokens(object()) == 0
    plan.tools = []
    assert plan_tool_tokens(plan) == 0


# ----------------------------------------------------------------------
# gateway integration
# ----------------------------------------------------------------------
def test_load_report_carries_the_cost_snapshot():
    suite = load_suite("edgehome", n_queries=6)
    config = ServingSpec(max_batch_size=4, max_wait_ms=2.0)
    report = run_load({"home": suite}, config, n_requests=6, concurrency=3)
    cost = report.cost
    assert cost["total"]["requests"] == 6
    assert cost["by_tenant"]["home"]["tool_prompt_tokens"] > 0
    assert cost["by_tenant"]["home"]["catalog_version"] == \
        suite.catalog.version
    assert list(cost["by_tenant"]["home"]["by_variant"]) == ["full"]


def test_variant_downshift_shrinks_recorded_tool_tokens():
    """Hot-swapping a tenant to the compressed catalog must show up as a
    lower per-request tool-token mean in the ledger.

    The ``compressed`` variant keeps the tool *selections* identical while
    shrinking every description, so its mean is strictly lower.  (The
    ``minimal`` variant is deliberately not asserted here: its terser
    descriptions can degrade retrieval enough that a query falls back to
    a wider tool selection, and the ledger faithfully reports that the
    per-request cost went *up* — which is exactly the regression the
    ledger exists to expose.)
    """
    suite = load_suite("edgehome", n_queries=8)
    base = suite.catalog

    async def scenario():
        sessions = SessionManager()
        sessions.register("home", suite)
        config = ServingSpec(max_batch_size=4, max_wait_ms=2.0)
        async with Gateway(sessions, config=config) as gateway:
            for query in suite.queries[:4]:
                await gateway.submit("home", query)
            gateway.update_catalog("home", base.at("compressed"))
            for query in suite.queries[:4]:
                await gateway.submit("home", query)
            return gateway.costs()

    cost = asyncio.run(scenario())
    variants = cost["by_tenant"]["home"]["by_variant"]
    assert set(variants) == {"full", "compressed"}
    assert variants["full"]["requests"] == 4
    assert variants["compressed"]["requests"] == 4
    assert (variants["compressed"]["mean_tool_prompt_tokens"]
            < variants["full"]["mean_tool_prompt_tokens"])
    # the swap is visible in the recorded catalog version too
    assert cost["by_tenant"]["home"]["catalog_version"] != base.version


def test_cost_ledger_validation_of_inputs():
    bucket_total = CostLedger().snapshot()["total"]
    assert bucket_total["requests"] == 0
    assert bucket_total["mean_tool_prompt_tokens"] == 0.0
    with pytest.raises(TypeError):
        CostRecord("home", "full")  # tool_prompt_tokens is required
