"""Thread-safety of the shared SimulatedToolExecutor."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.suites import load_suite
from repro.tools import SimulatedToolExecutor
from repro.tools.schema import ToolCall


def _calls(suite, n):
    calls = []
    for i in range(n):
        query = suite.queries[i % len(suite.queries)]
        calls.append(query.gold_calls[0])
    return calls


def test_concurrent_executions_do_not_lose_log_entries():
    suite = load_suite("edgehome", n_queries=16)
    executor = SimulatedToolExecutor(suite.catalog)
    calls = _calls(suite, 400)

    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = list(pool.map(executor.execute, calls))

    # every call produced an outcome and every outcome was logged:
    # pre-fix, concurrent list.append could drop entries
    assert len(outcomes) == 400
    assert len(executor.executed) == 400
    assert all(outcome.ok for outcome in outcomes)


def test_log_opt_out_keeps_executor_stateless():
    suite = load_suite("edgehome", n_queries=8)
    executor = SimulatedToolExecutor(suite.catalog, log_calls=False)
    calls = _calls(suite, 64)

    with ThreadPoolExecutor(max_workers=4) as pool:
        outcomes = list(pool.map(executor.execute, calls))

    assert all(outcome.ok for outcome in outcomes)
    assert executor.executed == []  # nothing accumulated


def test_outcomes_deterministic_under_concurrency():
    """The same call yields the same outcome no matter the interleaving."""
    suite = load_suite("edgehome", n_queries=8)
    sequential_executor = SimulatedToolExecutor(suite.catalog)
    call = suite.queries[0].gold_calls[0]
    reference = sequential_executor.execute(call)

    concurrent_executor = SimulatedToolExecutor(suite.catalog, log_calls=False)
    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = list(pool.map(concurrent_executor.execute, [call] * 64))
    for outcome in outcomes:
        assert outcome.value == reference.value
        assert outcome.api_latency_s == reference.api_latency_s


def test_failed_calls_are_logged_and_reset_clears():
    suite = load_suite("edgehome", n_queries=4)
    executor = SimulatedToolExecutor(suite.catalog)
    bad = ToolCall("not_a_real_tool", {})
    outcome = executor.execute(bad)
    assert not outcome.ok
    assert len(executor.executed) == 1
    executor.reset()
    assert executor.executed == []
