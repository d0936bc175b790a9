"""Carbon demo: the budget controller degrading a tenant under a joule cap.

One tenant serves waves of smart-home traffic under a
:class:`~repro.specs.BudgetSpec` with a tight rolling energy budget.
Between waves the budget controller ticks once: an over-budget window
steps the tenant down the serving ladder (full -> reduced-k -> shed),
and probation and under-budget windows step it back up.  The cap sits
between what a wave costs on ``full`` and on ``reduced-k`` at every wave
size up to 5, so the tenant steps down once and is then served steadily
on ``reduced-k``.  Every served episode is bitwise identical to running
the same query uncontrolled at that rung, and the J/req column is the
mean of those episodes' own joules; the gCO2 column is those joules
times the spec's one grid intensity (``intensity_g_per_kwh``), never
budgeted.  The board serves at MAXN throughout: under this repo's
hardware model neither a lower nvpmodel mode nor a lighter quantization
saves joules per request (``tests/test_power_laws.py``).
The gateway traces into an in-memory sink with no request sampled, so
the trace holds exactly the controller's ``budget`` marker spans: one per
counted budget transition, which the demo checks before it exits.

Run:  PYTHONPATH=src python examples/carbon_demo.py
(set REPRO_EXAMPLE_QUERIES to bound the wave size, e.g. in CI)
"""

from __future__ import annotations

import asyncio
import os
from collections import Counter

from repro import (
    BudgetSpec,
    ObsSpec,
    ServingSpec,
    SuiteSpec,
    TenantSpec,
    open_session,
)
from repro.serving import TenantShedError

#: waves served, one controller tick after each
WAVES = 8


async def main() -> None:
    wave = int(os.environ.get("REPRO_EXAMPLE_QUERIES", "5"))
    spec = ServingSpec(
        tenants=(
            TenantSpec("smart-home", SuiteSpec("edgehome", n_queries=12)),
        ),
        max_batch_size=8,
        budget=BudgetSpec(
            energy_budget_j=135.0,          # full: 140.6 J/req at 4, 143.2
            window_requests=wave,           # at 5; reduced-k: 123.5, 125.5
            settle_requests=wave,
            recovery_ticks=2,
            interval_ms=3_600_000.0,        # dormant loop: we tick manually
        ),
        obs=ObsSpec(sink="memory", sample_rate=0.0),  # markers only
    )
    session = open_session(spec)

    async with session.serve() as gateway:
        suite = gateway.sessions.get("smart-home").suite
        print(f"{'wave':>4} {'rung':<10} {'J/req':>7} {'gCO2/req':>9}  served")
        print("-" * 42)
        for number in range(1, WAVES + 1):
            queries = [suite.queries[i % len(suite.queries)]
                       for i in range(wave)]
            rung = gateway.rung("smart-home")   # the rung serving this wave
            results = await asyncio.gather(
                *(gateway.submit("smart-home", query) for query in queries),
                return_exceptions=True)
            served = 0
            for result in results:
                if isinstance(result, TenantShedError):
                    continue                # a tenant over budget sheds
                if isinstance(result, BaseException):
                    raise result
                served += 1
            gateway.budget.tick()
            status = gateway.budget_status("smart-home")
            print(f"{number:>4} {rung:<10} "
                  f"{status['mean_energy_j']:>7.1f} "
                  f"{status['mean_carbon_g'] * 1e3:>8.2f}m  "
                  f"{served}/{wave}")

        metrics = gateway.metrics()
        print(f"\n{metrics['requests_completed']} requests served, "
              f"{metrics['energy_j']:.0f} J / "
              f"{metrics['carbon_g'] * 1e3:.1f} mg CO2 total")
        print(f"budget transitions: {metrics['budget_transitions']} "
              f"{metrics['budget_transitions_detail']}")
        # each move is one marker span, keyed like the transition counter
        markers = Counter(
            f"{a['scope']}:{a['direction']}:{a['rung']}"
            for a in (span.attributes for span in gateway.tracer.sink.spans()
                      if span.name == "budget"))
        assert markers == metrics["budget_transitions_detail"], markers
        assert {key.split(":")[0] for key in markers} == {
            "smart-home"}, markers
        print(f"budget marker spans: {sum(markers.values())}, one per "
              f"transition")
        print(f"\nThe joule cap steps the tenant down the ladder: cheaper "
              f"rungs present fewer tools, so they spend fewer tokens and "
              f"fewer joules.  gCO2 is those joules at "
              f"{spec.budget.intensity_g_per_kwh:g} g/kWh.")


if __name__ == "__main__":
    asyncio.run(main())
