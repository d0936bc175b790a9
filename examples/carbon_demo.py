"""Carbon demo: the budget controller degrading under a joule cap and a
grid-intensity duck curve.

One tenant serves waves of smart-home traffic under a
:class:`~repro.specs.BudgetSpec` with a tight rolling energy budget and
the committed day-long grid-intensity trace
(``benchmarks/data/grid_intensity_day.csv``).  Between waves the budget
controller ticks against a simulated clock walking through the day:
over-budget windows step the tenant down the serving ladder
(full -> reduced-k -> shed), and the evening carbon peak steps the
simulated Jetson down power modes (MAXN -> 30W -> 15W).  Both effects
are visible in the per-wave status lines.  Every served episode runs on
the board in the mode of its batch, so it is bitwise identical to
running the same query uncontrolled at that rung on that mode's device,
and the J/req column is the mean of those episodes' own joules.
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
from pathlib import Path

from repro import (
    BudgetSpec,
    ObsSpec,
    ServingSpec,
    SuiteSpec,
    TenantSpec,
    open_session,
)
from repro.serving import TenantShedError

TRACE = Path(__file__).resolve().parent.parent / "benchmarks" / "data" / \
    "grid_intensity_day.csv"

#: simulated hours the controller ticks at: afternoon (cheap grid),
#: evening peak (steps the power mode down twice), then the overnight
#: trough (two clean ticks per rung step the mode back up)
HOURS = (13.0, 14.0, 20.0, 22.0, 2.0, 3.0, 4.0, 5.0)


async def main() -> None:
    wave = int(os.environ.get("REPRO_EXAMPLE_QUERIES", "6"))
    spec = ServingSpec(
        tenants=(
            TenantSpec("smart-home", SuiteSpec("edgehome", n_queries=12)),
        ),
        max_batch_size=8,
        budget=BudgetSpec(
            energy_budget_j=135.0,          # under the first full-rung
            window_requests=wave,           # wave: ~141 J/req at 4, ~171 at 6
            settle_requests=wave,
            recovery_ticks=2,
            interval_ms=3_600_000.0,        # dormant loop: we tick manually
            signal="trace", trace_path=str(TRACE),
            intensity_high=450.0,           # evening peak is 524 g/kWh
            intensity_low=400.0,            # overnight trough is ~370
        ),
        obs=ObsSpec(sink="memory", sample_rate=0.0),  # markers only
    )
    session = open_session(spec)

    async with session.serve() as gateway:
        suite = gateway.sessions.get("smart-home").suite
        print(f"{'hour':>5} {'rung':<10} {'mode':<5} "
              f"{'J/req':>7} {'gCO2/req':>9}  served")
        print("-" * 49)
        for hour in HOURS:
            queries = [suite.queries[i % len(suite.queries)]
                       for i in range(wave)]
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
            gateway.budget.tick(now_s=hour * 3600.0)
            status = gateway.budget_status("smart-home")
            print(f"{hour:>5.0f} {gateway.rung('smart-home'):<10} "
                  f"{gateway.power_mode():<5} "
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
            f"{a['scope']}:{a['direction']}:{a.get('rung', a.get('power_mode'))}"
            for a in (span.attributes for span in gateway.tracer.sink.spans()
                      if span.name == "budget"))
        assert markers == metrics["budget_transitions_detail"], markers
        assert {key.split(":")[0] for key in markers} == {
            "smart-home", "device"}, markers
        print(f"budget marker spans: {sum(markers.values())}, one per "
              f"transition")
        print("\nThe joule cap walks the tenant down the ladder (cheaper "
              "rungs spend fewer tokens, hence fewer joules) while the "
              "evening carbon peak independently steps the simulated board "
              "down a power mode — and back up once the grid is clean for "
              "two consecutive ticks.")


if __name__ == "__main__":
    asyncio.run(main())
