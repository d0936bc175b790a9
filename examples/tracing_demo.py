"""Tracing demo: watch one request become a span tree.

Observability is declared, not wired: the :class:`~repro.specs.ObsSpec`
inside the :class:`~repro.specs.ServingSpec` turns on span tracing with
an in-memory sink, and everything else — deterministic trace ids, queue/
plan/execute spans, the per-tenant cost ledger, the Prometheus text
exposition — falls out of serving the load.  The demo fires a burst of
concurrent traffic from two tenants, then:

* prints the span tree of one request, retrieved **by trace id** (ids
  are a pure function of ``(tenant, qid, repeat)`` — run the demo twice
  and the ids don't move);
* prints the per-tenant cost-ledger readout (the paper's "less is more"
  savings as a measured per-request quantity);
* prints a slice of ``Gateway.metrics_text()`` — what a Prometheus
  scrape of the future ``/metrics`` endpoint would return.

Run:  PYTHONPATH=src python examples/tracing_demo.py
(set REPRO_EXAMPLE_QUERIES to bound the burst, e.g. in CI)
"""

from __future__ import annotations

import asyncio
import os

from repro import ObsSpec, ServingSpec, SuiteSpec, TenantSpec, open_session


async def main() -> None:
    burst = int(os.environ.get("REPRO_EXAMPLE_QUERIES", "6"))
    spec = ServingSpec(
        tenants=(
            TenantSpec("smart-home", SuiteSpec("edgehome", n_queries=12)),
            TenantSpec("assistant", SuiteSpec("bfcl", n_queries=12)),
        ),
        max_batch_size=8,
        obs=ObsSpec(sink="memory", sample_rate=1.0),
    )
    session = open_session(spec)

    async with session.serve() as gateway:
        home = gateway.sessions.get("smart-home").suite
        bfcl = gateway.sessions.get("assistant").suite
        requests = [("smart-home", query) for query in home.queries[:burst]]
        requests += [("assistant", query) for query in bfcl.queries[:burst]]
        responses = await asyncio.gather(*(
            gateway.submit(tenant, query) for tenant, query in requests
        ))

        sink = gateway.tracer.sink
        trace_ids = sink.trace_ids()
        print(f"{len(responses)} requests -> {len(trace_ids)} traces "
              f"in the memory sink (ids are deterministic: same workload, "
              f"same ids, every run)\n")
        print(sink.render_tree(trace_ids[0]))

        print("\nper-tenant cost ledger:")
        for tenant, stats in sorted(gateway.costs()["by_tenant"].items()):
            print(f"  {tenant:<12} {stats['requests']} requests, "
                  f"{stats['tool_prompt_tokens']} tool prompt tokens "
                  f"(mean {stats['mean_tool_prompt_tokens']:.0f}/request, "
                  f"variant(s) {', '.join(stats['by_variant'])})")

        print("\nPrometheus exposition (metrics_text, first lines):")
        for line in gateway.metrics_text().splitlines()[:8]:
            print(f"  {line}")
        print("  ...")


if __name__ == "__main__":
    asyncio.run(main())
