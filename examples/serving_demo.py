"""Serving demo: a multi-tenant gateway micro-batching concurrent traffic.

The whole deployment is one declarative :class:`~repro.specs.ServingSpec`
— two tenants (the smart-home catalog and the BFCL-like pool), the
micro-batcher knobs and a plan cache — opened through
:func:`repro.open_session` and served with ``session.serve()``.  A burst
of concurrent requests from both tenants is fired twice: requests that
arrive together ride the same micro-batch (their embeddings and
Level-1/Level-2 retrievals are computed by single vectorized kernel
calls), and the second pass is answered from the plan cache — yet every
episode is bitwise identical to running that query alone.

Run:  PYTHONPATH=src python examples/serving_demo.py
(set REPRO_EXAMPLE_QUERIES to bound the burst, e.g. in CI)
"""

from __future__ import annotations

import asyncio
import os

from repro import ServingSpec, SuiteSpec, TenantSpec, open_session


async def main() -> None:
    burst = int(os.environ.get("REPRO_EXAMPLE_QUERIES", "8"))
    spec = ServingSpec(
        tenants=(
            TenantSpec("smart-home", SuiteSpec("edgehome", n_queries=12)),
            TenantSpec("assistant", SuiteSpec("bfcl", n_queries=12)),
        ),
        max_batch_size=8, queue_capacity=64,
        plan_cache_size=128,
    )
    session = open_session(spec)

    async with session.serve() as gateway:
        # a burst of concurrent traffic from both tenants, sent twice:
        # the second round hits the plan cache
        home = gateway.sessions.get("smart-home").suite
        bfcl = gateway.sessions.get("assistant").suite
        requests = [("smart-home", query) for query in home.queries[:burst]]
        requests += [("assistant", query) for query in bfcl.queries[:burst]]
        for _ in range(2):
            responses = await asyncio.gather(*(
                gateway.submit(tenant, query) for tenant, query in requests
            ))

        header = (f"{'tenant':<12} {'qid':<16} {'ok':<3} {'level':<5} "
                  f"{'batch':>5} {'queued':>8} {'latency':>9}")
        print(header)
        print("-" * len(header))
        for response in responses:
            episode = response.episode
            level = episode.selected_level if episode.selected_level else "-"
            print(f"{response.tenant:<12} {episode.qid:<16} "
                  f"{'yes' if episode.success else 'no':<3} {str(level):<5} "
                  f"{response.batch_size:>5} "
                  f"{response.queued_s * 1e3:>6.1f}ms "
                  f"{response.latency_s * 1e3:>7.1f}ms")

        metrics = gateway.metrics()
        print(f"\nserved {metrics['requests_completed']} requests in "
              f"{metrics['n_batches']} micro-batches "
              f"(mean batch {metrics['mean_batch_size']:.1f}, "
              f"histogram {metrics['batch_size_histogram']})")
        print(f"latency p50/p95/p99: {metrics['latency_p50_ms']:.1f} / "
              f"{metrics['latency_p95_ms']:.1f} / "
              f"{metrics['latency_p99_ms']:.1f} ms")
        print(f"plan cache: {metrics['plan_cache_hits']} hits / "
              f"{metrics['plan_cache_misses']} misses "
              f"(hit rate {metrics['plan_cache_hit_rate']:.0%})")
        print("\nEvery episode above is bitwise identical to running the same "
              "query through the sequential ExperimentRunner — micro-batching "
              "and plan memoization are pure throughput transforms.")


if __name__ == "__main__":
    asyncio.run(main())
