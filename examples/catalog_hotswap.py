"""Tool catalogs end to end: variants, diffing, and serving hot-swap.

The catalog is the unit the paper's method operates on — fewer tools,
shorter descriptions, fitted to the edge context budget.  This demo

1. loads a registered catalog and compares its ``full`` / ``compressed``
   / ``minimal`` description variants (total prompt-token cost);
2. diffs the full catalog against its minimal form;
3. serves a tenant on the full catalog, then **hot-swaps** it to the
   compressed variant mid-traffic with ``Gateway.update_catalog`` — the
   plan cache keys carry the catalog's content-hash version, so the
   post-swap requests are re-planned against the new tool pool instead
   of replaying stale cached plans.

Run:  PYTHONPATH=src python examples/catalog_hotswap.py
(set REPRO_EXAMPLE_QUERIES to bound the burst, e.g. in CI)
"""

from __future__ import annotations

import asyncio
import os

from repro import CatalogSpec, ServingSpec, SuiteSpec, TenantSpec, \
    load_catalog, open_session
from repro.llm.tokens import tool_prompt_tokens


def catalog_tokens(catalog) -> int:
    return sum(tool_prompt_tokens(tool) for tool in catalog)


async def main() -> None:
    burst = int(os.environ.get("REPRO_EXAMPLE_QUERIES", "6"))

    # 1. variants -------------------------------------------------------
    full = load_catalog("edgehome")
    print(f"catalog {full.name!r}: {len(full)} tools, "
          f"version {full.version[:12]}")
    for variant in ("full", "compressed", "minimal"):
        shrunk = full.at(variant)
        print(f"  {variant:<10} {catalog_tokens(shrunk):>5} prompt tokens "
              f"(version {shrunk.version[:12]})")

    # 2. diff -----------------------------------------------------------
    minimal = full.at("minimal")
    diff = full.diff(minimal)
    example = diff.changed[0]
    print(f"\nfull -> minimal changes {len(diff.changed)} tools, e.g. "
          f"{example!r}:")
    print(f"  - {full.get(example).description}")
    print(f"  + {minimal.get(example).description}")

    # 3. serving hot-swap ----------------------------------------------
    spec = ServingSpec(
        tenants=(TenantSpec("home", SuiteSpec("edgehome", n_queries=12)),),
        max_batch_size=4, plan_cache_size=64,
    )
    session = open_session(spec)
    async with session.serve() as gateway:
        queries = gateway.sessions.get("home").suite.queries[:burst]
        for query in queries:           # warm the plan cache
            await gateway.submit("home", query)
        replay = [await gateway.submit("home", query) for query in queries]

        version = gateway.update_catalog(
            "home", CatalogSpec("edgehome", variant="compressed"))
        swapped = [await gateway.submit("home", query) for query in queries]

        metrics = gateway.metrics()
        changed = sum(a.episode != b.episode
                      for a, b in zip(replay, swapped))
        print(f"\nhot-swapped tenant 'home' to compressed catalog "
              f"(version {version[:12]})")
        print(f"plan cache: {metrics['plan_cache_hits']} hits / "
              f"{metrics['plan_cache_misses']} misses — the "
              f"{len(queries)} post-swap requests were all re-planned")
        print(f"catalog swaps recorded: {metrics['catalog_swaps']}; "
              f"{changed}/{len(queries)} episodes changed under the "
              f"shorter descriptions")


if __name__ == "__main__":
    asyncio.run(main())
