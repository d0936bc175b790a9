"""Benchmark-suite substrate: tool catalogs, query generators, augmentation.

Four suites; the first two mirror the paper's evaluation targets:

* ``bfcl`` — a BFCL-like general function-calling suite: 51 tools, one
  gold call per query (sub-questions are independent);
* ``geoengine`` — a GeoLLM-Engine-like geospatial suite: 46 tools,
  *sequential* gold call chains where each call feeds the next;
* ``edgehome`` — an on-device assistant: 32 smart-home, assistant and
  media tools, single calls and short routines;
* ``browser`` — multi-turn web automation: 14 tools, chains spanning
  2-3 user turns over a stateful executor.

Each generates deterministic query pools with gold tool calls, split into
``train`` (used only for Level-2 augmentation/clustering, as in the
paper) and ``eval`` (the 230-query mini-batches the paper reports on).
"""

from repro.registry import SUITES, register_suite
from repro.suites.base import BenchmarkSuite, Query, QueryTurn
from repro.suites.bfcl import build_bfcl_suite
from repro.suites.browser import build_browser_suite
from repro.suites.edgehome import build_edgehome_suite
from repro.suites.geoengine import build_geoengine_suite

register_suite("bfcl", build_bfcl_suite)
register_suite("geoengine", build_geoengine_suite)
register_suite("edgehome", build_edgehome_suite)
register_suite("browser", build_browser_suite)


def load_suite(name: str, n_queries: int | None = None, seed: int | None = None,
               catalog=None) -> BenchmarkSuite:
    """Load a suite by name through the suite registry.

    Built-ins: ``"bfcl"`` | ``"geoengine"`` | ``"edgehome"`` |
    ``"browser"`` (multi-turn, stateful); anything
    added via :func:`repro.registry.register_suite` resolves the same
    way.  ``n_queries`` defaults to the paper's mini-batch size (230).
    ``catalog`` (a :class:`~repro.tools.catalog.ToolCatalog`) overrides
    the suite's tool pool; it is only forwarded when set, so suite
    builders without a ``catalog`` parameter keep working.
    """
    builder = SUITES.get(name)
    kwargs = {}
    if n_queries is not None:
        kwargs["n_queries"] = n_queries
    if seed is not None:
        kwargs["seed"] = seed
    if catalog is not None:
        kwargs["catalog"] = catalog
    return builder(**kwargs)


__all__ = [
    "BenchmarkSuite",
    "Query",
    "QueryTurn",
    "build_bfcl_suite",
    "build_browser_suite",
    "build_edgehome_suite",
    "build_geoengine_suite",
    "load_suite",
]
