"""Reproduction of *Less is More: Optimizing Function Calling for LLM
Execution on Edge Devices* (DATE 2025).

The package is organised as a stack of substrates (embedding, vector
search, clustering, tools, benchmark suites, a behavioural LLM simulator
and an edge-hardware model) with the paper's contribution — the
Less-is-More dynamic tool-selection pipeline — implemented in
:mod:`repro.core` on top of them.  The public surface is declarative:
typed specs (:mod:`repro.specs`), plugin registries
(:mod:`repro.registry`) and the :class:`~repro.session.Session` facade.

Quickstart::

    from repro import AgentSpec, open_session

    session = open_session("bfcl", n_queries=20)
    run = session.run(AgentSpec(scheme="lis-k3", model="llama3.1-8b",
                                quant="q4_K_M"))
    episode = run.episodes[0]
    print(episode.success, episode.selected_level)

Every name below is imported lazily, so ``import repro`` touches none of
the heavy submodules (numpy-backed kernels, the serving stack).
"""

#: exported name -> (module, attribute); resolved on first attribute access
_LAZY_EXPORTS = {
    # the declarative Session API
    "open_session": ("repro.session", "open_session"),
    "Session": ("repro.session", "Session"),
    "AgentSpec": ("repro.specs", "AgentSpec"),
    "BudgetSpec": ("repro.specs", "BudgetSpec"),
    "CatalogSpec": ("repro.specs", "CatalogSpec"),
    "EngineSpec": ("repro.specs", "EngineSpec"),
    "ExperimentSpec": ("repro.specs", "ExperimentSpec"),
    "GridSpec": ("repro.specs", "GridSpec"),
    "HttpSpec": ("repro.specs", "HttpSpec"),
    "ObsSpec": ("repro.specs", "ObsSpec"),
    "ServingSpec": ("repro.specs", "ServingSpec"),
    "SuiteSpec": ("repro.specs", "SuiteSpec"),
    "TenantSpec": ("repro.specs", "TenantSpec"),
    # the tool-catalog API
    "ToolCatalog": ("repro.tools.catalog", "ToolCatalog"),
    "ToolSpec": ("repro.tools.schema", "ToolSpec"),
    "ToolParameter": ("repro.tools.schema", "ToolParameter"),
    # plugin registries
    "register_scheme": ("repro.registry", "register_scheme"),
    "register_suite": ("repro.registry", "register_suite"),
    "register_catalog": ("repro.registry", "register_catalog"),
    "register_engine": ("repro.registry", "register_engine"),
    # carbon/power-aware serving
    "BudgetController": ("repro.power", "BudgetController"),
    "EnergyMeter": ("repro.power", "EnergyMeter"),
    "build_engine_llm": ("repro.engines", "build_engine_llm"),
    # the HTTP front door
    "create_app": ("repro.serving.http", "create_app"),
    "serve_gateway": ("repro.serving.http", "serve_gateway"),
    # loaders
    "load_catalog": ("repro.tools.catalog", "load_catalog"),
    "__version__": ("repro.version", "__version__"),
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value  # cache: subsequent access skips __getattr__
    return value
