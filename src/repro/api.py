"""Top-level loaders: ``load_suite`` and ``load_model``.

Agents and gateways are built through the declarative Session API
(:func:`repro.open_session` → ``build_agent`` / ``run`` / ``serve``).

All imports are local so that ``import repro`` stays cheap.
"""

from __future__ import annotations


def load_suite(name: str, n_queries: int | None = None, seed: int | None = None):
    """Load a benchmark suite by registered name (e.g. ``"bfcl"``).

    ``n_queries`` defaults to the paper's mini-batch size of 230.
    """
    from repro.suites import load_suite as _load

    return _load(name, n_queries=n_queries, seed=seed)


def load_model(model: str, quant: str = "q4_K_M"):
    """Instantiate a simulated edge LLM (e.g. ``"llama3.1-8b"``)."""
    from repro.llm import SimulatedLLM

    return SimulatedLLM.from_registry(model, quant)
