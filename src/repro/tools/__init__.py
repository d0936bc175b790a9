"""Tool/API substrate: schemas, catalogs and a simulated executor.

Both benchmarks hand the LLM a pool of JSON-described API tools.  This
package defines the schema objects (:class:`ToolSpec`,
:class:`ToolParameter`), a :class:`ToolCatalog` for pools, and a
:class:`SimulatedToolExecutor` that validates call arguments against the
schema exactly like a real API gateway would — argument-type mistakes made
by the simulated LLM surface here as failed executions, which is what
separates the paper's *Success Rate* metric from *Tool Accuracy*.
"""

from repro.tools.catalog import CatalogDiff, ToolCatalog, load_catalog
from repro.tools.executor import ExecutionOutcome, SimulatedToolExecutor
from repro.tools.schema import (
    DESCRIPTION_VARIANTS,
    ToolCall,
    ToolParameter,
    ToolSpec,
    ValidationIssue,
    derive_description,
)

__all__ = [
    "CatalogDiff",
    "DESCRIPTION_VARIANTS",
    "ExecutionOutcome",
    "SimulatedToolExecutor",
    "ToolCall",
    "ToolCatalog",
    "ToolParameter",
    "ToolSpec",
    "ValidationIssue",
    "derive_description",
    "load_catalog",
]
