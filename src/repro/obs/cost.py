"""Per-tenant token/cost accounting for the serving runtime.

The paper's thesis is that *smaller prompts win on the edge* — the
:class:`CostLedger` makes that a measured, per-request quantity instead
of a static catalog ratio.  For every served request it records:

* ``tool_prompt_tokens`` — the prompt weight of the tools the plan
  selected (via the same cached estimator catalogs use), which is what
  the ladder's reduced-``k`` rung and a terser catalog variant shrink;
* ``prompt_tokens`` / ``completion_tokens`` / ``llm_calls`` — the
  episode's own LLM traffic.

Entries are keyed by tenant **and** the tenant's catalog variant at
execution time, so an operator's hot-swap to a terser variant (``full``
→ ``compressed`` → ``minimal``; variants are not ladder rungs) shows up
in the ``by_variant`` breakdown's mean tool tokens per request.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields


@dataclass
class _Bucket:
    """Accumulated token counts for one (tenant, variant) cell."""

    requests: int = 0
    tool_prompt_tokens: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    llm_calls: int = 0

    def add(self, tool_prompt_tokens: int, prompt_tokens: int,
            completion_tokens: int, llm_calls: int) -> None:
        self.requests += 1
        self.tool_prompt_tokens += int(tool_prompt_tokens)
        self.prompt_tokens += int(prompt_tokens)
        self.completion_tokens += int(completion_tokens)
        self.llm_calls += int(llm_calls)

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "tool_prompt_tokens": self.tool_prompt_tokens,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "total_tokens": self.prompt_tokens + self.completion_tokens,
            "llm_calls": self.llm_calls,
            "mean_tool_prompt_tokens": (
                self.tool_prompt_tokens / self.requests
                if self.requests else 0.0),
        }


@dataclass(frozen=True)
class CostRecord:
    """One request's accounted cost (what ``CostLedger.record`` takes)."""

    tenant: str
    variant: str
    tool_prompt_tokens: int
    prompt_tokens: int = 0
    completion_tokens: int = 0
    llm_calls: int = 0
    catalog_version: str = ""


class CostLedger:
    """Thread-safe per-tenant, per-catalog-variant token accounting.

    Recording happens on the gateway's batch worker; snapshots are read
    from bench/CLI threads — everything is lock-protected.  The snapshot
    is plain JSON-able dicts (:meth:`Gateway.costs`, ``LoadReport.cost``).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._by_tenant: dict[str, _Bucket] = {}
        self._by_cell: dict[tuple[str, str], _Bucket] = {}
        self._catalog_versions: dict[str, str] = {}

    def record(self, rec: CostRecord) -> None:
        with self._lock:
            tenant_bucket = self._by_tenant.setdefault(rec.tenant, _Bucket())
            cell_bucket = self._by_cell.setdefault(
                (rec.tenant, rec.variant), _Bucket())
            for bucket in (tenant_bucket, cell_bucket):
                bucket.add(rec.tool_prompt_tokens, rec.prompt_tokens,
                           rec.completion_tokens, rec.llm_calls)
            if rec.catalog_version:
                self._catalog_versions[rec.tenant] = rec.catalog_version

    def snapshot(self) -> dict:
        """Point-in-time ledger view (JSON-serializable).

        ``by_tenant`` holds each tenant's lifetime totals plus a
        ``by_variant`` breakdown — comparing ``mean_tool_prompt_tokens``
        across variants is the description-variant savings readout.
        """
        with self._lock:
            tenants = {tenant: bucket.to_dict()
                       for tenant, bucket in self._by_tenant.items()}
            cells = {key: bucket.to_dict()
                     for key, bucket in self._by_cell.items()}
            versions = dict(self._catalog_versions)
        for (tenant, variant), stats in cells.items():
            tenants[tenant].setdefault("by_variant", {})[variant] = stats
        for tenant, version in versions.items():
            tenants[tenant]["catalog_version"] = version
        # summed from the copies above, not the live buckets: a record()
        # landing mid-snapshot must not make total disagree with by_tenant
        totals = _Bucket(**{
            counter.name: sum(stats[counter.name] for stats in tenants.values())
            for counter in fields(_Bucket)})
        return {"total": totals.to_dict(), "by_tenant": tenants}


def plan_tool_tokens(plan) -> int:
    """Prompt-token weight of the tools a plan exposes to the model.

    Uses the same cached per-tool estimator ``repro catalog list``
    totals per variant, so ledger numbers and the catalog token totals
    pinned in ``tests/test_tools_catalog.py`` are directly comparable.
    """
    from repro.llm.tokens import tool_prompt_tokens

    tools = getattr(plan, "tools", None) or ()
    return sum(tool_prompt_tokens(tool) for tool in tools)
