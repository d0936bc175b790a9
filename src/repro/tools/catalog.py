"""First-class tool catalogs: named, versioned, variant-aware tool pools.

A :class:`ToolCatalog` is the unit the paper's method actually operates
on — the pool of JSON-described tools a deployment presents to the LLM.
It is frozen (safe to share across tenants and threads), content-hash
**versioned** (two catalogs with the same tools in the same order under
the same variant have the same ``version``; any edit changes it, which
is what lets the serving gateway's plan cache
invalidate itself on hot-swap), and **variant-aware**: every tool
carries ``full`` / ``compressed`` / ``minimal`` description variants
(:data:`~repro.tools.schema.DESCRIPTION_VARIANTS`), and
:meth:`ToolCatalog.at` re-presents the whole pool under a shorter
variant — the paper's "less is more" lever for description length,
orthogonal to the dynamic tool-*count* selection in ``repro.core``.

Catalogs register by name through :data:`repro.registry.CATALOGS`::

    from repro.registry import register_catalog
    from repro.tools import ToolCatalog

    @register_catalog("my-tools")
    def build_my_catalog() -> ToolCatalog:
        return ToolCatalog("my-tools", (spec_a, spec_b))

and load anywhere via :func:`load_catalog` — the CLI
(``repro catalog list|show|diff``), suite builders, ``CatalogSpec`` and
``Gateway.update_catalog`` all resolve names through the same registry.

Iteration order is registration order everywhere (``subset``
included): prompt layouts and embedding-index row ids depend on it.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.tools.schema import DESCRIPTION_VARIANTS, ToolSpec
from repro.utils.hashing import stable_hash_bytes


def suggest_names(name: str, known: Iterable[str]) -> str:
    """An actionable tail for unknown-name errors: near-misses + the list."""
    known = list(known)
    matches = difflib.get_close_matches(name, known, n=3, cutoff=0.5)
    hint = f" (did you mean {', '.join(repr(m) for m in matches)}?)" if matches else ""
    return f"{hint}; known names: {', '.join(known) or '(none)'}"


@dataclass(frozen=True)
class CatalogDiff:
    """Structured difference between two catalogs (``old.diff(new)``)."""

    added: tuple[str, ...]
    removed: tuple[str, ...]
    changed: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.changed)

    def summary(self) -> str:
        if self.is_empty:
            return "identical"
        parts = []
        for label, names in (("added", self.added), ("removed", self.removed),
                             ("changed", self.changed)):
            if names:
                parts.append(f"{label}: {', '.join(names)}")
        return "; ".join(parts)


@dataclass(frozen=True)
class ToolCatalog:
    """A frozen, named, versioned collection of :class:`ToolSpec` tools.

    Supports the whole read API agents need (lookup, iteration,
    category views, description corpus) plus the algebra the serving
    layer builds on: :meth:`subset`, :meth:`diff`, :meth:`at` (variant
    selection) and the :meth:`to_dict` form its :attr:`version` hashes.

    ``subset`` returns a *catalog in registration order*; rank-ordered
    plan assembly (a list in the given order) is :meth:`select`.

    ``variant`` records which description variant the held specs embody;
    freshly built catalogs are ``full``.  The :attr:`version` content
    hash covers name, variant, tool order and every spec field.
    """

    name: str
    tools: tuple[ToolSpec, ...] = ()
    variant: str = "full"

    def __post_init__(self):
        if not self.name:
            raise ValueError("ToolCatalog.name must be a non-empty string")
        if self.variant not in DESCRIPTION_VARIANTS:
            raise ValueError(
                f"unknown catalog variant {self.variant!r}; expected one of "
                f"{', '.join(DESCRIPTION_VARIANTS)}")
        object.__setattr__(self, "tools", tuple(self.tools))
        names = [tool.name for tool in self.tools]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ValueError(
                f"catalog {self.name!r}: duplicate tool names "
                f"{', '.join(duplicates)}")

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def _by_name(self) -> dict[str, ToolSpec]:
        index = self.__dict__.get("_by_name_cache")
        if index is None:
            index = {tool.name: tool for tool in self.tools}
            object.__setattr__(self, "_by_name_cache", index)
        return index

    def __len__(self) -> int:
        return len(self.tools)

    def __iter__(self) -> Iterator[ToolSpec]:
        return iter(self.tools)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> ToolSpec:
        """Return the tool called ``name`` (KeyError with suggestions)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"catalog {self.name!r} has no tool {name!r}"
                f"{suggest_names(name, self._by_name)}") from None

    @property
    def names(self) -> list[str]:
        """Tool names in registration order."""
        return [tool.name for tool in self.tools]

    @property
    def categories(self) -> list[str]:
        """Distinct tool categories, in first-appearance order."""
        seen: dict[str, None] = {}
        for tool in self.tools:
            seen.setdefault(tool.category, None)
        return list(seen)

    def by_category(self, category: str) -> list[ToolSpec]:
        """All tools tagged with ``category``."""
        return [tool for tool in self.tools if tool.category == category]

    def select(self, names: Iterable[str]) -> list[ToolSpec]:
        """Resolve ``names`` to specs, preserving the *given* order.

        This is the plan-assembly primitive (an agent's retrieval stage
        ranks tools, and rank order matters in the prompt); use
        :meth:`subset` for a catalog-shaped slice in registration order.
        """
        return [self.get(name) for name in names]

    def descriptions(self) -> list[str]:
        """Description corpus in registration order (for embedding)."""
        return [tool.description for tool in self.tools]

    # ------------------------------------------------------------------
    # catalog algebra
    # ------------------------------------------------------------------
    def subset(self, names: Iterable[str], name: str | None = None) -> "ToolCatalog":
        """A catalog holding only ``names``, in *registration* order.

        Registration order (not the order of ``names``) is preserved so
        prompt layouts and embedding-index ids stay stable no matter how
        the subset was expressed.  Unknown names raise the same
        suggestion-bearing KeyError as :meth:`get`.
        """
        wanted = set()
        for requested in names:
            self.get(requested)  # unknown names fail with suggestions
            wanted.add(requested)
        return ToolCatalog(
            name=name if name is not None else self.name,
            tools=tuple(tool for tool in self.tools if tool.name in wanted),
            variant=self.variant,
        )

    def diff(self, other: "ToolCatalog") -> CatalogDiff:
        """What changes going from ``self`` to ``other``.

        Names appear in the owning catalog's registration order;
        ``changed`` lists tools present in both whose specs differ
        (description variants included).
        """
        return CatalogDiff(
            added=tuple(t.name for t in other.tools if t.name not in self),
            removed=tuple(t.name for t in self.tools if t.name not in other),
            changed=tuple(t.name for t in self.tools
                          if t.name in other and other.get(t.name) != t),
        )

    def at(self, variant: str) -> "ToolCatalog":
        """The same pool presented under ``variant``.

        ``at("full")`` on a full catalog returns ``self`` (identity —
        the bitwise-identical default path).  Variants are derived from
        the full descriptions, so a compressed/minimal catalog cannot be
        re-expanded; reload the full catalog instead.
        """
        if variant == self.variant:
            return self
        if self.variant != "full":
            raise ValueError(
                f"catalog {self.name!r} is already the {self.variant!r} "
                f"variant; variants derive from full descriptions — reload "
                f"the full catalog (e.g. load_catalog({self.name!r})) and "
                f"call .at({variant!r}) on that")
        return ToolCatalog(
            name=self.name,
            tools=tuple(tool.at_variant(variant) for tool in self.tools),
            variant=variant,
        )

    # ------------------------------------------------------------------
    # identity / serialization
    # ------------------------------------------------------------------
    @property
    def version(self) -> str:
        """Content-hash version: stable across processes, sensitive to
        any change in name, variant, tool order or tool content."""
        cached = self.__dict__.get("_version_cache")
        if cached is None:
            canonical = json.dumps(self.to_dict(), sort_keys=True,
                                   separators=(",", ":"))
            cached = stable_hash_bytes("tool-catalog", canonical).hex()
            object.__setattr__(self, "_version_cache", cached)
        return cached

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (tools become nested dicts)."""
        return {
            "name": self.name,
            "variant": self.variant,
            "tools": [tool.to_dict() for tool in self.tools],
        }


def load_catalog(name: str, variant: str = "full",
                 include: Iterable[str] | None = None) -> ToolCatalog:
    """Build a registered catalog by name, optionally sliced and shrunk.

    ``include`` subsets to the given tool names (registration order is
    preserved); ``variant`` then re-presents the descriptions.  Unknown
    catalog names raise the registry's actionable :class:`ValueError`.
    """
    from repro.registry import CATALOGS

    catalog = CATALOGS.get(name)()
    if not isinstance(catalog, ToolCatalog):
        raise TypeError(
            f"catalog builder {name!r} returned "
            f"{type(catalog).__name__}, expected ToolCatalog")
    if include is not None:
        catalog = catalog.subset(include)
    return catalog.at(variant)


__all__ = [
    "CatalogDiff",
    "ToolCatalog",
    "load_catalog",
    "suggest_names",
]
