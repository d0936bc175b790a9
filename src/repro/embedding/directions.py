"""Persistent feature-direction matrix backing the sentence embedder.

The embedder maps every feature id (a ``(family, feature)`` pair) to a
fixed pseudo-random unit direction in R^dim.  The seed implementation
kept these in a plain dict and re-derived a fresh
``np.random.default_rng`` inside the per-document accumulation loop; the
:class:`DirectionBank` instead interns features into rows of one growing
matrix so that document embeddings become a single weighted gather +
matmul over the bank.

Direction *values* are unchanged from the original implementation: row
``(family, feature)`` is ``default_rng(stable_hash64(namespace, dim,
family, feature)).standard_normal(dim)`` normalized to unit length, so
every embedding produced on top of the bank is numerically equivalent to
the historical per-feature loop.

Rows are drawn straight into the bank's storage.  An :meth:`intern` call
with at least :data:`_BULK_MIN` new rows (building the Search Levels:
hundreds to thousands) seeds them in one vectorised pass
(:func:`~repro.utils.rng._seed_words`, shared with a micro-batch's
prefetched streams); a served request's 1-3 new bigrams build
``default_rng(seed)`` per row.  Both paths write the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.hashing import stable_hash64
from repro.utils.rng import _BULK_MIN, _from_words, _seed_words

#: Feature key: ``(family, feature)``, e.g. ``("token", "weather")``.
FeatureKey = tuple[str, str]

#: Rows reserved up front: address space, not memory — ``np.empty`` pages
#: become resident as rows are written.  Doubling copies every row in
#: the request path; a two-suite build is ~6k rows and a served request adds
#: ~2 bigrams, so this defers the first copy to about request 5 000.
_INITIAL_CAPACITY = 16384


class DirectionBank:
    """Grow-only matrix of per-feature unit directions with stable seeds.

    Single-writer: :meth:`intern` is the only mutation and takes no lock
    (the owning :class:`~repro.embedding.cache.CachedEmbedder`'s lock
    serializes its callers).  An interned row is never written again.
    """

    def __init__(self, dim: int, namespace: str):
        self.dim = int(dim)
        self.namespace = namespace
        self._row_of: dict[FeatureKey, int] = {}
        self._keys: list[FeatureKey] = []
        self._storage = np.empty((_INITIAL_CAPACITY, self.dim))
        self._size = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def matrix(self) -> np.ndarray:
        """View of the interned direction rows (do not mutate)."""
        return self._storage[: self._size]

    @property
    def keys(self) -> list[FeatureKey]:
        """Interned feature keys, indexed by row id (do not mutate)."""
        return self._keys

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def intern(self, keys: list[FeatureKey]) -> list[int]:
        """Intern ``keys`` (generating all missing directions in one pass)
        and return their row ids in input order."""
        row_of = self._row_of
        missing = list(dict.fromkeys(key for key in keys if key not in row_of))
        if missing:
            start = self._size
            self._grow_to(start + len(missing))
            self._draw(missing, self._storage[start:start + len(missing)])
            for row, key in enumerate(missing, start):
                row_of[key] = row
            self._keys += missing
            self._size += len(missing)
        return [row_of[key] for key in keys]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _draw(self, keys: list[FeatureKey], rows: np.ndarray) -> None:
        """Write the unit direction of ``keys[i]`` into ``rows[i]``."""
        seeds = [stable_hash64(self.namespace, self.dim, family, feature)
                 for family, feature in keys]
        rngs = (map(_from_words, _seed_words(seeds)) if len(seeds) >= _BULK_MIN
                else map(np.random.default_rng, seeds))
        for rng, row in zip(rngs, rows):
            rng.standard_normal(out=row)
        for row in rows:
            # the dot np.linalg.norm takes: bit-identical to vec / norm(vec)
            row /= math.sqrt(row.dot(row))

    def _grow_to(self, capacity: int) -> None:
        if capacity <= self._storage.shape[0]:
            return
        new_capacity = max(capacity, 2 * self._storage.shape[0])
        storage = np.empty((new_capacity, self.dim))
        storage[: self._size] = self._storage[: self._size]
        self._storage = storage
