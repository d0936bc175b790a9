"""Feature directions of the sentence embedder: corpus rows and a bounded
request-time LRU.

The embedder maps every feature id (a ``(family, feature)`` pair) to a
fixed pseudo-random unit direction in R^dim: ``default_rng(stable_hash64(
namespace, dim, family, feature)).standard_normal(dim)`` normalized to
unit length, the historical per-feature loop's values, bit for bit.

The :class:`DirectionBank` keeps them in two parts:

* **corpus rows** — the features of every text the embedder was told is
  corpus (tool descriptions, the augmentation corpus, any catalog warmed
  or swapped in later) are interned into rows of one matrix, so a
  document embedding is a weighted gather + matmul over it.  The corpus
  only grows when a catalog arrives, never with traffic;
* **request-time directions** — every other feature (the novel words and
  bigrams that queries, recommender descriptions and retrieval contexts
  bring) is drawn into an LRU over one block of :data:`MAX_ENTRIES`
  slots.  A
  long-running server therefore stops growing once its corpus is built,
  and an evicted direction re-draws to the same bits.

A call with at least :data:`_BULK_MIN` new directions (building the
Search Levels: hundreds to thousands) seeds them in one vectorised pass
(:func:`~repro.utils.rng._seed_words`, shared with a micro-batch's
prefetched streams); fewer build ``default_rng(seed)`` per row.  Both
paths write the same bits.
"""

from __future__ import annotations

import math
import mmap
from collections import OrderedDict

import numpy as np

from repro.utils.hashing import stable_hash64
from repro.utils.rng import _BULK_MIN, _from_words, _seed_words

#: Feature key: ``(family, feature)``, e.g. ``("token", "weather")``.
FeatureKey = tuple[str, str]

#: The one bound on every LRU of the embedder stack: a
#: :class:`~repro.embedding.cache.CachedEmbedder`'s texts by default, the
#: request-time directions and the request-time word and bigram plans.
MAX_ENTRIES = 1024


def trim(lru: OrderedDict) -> None:
    """Evict least-recently-used entries down to :data:`MAX_ENTRIES`."""
    while len(lru) > MAX_ENTRIES:
        lru.popitem(last=False)


def _pages(rows: int, dim: int) -> mmap.mmap:
    """Anonymous private memory for ``rows`` float rows of ``dim``.

    Its pages become resident as they are first written, grow in place
    (``mremap``: nothing is copied) and go back to the OS when dropped.
    A malloc'd block of a few MB would, once freed, raise glibc's dynamic
    mmap threshold, and the process's later medium-sized arrays would
    then stay resident on the heap after they are freed.
    """
    pages = mmap.mmap(-1, rows * dim * 8,
                      flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    # as numpy asks for its own large arrays: gathers hit fewer TLB misses
    pages.madvise(mmap.MADV_HUGEPAGE)
    return pages


def _rows(pages: mmap.mmap, dim: int) -> np.ndarray:
    """The float rows of ``pages``, as one writable array."""
    return np.frombuffer(pages, dtype=float).reshape(-1, dim)


class DirectionBank:
    """Per-feature unit directions: grow-only corpus rows plus an LRU of
    request-time directions.

    Single-writer: :meth:`intern` and :meth:`request` take no lock (the
    owning :class:`~repro.embedding.cache.CachedEmbedder`'s lock
    serializes their callers).  An interned row is never written again.
    """

    def __init__(self, dim: int, namespace: str):
        self.dim = int(dim)
        self.namespace = namespace
        self._row_of: dict[FeatureKey, int] = {}
        self._keys: list[FeatureKey] = []
        self._pages: mmap.mmap | None = None
        self._storage = np.empty((0, self.dim))
        self._size = 0
        # request-time directions: key -> slot of one preallocated block
        self._slots = _rows(_pages(MAX_ENTRIES, self.dim), self.dim)
        self._request: OrderedDict[FeatureKey, int] = OrderedDict()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of corpus rows."""
        return self._size

    @property
    def matrix(self) -> np.ndarray:
        """View of the corpus direction rows (do not mutate, and drop it
        before the next :meth:`intern`: growing resizes the pages)."""
        return self._storage[: self._size]

    @property
    def keys(self) -> list[FeatureKey]:
        """Corpus feature keys, indexed by row id (do not mutate)."""
        return self._keys

    @property
    def row_of(self) -> dict[FeatureKey, int]:
        """Corpus feature key -> row id (do not mutate)."""
        return self._row_of

    # ------------------------------------------------------------------
    # corpus rows
    # ------------------------------------------------------------------
    def intern(self, keys: list[FeatureKey]) -> list[int]:
        """Intern ``keys`` as corpus rows (generating all missing
        directions in one pass) and return their row ids in input order."""
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
    # request-time directions
    # ------------------------------------------------------------------
    def request(self, keys: list[FeatureKey]) -> tuple[np.ndarray, list[int]]:
        """Directions of the distinct, non-corpus ``keys``: ``(matrix,
        rows)`` with ``keys[i]``'s direction in ``matrix[rows[i]]``.

        Hits come from the LRU's slots and misses are drawn into slots in
        one pass; the misses evict the least recently used keys this call
        does not name.  A call naming more keys than there are slots gets
        all of them drawn into a block of its own.  A key interned since
        keeps its slot until evicted: nothing requests it again.
        """
        slots = self._slots
        capacity = len(slots)
        if len(keys) > capacity:
            block = np.empty((len(keys), self.dim))
            self._draw(keys, block)
            return block, list(range(len(keys)))
        lru = self._request
        rows: list[int] = []
        missing: list[FeatureKey] = []
        for key in keys:
            slot = lru.get(key)
            if slot is None:
                missing.append(key)
                rows.append(-1)
            else:
                lru.move_to_end(key)
                rows.append(slot)
        if missing:
            fresh = []
            for key in missing:
                # the oldest entries are not this call's: it names <= capacity
                slot = len(lru) if len(lru) < capacity else lru.popitem(last=False)[1]
                lru[key] = slot
                fresh.append(slot)
            self._draw(missing, [slots[slot] for slot in fresh])
            drawn = iter(fresh)
            rows = [slot if slot >= 0 else next(drawn) for slot in rows]
        return slots, rows

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _draw(self, keys: list[FeatureKey], rows) -> None:
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
        if capacity <= len(self._storage):
            return
        capacity = max(capacity, 2 * len(self._storage))
        if self._pages is None:
            self._pages = _pages(capacity, self.dim)
        else:
            self._storage = None   # the one view of the pages: release it
            self._pages.resize(capacity * self.dim * 8)
        self._storage = _rows(self._pages, self.dim)
