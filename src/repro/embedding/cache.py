"""Memoizing wrapper around a sentence embedder.

Tool descriptions and benchmark queries are embedded many times across
schemes and models during an evaluation sweep; a shared cache keeps the
whole Figure-2 grid tractable without changing any semantics (the
embedder is deterministic).

The cache is batch-aware: one pass partitions a batch into hits and
misses, the misses are embedded in a single vectorized
:meth:`SentenceEmbedder.encode` call, and the results are merged back in
order.  An optional ``max_entries`` bound turns the cache into an LRU so
long-lived services cannot grow without limit.  All cache mutation is
lock-protected, so one embedder can be shared by concurrent callers
(the serving gateway's worker threads).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.embedding.sentence import SentenceEmbedder


class CachedEmbedder:
    """Deterministic embedder with a text -> vector cache.

    Parameters
    ----------
    embedder:
        The underlying :class:`SentenceEmbedder` (a default instance is
        created when omitted).
    max_entries:
        When set, the cache evicts least-recently-used entries beyond
        this bound; ``None`` (the default) keeps every vector.
    """

    def __init__(self, embedder: SentenceEmbedder | None = None,
                 max_entries: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.embedder = embedder if embedder is not None else SentenceEmbedder()
        self.max_entries = max_entries
        self._cache: OrderedDict[str, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        # serializes underlying-embedder compute against reseed(): a
        # projection swap mid-encode would otherwise tear vectors (rows
        # summed from two different direction banks) or let a vector
        # computed under the old projection land in the new-generation
        # cache
        self._compute_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._generation = self.projection_generation

    @property
    def dim(self) -> int:
        return self.embedder.dim

    @property
    def projection_generation(self) -> int:
        """The wrapped embedder's projection id (0 when it has none).

        Changes on :meth:`reseed`; anything derived from this embedder's
        vectors and kept elsewhere keys its validity on it.
        """
        return getattr(self.embedder, "projection_generation", 0)

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode_one(self, text: str) -> np.ndarray:
        """Embed one string, reusing the cached vector when available."""
        with self._lock:
            self._check_generation()
            vec = self._lookup(text)
        if vec is not None:
            return vec
        return self.encode([text])[0]

    def encode(self, texts: list[str] | tuple[str, ...]) -> np.ndarray:
        """Embed a batch through the cache.

        Cache hits are collected in a single partitioning pass; the
        unique misses are embedded with one batched call under
        ``_compute_lock``, so a concurrent :meth:`reseed` cannot swap the
        projection mid-batch (torn vectors).  Both phases are pinned to
        one projection generation: if a reseed lands anywhere between
        the hit lookup and the store, the whole partition is discarded
        and redone, so the returned matrix never mixes vectors from two
        projections and nothing stale is stored into the fresh cache.
        """
        if isinstance(texts, str):
            raise TypeError("encode() expects a sequence of strings")
        texts = list(texts)
        if not texts:
            return np.zeros((0, self.dim))
        while True:
            out: list[np.ndarray | None] = [None] * len(texts)
            miss_positions: dict[str, list[int]] = {}
            with self._lock:
                self._check_generation()
                generation = self._generation
                for i, text in enumerate(texts):
                    vec = self._lookup(text)
                    if vec is None:
                        miss_positions.setdefault(text, []).append(i)
                    else:
                        out[i] = vec
            if not miss_positions:
                return np.stack(out)
            unique_misses = list(miss_positions)
            with self._compute_lock:
                compute_generation = self.projection_generation
                fresh = self.embedder.encode(unique_misses)
            with self._lock:
                self._check_generation()
                if not (self._generation == generation == compute_generation):
                    continue  # reseed() raced the lookup/compute; redo everything
                for text, vec in zip(unique_misses, fresh):
                    stored = self._store(text, vec)
                    for i in miss_positions[text]:
                        out[i] = stored
            return np.stack(out)

    # ------------------------------------------------------------------
    # cache introspection / management
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._cache)

    def cache_info(self) -> dict[str, int | None]:
        """Hit/miss/eviction counters plus current and maximum size."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "size": len(self._cache),
            "max_entries": self.max_entries,
        }

    def clear(self) -> None:
        """Drop every cached vector (counters are kept)."""
        with self._lock:
            self._cache.clear()

    def reseed(self, seed_namespace: str) -> None:
        """Re-roll the underlying projection, coherently with the cache.

        Calling ``embedder.reseed`` directly still works (the generation
        check invalidates the cache lazily), but going through this
        method additionally excludes in-flight encode computes, so
        concurrent callers can never observe a vector torn across two
        projections.
        """
        with self._compute_lock:
            self.embedder.reseed(seed_namespace)
        with self._lock:
            self._check_generation()

    # ------------------------------------------------------------------
    # internals (callers hold the lock)
    # ------------------------------------------------------------------
    def _check_generation(self) -> None:
        """Drop cached vectors produced under an older projection.

        :meth:`SentenceEmbedder.reseed` re-rolls the random directions,
        making previously cached vectors incomparable with new ones;
        tracking the embedder's projection generation keeps the cache
        coherent without an explicit invalidation call."""
        generation = self.projection_generation
        if generation != self._generation:
            self._cache.clear()
            self._generation = generation

    def _lookup(self, text: str) -> np.ndarray | None:
        vec = self._cache.get(text)
        if vec is None:
            self._misses += 1
            return None
        self._hits += 1
        if self.max_entries is not None:
            self._cache.move_to_end(text)
        return vec

    def _store(self, text: str, vec: np.ndarray) -> np.ndarray:
        kept = self._cache.get(text)
        if kept is not None:
            # another thread computed the same text first; keep its copy
            # so every caller observes one canonical vector per text
            return kept
        # own the storage: a row view of the batch result would keep the
        # whole (n, dim) base array alive, defeating the LRU memory bound
        if vec.base is not None:
            vec = vec.copy()
        self._cache[text] = vec
        if self.max_entries is not None and len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
            self._evictions += 1
        return vec


#: LRU bound of the process-wide embedder (~6 KB a vector, ~50 MB full):
#: `repro serve` lives on it and every request brings new texts.  An
#: evicted text re-encodes to bitwise the same vector.
SHARED_MAX_ENTRIES = 8192

_SHARED: CachedEmbedder | None = None


def shared_embedder() -> CachedEmbedder:
    """Process-wide cached embedder (the default for agents/pipelines)."""
    global _SHARED
    if _SHARED is None:
        _SHARED = CachedEmbedder(max_entries=SHARED_MAX_ENTRIES)
    return _SHARED
