"""Memoizing wrapper around a sentence embedder.

Tool descriptions and benchmark queries are embedded many times across
schemes and models during an evaluation sweep; a shared cache keeps the
whole Figure-2 grid tractable without changing any semantics (the
embedder is deterministic).

The cache is batch-aware: one pass partitions a batch into hits and
misses, the misses are embedded in a single vectorized
:meth:`SentenceEmbedder.encode` call, and the results are merged back in
order.  Every cache is an LRU of ``max_entries`` texts, so a long-lived
service does not grow with the texts its requests bring; an evicted text
re-encodes to bitwise the same vector.  One lock covers the whole stack,
so one embedder can be shared by concurrent callers (the serving
gateway's event loop and batch worker).
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
        created when omitted).  Its projection is fixed at construction,
        so a cached vector never goes stale.
    max_entries:
        The cache evicts least-recently-used entries beyond this bound.
        The default, 1024 vectors (~6 KB each, ~6 MB full), holds every
        tenant's presented tool descriptions plus several 32-request
        micro-batches of query and recommendation texts.  An evicted
        text re-encodes from the wrapped embedder's interned directions,
        so its vector is bitwise the same on every encode.

    One lock is held across lookup, compute and store.  It guards the
    cache and, because nothing else reaches the wrapped embedder, that
    embedder's single-writer word memos and direction bank too.
    """

    def __init__(self, embedder: SentenceEmbedder | None = None,
                 max_entries: int = 1024):
        if not isinstance(max_entries, int) or max_entries < 1:
            raise ValueError(
                f"max_entries must be an int >= 1, got {max_entries!r}")
        self.embedder = embedder if embedder is not None else SentenceEmbedder()
        self.max_entries = max_entries
        self._cache: OrderedDict[str, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def dim(self) -> int:
        return self.embedder.dim

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode_one(self, text: str) -> np.ndarray:
        """Embed one string: a batch of one, so a miss is counted once."""
        return self.encode([text])[0]

    def encode(self, texts: list[str] | tuple[str, ...]) -> np.ndarray:
        """Embed a batch through the cache.

        Cache hits are collected in a single partitioning pass and the
        unique misses are embedded with one batched call, all under the
        lock, so every caller observes one canonical vector per text.
        """
        if isinstance(texts, str):
            raise TypeError("encode() expects a sequence of strings")
        texts = list(texts)
        if not texts:
            return np.zeros((0, self.dim))
        out: list[np.ndarray | None] = [None] * len(texts)
        miss_positions: dict[str, list[int]] = {}
        with self._lock:
            for i, text in enumerate(texts):
                vec = self._lookup(text)
                if vec is None:
                    miss_positions.setdefault(text, []).append(i)
                else:
                    out[i] = vec
            if miss_positions:
                unique_misses = list(miss_positions)
                fresh = self.embedder.encode(unique_misses)
                for text, vec in zip(unique_misses, fresh):
                    stored = self._store(text, vec)
                    for i in miss_positions[text]:
                        out[i] = stored
        return np.stack(out)

    # ------------------------------------------------------------------
    # cache introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus current and maximum size."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "size": len(self._cache),
            "max_entries": self.max_entries,
        }

    # ------------------------------------------------------------------
    # internals (callers hold the lock)
    # ------------------------------------------------------------------
    def _lookup(self, text: str) -> np.ndarray | None:
        vec = self._cache.get(text)
        if vec is None:
            self._misses += 1
            return None
        self._hits += 1
        self._cache.move_to_end(text)
        return vec

    def _store(self, text: str, vec: np.ndarray) -> np.ndarray:
        # own the storage: a row view of the batch result would keep the
        # whole (n, dim) base array alive, defeating the LRU memory bound
        if vec.base is not None:
            vec = vec.copy()
        self._cache[text] = vec
        if len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
            self._evictions += 1
        return vec


_SHARED: CachedEmbedder | None = None


def shared_embedder() -> CachedEmbedder:
    """Process-wide cached embedder (the default for agents/pipelines)."""
    global _SHARED
    if _SHARED is None:
        _SHARED = CachedEmbedder()
    return _SHARED
