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
"""

from __future__ import annotations

import threading

import numpy as np

from repro.utils.hashing import stable_hash64

#: Feature key: ``(family, feature)``, e.g. ``("token", "weather")``.
FeatureKey = tuple[str, str]

#: Rows reserved up front: address space, not memory — ``np.empty`` pages
#: become resident as rows are written.  Doubling copies every row under
#: the bank lock; a two-suite build is ~6k rows and a served request adds
#: ~2 bigrams, so this defers the first copy to about request 5 000.
_INITIAL_CAPACITY = 16384


class DirectionBank:
    """Grow-only matrix of per-feature unit directions with stable seeds.

    Thread-safe for concurrent :meth:`intern` calls (a lock serializes
    growth); reads through :attr:`matrix` snapshot the current storage,
    which is never mutated in place for already-interned rows.
    """

    def __init__(self, dim: int, namespace: str):
        self.dim = int(dim)
        self.namespace = namespace
        self._lock = threading.Lock()
        self._row_of: dict[FeatureKey, int] = {}
        self._keys: list[FeatureKey] = []
        self._storage = np.empty((_INITIAL_CAPACITY, self.dim))
        self._size = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: FeatureKey) -> bool:
        return key in self._row_of

    @property
    def matrix(self) -> np.ndarray:
        """View of the interned direction rows (do not mutate)."""
        return self._storage[: self._size]

    @property
    def keys(self) -> list[FeatureKey]:
        """Interned feature keys, indexed by row id (do not mutate)."""
        return self._keys

    @property
    def nbytes(self) -> int:
        """Resident bytes of the interned direction rows."""
        return self._size * self.dim * self._storage.itemsize

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def row(self, key: FeatureKey) -> int:
        """Return the row id for one feature, interning it if new."""
        existing = self._row_of.get(key)
        if existing is not None:
            return existing
        return self.intern([key])[0]

    def intern(self, keys: list[FeatureKey]) -> list[int]:
        """Intern ``keys`` (generating all missing directions in one pass)
        and return their row ids in input order."""
        missing = list(dict.fromkeys(key for key in keys if key not in self._row_of))
        if missing:
            with self._lock:
                missing = [key for key in missing if key not in self._row_of]
                if missing:
                    self._grow_to(self._size + len(missing))
                    for key in missing:
                        vec = self._generate(key)
                        self._storage[self._size] = vec
                        self._keys.append(key)
                        # publish the row id last: readers outside the lock
                        # only ever see fully-written rows
                        self._row_of[key] = self._size
                        self._size += 1
        row_of = self._row_of
        return [row_of[key] for key in keys]

    def direction(self, key: FeatureKey) -> np.ndarray:
        """The unit direction for one feature (interning it if new)."""
        return self._storage[self.row(key)]

    def clear(self) -> None:
        """Drop every interned direction (memory released)."""
        with self._lock:
            self._row_of = {}
            self._keys = []
            self._storage = np.empty((_INITIAL_CAPACITY, self.dim))
            self._size = 0

    # ------------------------------------------------------------------
    # pickling (process-pool workers receive a snapshot of the bank)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Ship keys only: direction values are pure functions of
        ``(namespace, dim, key)``, so regenerating them on the receiving
        side is bitwise identical and ~10x smaller on the wire than the
        float64 matrix (the dominant cost of pickling a warm embedder)."""
        state = self.__dict__.copy()
        del state["_lock"]
        del state["_storage"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._storage = np.empty((max(_INITIAL_CAPACITY, self._size), self.dim))
        for row, key in enumerate(self._keys):
            self._storage[row] = self._generate(key)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _generate(self, key: FeatureKey) -> np.ndarray:
        family, feature = key
        seed = stable_hash64(self.namespace, self.dim, family, feature)
        vec = np.random.default_rng(seed).standard_normal(self.dim)
        return vec / np.linalg.norm(vec)

    def _grow_to(self, capacity: int) -> None:
        if capacity <= self._storage.shape[0]:
            return
        new_capacity = max(capacity, 2 * self._storage.shape[0])
        storage = np.empty((new_capacity, self.dim))
        storage[: self._size] = self._storage[: self._size]
        self._storage = storage
