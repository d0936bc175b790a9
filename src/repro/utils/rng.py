"""Seeded random-number streams.

Every stochastic component of the simulator (LLM sampling noise, hardware
jitter, benchmark generation) draws from a :class:`numpy.random.Generator`
derived from a *named stream*.  Streams with the same name and root seed
produce identical sequences on every platform, which keeps tests and
benchmark tables bit-reproducible.

Seeding costs ~10 µs a generator; :func:`_seed_words` replays numpy's
``SeedSequence`` for many at once (:func:`prefetched`, the direction bank).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np
from numpy.random import default_rng
from numpy.random.bit_generator import ISeedSequence

from repro.utils.hashing import stable_hash64

#: Root seed used by the whole reproduction unless explicitly overridden.
DEFAULT_ROOT_SEED = 20250423

#: Distinct seeds from which one call seeds in bulk: ``_seed_words`` costs
#: ~60-90 µs, then a stream ~7 µs against ~15 µs seeded alone, so bulk
#: breaks even at ~8-12 (2-vCPU Xeon VM, numpy 2.4; 16-24 on another host).
_BULK_MIN = 16


#: per thread, inside ``prefetched``: (name, its parts' types) -> the
#: seed words not handed out yet (1 == True as keys, not as seeds)
_prefetch = threading.local()


def derive_rng(*stream: str | int | float, root_seed: int = DEFAULT_ROOT_SEED) -> np.random.Generator:
    """Return a generator for the stream identified by ``stream`` parts.

    The same ``(root_seed, *stream)`` tuple always yields an identical
    generator state.  Different streams are statistically independent
    (seeded from disjoint BLAKE2 digests).  Inside :func:`prefetched`, a
    stream seeded there is handed out once, bit for bit the same.
    """
    name = (root_seed, *stream)
    table = getattr(_prefetch, "table", None)
    words = table.pop((name, tuple(map(type, name))), None) if table else None
    return default_rng(stable_hash64(*name)) if words is None else _from_words(words)


class _Words(ISeedSequence):
    """A seed sequence already replayed: PCG64 seeds from its words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _from_words(words: np.ndarray) -> np.random.Generator:
    """``default_rng(seed)``, from a row of :func:`_seed_words`."""
    return np.random.Generator(np.random.PCG64(_Words(words)))


@contextmanager
def prefetched(names):
    """Seed the streams ``names`` (``(root_seed, *stream)``) in one pass for the
    block: :func:`derive_rng` hands each out once, on this thread only.  Below
    :data:`_BULK_MIN` distinct names nothing changes (one by one is as cheap)."""
    keys = list(dict.fromkeys((name, tuple(map(type, name))) for name in names))
    if len(keys) < _BULK_MIN:
        yield
        return
    outer = getattr(_prefetch, "table", None)
    # words, not generators: thousands of live generators would wake the gc
    _prefetch.table = dict(zip(keys, _seed_words(
        [stable_hash64(*name) for name, _ in keys])))
    try:
        yield
    finally:
        _prefetch.table = outer


# numpy.random.SeedSequence's hash constants (bit_generator.pyx), which
# _seed_words replays in bulk
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_steps(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, 1)`` xor and multiply columns of ``n`` successive hash
    steps: the running constant never depends on the data."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


#: pool fill (4 words) + the all-pairs mix (4 x 3), then generate_state's
#: 8 output words (four uint64s: PCG64's initstate and initseq)
_POOL_XOR, _POOL_MULT = _hash_steps(0x43B0D7E5, 0x931E8875, 4 + 12)
_STATE_XOR, _STATE_MULT = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)


def _hashed(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mult
    return words ^ (words >> 16)


def _seed_words(seeds: list[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every 64-bit
    ``seed`` at once, as a C-contiguous ``(n, 4)`` array: the sequence replayed
    over a ``(4, n)`` ``uint32`` pool, whose arithmetic wraps as numpy's."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    # a seed is its little-endian uint32 words; a missing high word mixes
    # exactly as a zero word would, so every seed takes two
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & np.uint64(0xFFFFFFFF)
    pool[1] = seeds >> np.uint64(32)
    pool = _hashed(pool, _POOL_XOR[:4], _POOL_MULT[:4])
    for src in range(4):
        # pool[src] mixes into each other word, in ascending order
        dsts = [dst for dst in range(4) if dst != src]
        steps = slice(4 + 3 * src, 7 + 3 * src)
        mixed = (_MIX_MULT_L * pool[dsts] - _MIX_MULT_R
                 * _hashed(pool[src], _POOL_XOR[steps], _POOL_MULT[steps]))
        pool[dsts] = mixed ^ (mixed >> 16)
    words = _hashed(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR,
                    _STATE_MULT).astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | (words[1::2] << np.uint64(32))).T)
