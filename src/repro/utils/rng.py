"""Seeded random-number streams.

Every stochastic component of the simulator (LLM sampling noise, hardware
jitter, benchmark generation) draws from a :class:`numpy.random.Generator`
derived from a *named stream*.  Streams with the same name and root seed
produce identical sequences on every platform, which keeps tests and
benchmark tables bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.utils.hashing import stable_hash64

#: Root seed used by the whole reproduction unless explicitly overridden.
DEFAULT_ROOT_SEED = 20250423


def derive_rng(*stream: str | int | float, root_seed: int = DEFAULT_ROOT_SEED) -> np.random.Generator:
    """Return a generator for the stream identified by ``stream`` parts.

    The same ``(root_seed, *stream)`` tuple always yields an identical
    generator state.  Different streams are statistically independent
    (seeded from disjoint BLAKE2 digests).
    """
    seed = stable_hash64(root_seed, *stream)
    return np.random.default_rng(seed)


# numpy.random.SeedSequence's hash constants (bit_generator.pyx) and the
# PCG64 multiplier: _pcg64_states replays both seedings in bulk.
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _pcg64_states(seeds: list[int]) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` that ``np.random.default_rng(seed)``
    starts from, for every 64-bit ``seed`` at once.

    ``SeedSequence(seed)`` (pool size 4) is replayed over a ``(4, n)``
    ``uint32`` pool, whose arithmetic wraps as numpy's does; PCG64's
    two-step seeding follows in Python ints.
    """
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
    w0, w1, w2, w3 = (words[0::2] | (words[1::2] << np.uint64(32))).tolist()
    mask = (1 << 128) - 1
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(w0, w1, w2, w3):
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & mask
        state = (((s_hi << 64) | s_lo) + inc) * _PCG64_MULT + inc
        states.append((state & mask, inc))
    return states


class RngFactory:
    """Factory bound to a root seed, handing out named sub-streams.

    Example::

        rngs = RngFactory(root_seed=7)
        a = rngs.stream("llm", "llama3.1-8b", "query-12")
        b = rngs.stream("llm", "llama3.1-8b", "query-12")
        # a and b generate the same sequence
    """

    def __init__(self, root_seed: int = DEFAULT_ROOT_SEED):
        self.root_seed = int(root_seed)

    def stream(self, *parts: str | int | float) -> np.random.Generator:
        """Return the generator for a named sub-stream."""
        return derive_rng(*parts, root_seed=self.root_seed)

    def spawn(self, *parts: str | int | float) -> "RngFactory":
        """Return a child factory whose streams are namespaced by ``parts``."""
        return RngFactory(stable_hash64(self.root_seed, "spawn", *parts))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(root_seed={self.root_seed})"
