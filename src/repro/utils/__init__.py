"""Shared low-level helpers: stable hashing, seeded RNG streams, text, vectors."""

from repro.utils.hashing import stable_hash64, stable_hash_bytes
from repro.utils.rng import derive_rng
from repro.utils.text import normalize_whitespace, truncate_words
from repro.utils.vectorops import blend_and_normalize, normalize_rows

__all__ = [
    "blend_and_normalize",
    "derive_rng",
    "normalize_rows",
    "normalize_whitespace",
    "stable_hash64",
    "stable_hash_bytes",
    "truncate_words",
]
