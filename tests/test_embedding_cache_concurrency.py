"""CachedEmbedder under concurrency: one canonical vector per text.

The serving gateway shares one cache between the event loop, the batch
worker and any parallel evaluation grid.  These tests hammer one cache
from many threads with overlapping hit/miss workloads plus texts only
one thread sends, and assert that every vector ever served is the one
canonical embedding of its text, and that the wrapped embedder's
direction bank, which the cache's one lock guards, drew each feature's
row exactly once.  A cache bounded below the texts it is sent evicts
under the same contention and re-encodes each evicted text to the bytes
it first served.

Reference vectors come from an independent embedder, which interns its
vocabulary in a different order — bitwise-identical results are only
guaranteed *within* one embedder, so references compare with a tight
``allclose`` while intra-cache consistency is asserted bitwise.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.embedding.cache import CachedEmbedder
from repro.embedding.sentence import SentenceEmbedder

TEXTS = [
    f"tool number {i} to {verb} the {noun} in the smart home"
    for i, (verb, noun) in enumerate(
        (verb, noun)
        for verb in ("toggle", "dim", "schedule", "measure", "lock", "stream")
        for noun in ("lights", "thermostat", "camera", "blinds", "speaker")
    )
]


def canonical() -> dict[str, np.ndarray]:
    """Reference vectors computed on an independent embedder."""
    embedder = SentenceEmbedder()
    vectors = embedder.encode(TEXTS)
    return {text: vectors[i] for i, text in enumerate(TEXTS)}


def close(vec: np.ndarray, reference: np.ndarray) -> bool:
    """Same embedding up to float addition order (vocab intern order)."""
    return np.allclose(vec, reference, rtol=0.0, atol=1e-9)


def test_many_threads_mixed_hits_and_misses_serve_canonical_vectors():
    cache = CachedEmbedder()
    reference = canonical()
    served: dict[str, list[np.ndarray]] = {text: [] for text in TEXTS}
    #: texts no other thread sends -> the vector served for them
    private: dict[str, np.ndarray] = {}
    served_lock = threading.Lock()

    def worker(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for step in range(30):
            picks = [TEXTS[int(i)] for i in rng.integers(0, len(TEXTS), size=5)]
            own = f"worker{seed} sends zq{seed}w{step} after zq{seed}v{step}"
            if rng.random() < 0.3:
                got = {picks[0]: cache.encode_one(picks[0])}
                mine = cache.encode_one(own)
            else:
                vectors = cache.encode(picks + [own])
                got = dict(zip(picks, vectors))
                mine = vectors[-1]
            with served_lock:
                for text, vec in got.items():
                    served[text].append(vec)
                private[own] = mine

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(8)))
    finally:
        sys.setswitchinterval(interval)

    for text, vectors in served.items():
        if not vectors:
            continue
        # the whole fleet observed ONE canonical vector per text, bitwise
        for vec in vectors[1:]:
            assert np.array_equal(vec, vectors[0]), text
        assert close(vectors[0], reference[text]), text
    info = cache.cache_info()
    assert info["hits"] > 0 and info["misses"] > 0

    # every thread interned new words at once, yet each feature got one
    # bank row: as many rows as one thread encoding the same texts draws
    keys = cache.embedder._bank.keys
    assert len(set(keys)) == len(keys)
    sent = [text for text, vectors in served.items() if vectors] + list(private)
    single = SentenceEmbedder()
    single_vectors = single.encode(sent)
    assert cache.embedder.direction_count == single.direction_count
    for text, vec in zip(sent[-len(private):], single_vectors[-len(private):]):
        assert close(private[text], vec), text


def test_evicted_texts_re_encode_bitwise_under_contention():
    bound = 8
    cache = CachedEmbedder(max_entries=bound)
    first = {text: cache.encode_one(text).tobytes() for text in TEXTS}
    directions = cache.embedder.direction_count
    served: list[tuple[str, bytes]] = []
    served_lock = threading.Lock()

    def worker(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(30):
            picks = [TEXTS[int(i)] for i in rng.integers(0, len(TEXTS), size=5)]
            if rng.random() < 0.3:
                got = [(picks[0], cache.encode_one(picks[0]))]
            else:
                got = list(zip(picks, cache.encode(picks)))
            with served_lock:
                served.extend((text, vec.tobytes()) for text, vec in got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(8)))
    finally:
        sys.setswitchinterval(interval)

    info = cache.cache_info()
    assert info["size"] <= bound
    assert info["evictions"] > len(TEXTS) and info["misses"] > len(TEXTS)
    for text, data in served:
        assert data == first[text], text
    # a re-encode reads the interned rows: the bank drew nothing new
    assert cache.embedder.direction_count == directions
