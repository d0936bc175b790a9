"""Tests for the vectorized embedding engine: batched-vs-sequential
equivalence, the direction bank, and the batch-aware cache."""

import pickle

import numpy as np
import pytest

from repro.embedding import DirectionBank, SentenceEmbedder
from repro.embedding import directions as directions_module
from repro.embedding.cache import CachedEmbedder
from repro.suites import load_suite

CORPUS = [
    "turn on the smart light in the kitchen",
    "fetch the current weather conditions for a town",
    "translate a sentence into german",
    "",
    "set an alert for seven in the morning",
    "turn on the smart light in the kitchen",  # duplicate on purpose
    "plot a chart of the quarterly results",
]


@pytest.fixture(scope="module")
def embedder():
    return SentenceEmbedder()


class TestBatchedEquivalence:
    def test_batch_bitwise_equals_stacked_encode_one(self, embedder):
        batch = embedder.encode(CORPUS)
        singles = np.stack([embedder.encode_one(text) for text in CORPUS])
        np.testing.assert_array_equal(batch, singles)

    def test_batch_bitwise_stable_across_batch_sizes(self, embedder):
        full = embedder.encode(CORPUS)
        pairs = np.vstack([embedder.encode(CORPUS[i:i + 2])
                           for i in range(0, len(CORPUS), 2)])
        np.testing.assert_array_equal(full, pairs[: len(CORPUS)])

    def test_matches_reference_loop(self, embedder):
        batch = embedder.encode(CORPUS)
        reference = np.stack([embedder.encode_one_reference(text) for text in CORPUS])
        np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=1e-13)

    def test_edgehome_corpus_matches_reference(self, embedder):
        corpus = load_suite("edgehome").catalog.descriptions()
        batch = embedder.encode(corpus)
        reference = np.stack([embedder.encode_one_reference(t) for t in corpus])
        np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=1e-13)

    def test_features_match_reference(self, embedder):
        for text in CORPUS:
            assert embedder.features(text) == embedder.features_reference(text)

    def test_cold_vs_warm_start_bitwise(self):
        text = "detect ships in satellite imagery"
        cold = SentenceEmbedder().encode_one(text)
        warm_embedder = SentenceEmbedder()
        warm_embedder.encode(CORPUS)
        np.testing.assert_allclose(cold, warm_embedder.encode_one(text),
                                   rtol=1e-12, atol=1e-13)


class TestDirectionCache:
    def test_direction_count_grows_and_clears(self):
        embedder = SentenceEmbedder()
        assert embedder.direction_count == 0
        embedder.encode(CORPUS)
        count = embedder.direction_count
        assert count > 0
        assert embedder.cache_nbytes == count * embedder.dim * 8
        embedder.clear_cache()
        assert embedder.direction_count == 0
        assert embedder.cache_nbytes == 0

    def test_encode_after_clear_is_equivalent(self):
        embedder = SentenceEmbedder()
        before = embedder.encode(CORPUS)
        embedder.clear_cache()
        np.testing.assert_allclose(before, embedder.encode(CORPUS),
                                   rtol=1e-12, atol=1e-13)

    def test_reseed_rerolls_projection(self):
        embedder = SentenceEmbedder()
        original = embedder.encode_one("weather")
        embedder.reseed("rerolled")
        rerolled = embedder.encode_one("weather")
        assert not np.allclose(original, rerolled)
        # and matches a fresh embedder built in the new namespace
        np.testing.assert_allclose(
            rerolled, SentenceEmbedder(seed_namespace="rerolled").encode_one("weather"))

    def test_bank_intern_is_idempotent(self):
        bank = DirectionBank(dim=16, namespace="t")
        rows = bank.intern([("token", "a"), ("token", "b"), ("token", "a")])
        assert rows == [0, 1, 0]
        assert len(bank) == 2
        again = bank.intern([("token", "b")])
        assert again == [1]
        np.testing.assert_array_equal(bank.matrix[0], bank.direction(("token", "a")))

    def test_bank_directions_are_unit_norm(self):
        bank = DirectionBank(dim=32, namespace="t")
        bank.intern([("token", str(i)) for i in range(300)])
        np.testing.assert_allclose(np.linalg.norm(bank.matrix, axis=1), 1.0)

    def test_interning_past_the_first_batch_copies_no_earlier_row(self):
        """A served process interns a catalog-sized first batch, then a
        couple of new bigram rows per request: inside the reservation
        that must never reallocate (the copy ran under the bank lock, in
        the request path)."""
        bank = DirectionBank(dim=8, namespace="t")
        bank.intern([("token", str(i)) for i in range(6000)])
        before = bank.matrix
        snapshot = before.copy()
        address = before.__array_interface__["data"][0]
        for start in range(6000, 9000, 2):    # two rows a request
            bank.intern([("bigram", f"{start} a"), ("bigram", f"{start} b")])
        assert len(bank) == 9000
        assert bank.matrix.__array_interface__["data"][0] == address
        assert np.shares_memory(before, bank.matrix)
        np.testing.assert_array_equal(before, snapshot)
        np.testing.assert_array_equal(bank.matrix[:6000], snapshot)

    def test_growth_past_the_reservation_keeps_every_row(self, monkeypatch):
        monkeypatch.setattr(directions_module, "_INITIAL_CAPACITY", 4)
        bank = DirectionBank(dim=16, namespace="t")
        keys = [("token", str(i)) for i in range(37)]
        for key in keys:                      # one row at a time: 4 doublings
            bank.intern([key])
        fresh = DirectionBank(dim=16, namespace="t")
        fresh.intern(keys)
        np.testing.assert_array_equal(bank.matrix, fresh.matrix)

    def test_pickle_ships_keys_not_the_reservation(self):
        bank = DirectionBank(dim=16, namespace="t")
        bank.intern([("token", str(i)) for i in range(50)])
        assert "_storage" not in bank.__getstate__()
        payload = pickle.dumps(bank)
        assert len(payload) < 50 * 16 * 8     # smaller than the 50 rows alone
        clone = pickle.loads(payload)
        np.testing.assert_array_equal(clone.matrix, bank.matrix)
        assert clone.intern([("token", "new")]) == [50]


class TestCachedEmbedderBatch:
    def test_batch_partitions_hits_and_misses(self):
        cache = CachedEmbedder()
        calls = []
        inner_encode = cache.embedder.encode
        cache.embedder.encode = lambda texts: (calls.append(list(texts)),
                                               inner_encode(texts))[1]
        cache.encode(CORPUS[:3])
        assert calls == [CORPUS[:3]]
        cache.encode(CORPUS[:5])  # 3 hits, 2 misses -> one batched call
        assert len(calls) == 2
        assert calls[1] == CORPUS[3:5]
        info = cache.cache_info()
        assert info["hits"] == 3
        assert info["size"] == 5

    def test_duplicates_embedded_once(self):
        cache = CachedEmbedder()
        result = cache.encode(["same text", "same text", "other"])
        assert len(cache) == 2
        np.testing.assert_array_equal(result[0], result[1])

    def test_matches_uncached_embedder(self):
        cache = CachedEmbedder()
        np.testing.assert_array_equal(cache.encode(CORPUS),
                                      SentenceEmbedder().encode(CORPUS))
        # warm pass returns identical vectors
        np.testing.assert_array_equal(cache.encode(CORPUS),
                                      SentenceEmbedder().encode(CORPUS))

    def test_lru_bound_evicts_oldest(self):
        cache = CachedEmbedder(max_entries=3)
        cache.encode(["a", "b", "c"])
        cache.encode_one("a")          # refresh "a"
        cache.encode_one("d")          # evicts "b"
        assert len(cache) == 3
        info = cache.cache_info()
        assert info["evictions"] == 1
        assert info["max_entries"] == 3
        calls = []
        inner_encode = cache.embedder.encode
        cache.embedder.encode = lambda texts: (calls.append(list(texts)),
                                               inner_encode(texts))[1]
        cache.encode(["a", "d"])       # both still resident
        assert calls == []
        cache.encode(["b"])            # was evicted -> recompute
        assert calls == [["b"]]

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            CachedEmbedder(max_entries=0)

    def test_clear(self):
        cache = CachedEmbedder()
        cache.encode(["a", "b"])
        cache.clear()
        assert len(cache) == 0

    def test_reseed_invalidates_cached_vectors(self):
        cache = CachedEmbedder()
        before = cache.encode_one("weather in paris").copy()
        cache.embedder.reseed("rerolled")
        after = cache.encode_one("weather in paris")
        assert not np.allclose(before, after)
        np.testing.assert_allclose(
            after, SentenceEmbedder(seed_namespace="rerolled").encode_one("weather in paris"))

    def test_rejects_bare_string(self):
        with pytest.raises(TypeError):
            CachedEmbedder().encode("not a list")

    def test_empty_batch(self):
        assert CachedEmbedder().encode([]).shape == (0, 768)
