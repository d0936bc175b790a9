"""Tests for the vectorized embedding engine: batched-vs-sequential
equivalence, the direction bank, and the batch-aware cache."""

import numpy as np
import pytest

from embedding_oracle import (
    direction, encode_one_reference, features_reference, memo_features)
from repro.embedding import DirectionBank, SentenceEmbedder
from repro.embedding.cache import CachedEmbedder
from repro.suites import load_suite
from repro.utils.rng import _BULK_MIN

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
        reference = np.stack([encode_one_reference(embedder, text) for text in CORPUS])
        np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=1e-13)

    def test_edgehome_corpus_matches_reference(self, embedder):
        corpus = load_suite("edgehome").catalog.descriptions()
        batch = embedder.encode(corpus)
        reference = np.stack([encode_one_reference(embedder, t) for t in corpus])
        np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=1e-13)

    def test_features_match_reference(self, embedder):
        for text in CORPUS:
            assert memo_features(embedder, text) == features_reference(embedder, text)

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
        assert embedder.direction_count == 0   # request-time: no corpus rows
        embedder.add_corpus(CORPUS)
        assert embedder.direction_count > 0

    def test_bank_intern_is_idempotent(self):
        bank = DirectionBank(dim=16, namespace="t")
        rows = bank.intern([("token", "a"), ("token", "b"), ("token", "a")])
        assert rows == [0, 1, 0]
        assert len(bank) == 2
        again = bank.intern([("token", "b")])
        assert again == [1]
        np.testing.assert_array_equal(bank.matrix[0],
                                      direction("t", 16, ("token", "a")))

    def test_bank_directions_are_unit_norm(self):
        bank = DirectionBank(dim=32, namespace="t")
        bank.intern([("token", str(i)) for i in range(300)])
        np.testing.assert_allclose(np.linalg.norm(bank.matrix, axis=1), 1.0)

    def test_growth_keeps_every_row(self):
        bank = DirectionBank(dim=16, namespace="t")
        keys = [("token", str(i)) for i in range(37)]
        for key in keys:                      # one row at a time: 6 doublings
            bank.intern([key])
        fresh = DirectionBank(dim=16, namespace="t")
        fresh.intern(keys)
        np.testing.assert_array_equal(bank.matrix, fresh.matrix)

    def test_bulk_and_per_row_draws_equal_the_oracle_bitwise(self):
        """One intern of 2 000 keys seeds in bulk; one key per call takes
        the per-row path.  Both write the oracle's rows, bit for bit."""
        keys = [("token", f"w{i}") for i in range(1994)] + [
            ("trigram", "fé#"), ("bigram", "東京 天気"), ("concept", "naïve"),
            ("token", "😀"), ("token", ""), ("bigram", "a\x00b")]
        assert len(keys) >= 2000 > _BULK_MIN
        bulk = DirectionBank(dim=768, namespace="mpnet-substitute")
        bulk.intern(keys)
        single = DirectionBank(dim=768, namespace="mpnet-substitute")
        for key in keys:
            single.intern([key])
        oracle = np.stack([direction("mpnet-substitute", 768, key)
                           for key in keys])
        np.testing.assert_array_equal(bulk.matrix, oracle)
        np.testing.assert_array_equal(single.matrix, oracle)


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

    def test_encode_one_counts_a_miss_once(self):
        single, batch = CachedEmbedder(), CachedEmbedder()
        single.encode_one("turn on the lights")
        batch.encode(["turn on the lights"])
        assert single.cache_info() == batch.cache_info()
        assert single.cache_info()["misses"] == 1
        single.encode_one("turn on the lights")
        assert single.cache_info()["hits"] == 1
        assert single.cache_info()["misses"] == 1

    def test_duplicates_embedded_once(self):
        cache = CachedEmbedder()
        result = cache.encode(["same text", "same text", "other"])
        assert cache.cache_info()["size"] == 2
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
        info = cache.cache_info()
        assert info["size"] == 3
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

    def test_rejects_bare_string(self):
        with pytest.raises(TypeError):
            CachedEmbedder().encode("not a list")

    def test_empty_batch(self):
        assert CachedEmbedder().encode([]).shape == (0, 768)
