"""The embedder's memory is bounded and its vectors are canonical.

Corpus directions (tool descriptions, the augmentation corpus) are
interned for good through ``encode_corpus``; everything a request brings
lives in LRUs under :data:`~repro.embedding.directions.MAX_ENTRIES`.  A
served process therefore stops growing after warm-up, and a text embeds
to the same bits at any batch size, after any eviction and whatever was
encoded before.
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedding_oracle import direction, encode_one_reference
from repro import ServingSpec, SuiteSpec, TenantSpec, open_session
from repro.embedding import directions
from repro.embedding.cache import CachedEmbedder
from repro.embedding.directions import MAX_ENTRIES, DirectionBank
from repro.embedding.sentence import SentenceEmbedder
from repro.utils.rng import _BULK_MIN

CORPUS = [
    "turn on the smart light in the kitchen",
    "fetch the current weather forecast for a town",
    "lock the front door and arm the sensor",
]

#: corpus words, words no corpus text has, and a stopword: documents
#: drawn from it share novel features in different orders
VOCAB = ["light", "weather", "sensor", "kitchen", "zqa", "zqb", "kvc",
         "kvd", "lampo", "the"]


def request_sizes(embedder: SentenceEmbedder) -> list[int]:
    """Lengths of every request-time structure of ``embedder``."""
    return [len(embedder._bank._request), len(embedder._request_words),
            len(embedder._request_bigrams)]


def corpus_sizes(embedder: SentenceEmbedder) -> list[int]:
    """Corpus rows and corpus word/bigram plans of ``embedder``."""
    return [embedder.direction_count, len(embedder._word_memo),
            len(embedder._bigram_memo)]


def test_served_novel_vocabulary_leaves_the_corpus_and_the_bound_alone():
    """After warm, 3 x MAX_ENTRIES requests that each bring new words keep
    the corpus constant and every request-time structure within the bound;
    the suite's own queries serve the same episodes before and after."""
    suite = SuiteSpec("edgehome", n_queries=32, seed=29)
    embedder = CachedEmbedder()
    session = open_session(ServingSpec(tenants=(TenantSpec("home", suite),)),
                           embedder=embedder)
    inner = embedder.embedder

    async def scenario():
        async with session.serve() as gateway:
            queries = gateway.sessions.get("home").suite.queries
            corpus = corpus_sizes(inner)
            first = await asyncio.gather(*(
                gateway.submit("home", query) for query in queries))
            novel = [dataclasses.replace(
                queries[i % len(queries)],
                text=f"{queries[i % len(queries)].text} near zq{i}x kv{i}y")
                for i in range(3 * MAX_ENTRIES)]
            for start in range(0, len(novel), 256):
                await asyncio.gather(*(
                    gateway.submit("home", query)
                    for query in novel[start:start + 256]))
                assert corpus_sizes(inner) == corpus
                assert max(request_sizes(inner)) <= MAX_ENTRIES
                assert embedder.cache_info()["size"] <= MAX_ENTRIES
            again = await asyncio.gather(*(
                gateway.submit("home", query) for query in queries))
            return first, again

    first, again = asyncio.run(scenario())
    assert [r.episode.to_dict() for r in first] == [
        r.episode.to_dict() for r in again]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(texts=st.lists(st.lists(st.sampled_from(VOCAB), max_size=8).map(" ".join),
                      min_size=1, max_size=6))
def test_vectors_are_canonical_under_a_small_bound(texts):
    """With the bound at 4, a batch equals stacked ``encode_one`` calls,
    a text re-encodes to the same bytes after eviction, and an embedder
    with another history (same corpus) gives the same bytes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(directions, "MAX_ENTRIES", 4)
        embedder = SentenceEmbedder()
        embedder.add_corpus(CORPUS)
        batch = embedder.encode(texts).tobytes()
        singles = np.stack([embedder.encode_one(text) for text in texts])
        assert singles.tobytes() == batch
        embedder.encode([f"zqfill{i} kvfill{i}" for i in range(8)])
        assert max(request_sizes(embedder)) <= 4
        assert embedder.encode(texts).tobytes() == batch
        other = SentenceEmbedder()
        other.encode(list(reversed(texts)) + ["kvd zqa lampo", "zqb"])
        other.add_corpus(CORPUS)
        assert other.encode(texts).tobytes() == batch


def test_one_call_gets_more_request_directions_than_the_bound(monkeypatch):
    text = " ".join(f"zq{i}w" for i in range(40))
    unbounded = SentenceEmbedder().encode_one(text)
    monkeypatch.setattr(directions, "MAX_ENTRIES", 2)
    embedder = SentenceEmbedder()
    assert embedder.encode_one(text).tobytes() == unbounded.tobytes()
    assert max(request_sizes(embedder)) <= 2
    np.testing.assert_allclose(unbounded, encode_one_reference(embedder, text),
                               rtol=1e-12, atol=1e-13)


def test_request_directions_equal_the_oracle_bitwise():
    """A request of at least _BULK_MIN keys seeds in bulk, a smaller one
    per row; both draw the oracle's directions, and hits read them back
    from their slots."""
    keys = [("token", f"w{i}") for i in range(2 * _BULK_MIN)]
    def request(bank, keys):
        matrix, rows = bank.request(keys)
        return matrix[rows]

    bank = DirectionBank(dim=768, namespace="mpnet-substitute")
    bulk = request(bank, keys)
    single = [request(DirectionBank(dim=768, namespace="mpnet-substitute"),
                      [key])[0] for key in keys[:3]]
    oracle = [direction("mpnet-substitute", 768, key) for key in keys]
    np.testing.assert_array_equal(bulk, np.stack(oracle))
    np.testing.assert_array_equal(np.stack(single), np.stack(oracle[:3]))
    again = request(bank, keys[::-1])          # every one a hit now
    np.testing.assert_array_equal(again, np.stack(oracle[::-1]))


def test_corpus_growth_re_encodes_cached_request_texts():
    """A cached request text whose feature becomes a corpus row is dropped
    and re-encodes in the new canonical order; a corpus call that adds
    no row keeps the cache, and so does growth before any request."""
    cache = CachedEmbedder()
    cache.encode_corpus(CORPUS[:1])
    cache.encode_corpus(CORPUS[1:])
    assert cache.cache_info()["size"] == len(CORPUS)
    text = "forecast the zqx weather"
    before = cache.encode_one(text)
    cache.encode_corpus(["the zqx gauge"])
    assert cache.cache_info()["size"] == 1
    after = cache.encode_one(text)
    fresh = CachedEmbedder()
    fresh.encode_corpus(CORPUS[:1])
    fresh.encode_corpus(CORPUS[1:])
    fresh.encode_corpus(["the zqx gauge"])
    assert after.tobytes() == fresh.encode_one(text).tobytes()
    np.testing.assert_allclose(before, after, rtol=0.0, atol=1e-12)
    size = cache.cache_info()["size"]
    cache.encode_corpus(["the zqx gauge"])
    assert cache.cache_info()["size"] == size
