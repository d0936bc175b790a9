"""The historical per-feature embedding loop: the embedder tests' oracle.

Apart from :func:`memo_features`, a probe of the embedder's own memos,
everything here re-derives from first principles what the vectorized
:class:`~repro.embedding.SentenceEmbedder` memoizes and batches: the
feature multiset of a text, and each feature's direction straight from
``default_rng(stable_hash64(namespace, dim, family, feature))`` — never
from the embedder's :class:`~repro.embedding.DirectionBank`, so the
bank's bulk and per-row draws are checked against an independent
source.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.embedding.sentence import FAMILY_WEIGHTS
from repro.embedding.tokenizer import STOPWORDS, split_words, stem
from repro.utils.hashing import stable_hash64


def tokenize(text: str) -> list[str]:
    """Normalised tokens: the raw words, minus stopwords, stemmed."""
    return [stem(word) for word in split_words(text)
            if word not in STOPWORDS]


def char_trigrams(text: str) -> list[str]:
    """Character trigrams of each raw word padded as ``#word#``."""
    trigrams: list[str] = []
    for word in split_words(text):
        padded = f"#{word}#"
        trigrams.extend(padded[i:i + 3] for i in range(len(padded) - 2))
    return trigrams


def direction(namespace: str, dim: int, key: tuple[str, str]) -> np.ndarray:
    """The unit direction of feature ``key``, drawn on its own."""
    family, feature = key
    vec = np.random.default_rng(
        stable_hash64(namespace, dim, family, feature)).standard_normal(dim)
    return vec / np.linalg.norm(vec)


def features_reference(embedder, text: str) -> Counter:
    """The feature multiset of ``text``, without the embedder's memos."""
    tokens = tokenize(text)
    counts: Counter = Counter()
    for token in tokens:
        counts[("token", token)] += 1
        for concept in embedder.lexicon.lookup(token):
            counts[("concept", concept)] += 1
    for first, second in zip(tokens, tokens[1:]):
        counts[("bigram", f"{first} {second}")] += 1
        for concept in embedder.lexicon.lookup_phrase(f"{first} {second}"):
            counts[("concept", concept)] += 1
    for trigram in char_trigrams(text):
        counts[("trigram", trigram)] += 1
    return counts


def memo_features(embedder, text: str) -> Counter:
    """The feature multiset the embedder's word and bigram plans resolve
    ``text`` to, corpus rows and request-time keys together (encoding it
    first makes the plans)."""
    embedder.encode([text])
    keys = embedder._bank.keys
    rows, request = embedder._document_features(split_words(text))
    return Counter([keys[row] for row in rows] + request)


def encode_one_reference(embedder, text: str) -> np.ndarray:
    """The per-feature accumulation loop ``encode`` vectorizes."""
    vec = np.zeros(embedder.dim)
    for key, count in features_reference(embedder, text).items():
        weight = FAMILY_WEIGHTS[key[0]] * (1.0 + np.log(count))
        vec += weight * direction(embedder.seed_namespace, embedder.dim, key)
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec
