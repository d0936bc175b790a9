"""Sentence embedder: weighted bag-of-features under a random projection.

The embedding model is unchanged from the original implementation —
every ``(family, feature)`` id maps to a fixed seeded unit direction,
features are summed with family/log-count weights and the result is
L2-normalized — but the execution is vectorized: feature directions live
in a :class:`~repro.embedding.directions.DirectionBank`, per-word feature
sets are memoized as plans over it, and a document embedding is one
``weights @ operand`` matmul instead of a per-feature Python
accumulation loop.

``encode()`` is the primary entry point; ``encode_one`` is a batch of
one, so batched and one-at-a-time encoding are bitwise identical.
:meth:`SentenceEmbedder.add_corpus` is the one way features become
permanent corpus rows; everything else ``encode`` meets lives under the
bank's request-time bound.  The historical per-feature loop is the
equivalence tests' oracle (``tests/embedding_oracle.py``).
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from itertools import accumulate, chain

import numpy as np

from repro.embedding.directions import DirectionBank, FeatureKey, trim
from repro.embedding.lexicon import default_lexicon
from repro.embedding.tokenizer import STOPWORDS, split_words, stem
from repro.utils.vectorops import normalize_rows

#: Relative weight of each feature family in the summed embedding.
FAMILY_WEIGHTS = {
    "concept": 3.0,
    "token": 1.0,
    "bigram": 0.8,
    "trigram": 0.25,
}


def count_rows(flats: list[list[int]], stride: int
               ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Each document's distinct row ids (all below ``stride``), ascending,
    and their counts; document ``i``'s are ``rows[bounds[i]:bounds[i + 1]]``.
    One in-place sort of the call's ``(document, row)`` keys: each run of
    equal keys is one row, counted by the distance to the next run."""
    lengths = [len(flat) for flat in flats]
    n_occurrences = sum(lengths)
    occurrences = np.fromiter(chain.from_iterable(flats), dtype=np.intp,
                              count=n_occurrences)
    if len(flats) > 1:
        occurrences += np.repeat(np.arange(0, len(flats) * stride, stride), lengths)
    occurrences.sort()
    # run edges: every run's start, then the end of the last run
    edges = np.empty(n_occurrences + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(occurrences[1:], occurrences[:-1], out=edges[1:-1])
    edges = edges.nonzero()[0]
    rows = occurrences[edges[:-1]]
    counts = edges[1:] - edges[:-1]
    if len(flats) == 1:
        return rows, counts, [0, len(rows)]
    owners, rows = np.divmod(rows, stride)
    return rows, counts, np.searchsorted(owners, np.arange(len(flats) + 1)).tolist()


class SentenceEmbedder:
    """Deterministic 768-d sentence embedder (MPNet substitute).

    Parameters
    ----------
    dim:
        Output dimensionality.  The paper uses 768 (Section III-A; the
        text also mentions "728" once — we treat that as a typo).
    seed_namespace:
        Fixes the projection for the embedder's life; distinct namespaces
        produce statistically independent projections (the projection
        ablation builds one embedder per namespace).

    Notes
    -----
    A document's features are summed in one canonical order: its corpus
    rows in row-id order, then its request-time features in order of
    first appearance in the document.  The order depends only on the
    document and the corpus, so ``encode(texts)`` is bitwise equal to
    stacking ``encode_one`` calls at any batch size, after any eviction
    and whatever was encoded before.  Across embedders whose corpora
    were interned in different orders, values agree to float addition
    order (~1e-15).

    Memory: corpus rows and corpus word/bigram plans grow only with
    :meth:`add_corpus`.  Request-time directions and request-time word
    and bigram plans are LRUs under
    :data:`~repro.embedding.directions.MAX_ENTRIES` each.

    Single-writer: encoding updates the plans and the LRUs without a lock
    of its own.  Share one across threads only behind
    :class:`~repro.embedding.cache.CachedEmbedder`, whose lock covers it.
    """

    def __init__(
        self,
        dim: int = 768,
        seed_namespace: str = "mpnet-substitute",
    ):
        if dim < 8:
            raise ValueError(f"embedding dim must be >= 8, got {dim}")
        self.dim = int(dim)
        self.lexicon = default_lexicon()
        self.seed_namespace = seed_namespace
        self._bank = DirectionBank(self.dim, seed_namespace)
        #: per-row family weight, kept parallel to the corpus rows
        self._row_weights = np.empty(0)
        # word plans: raw word -> (stem | None, token+concept rows, trigram
        # rows); bigram plans: stemmed phrase -> bigram+concept rows.
        # Corpus plans (every feature a corpus row) are permanent:
        self._word_memo: dict[str, tuple] = {}
        self._bigram_memo: dict[str, tuple] = {}
        # request-time plans also carry the keys that are not corpus rows
        # (a word's token+concept keys, then its trigram keys; a bigram's
        # keys); they are LRUs, dropped whenever the corpus grows
        self._request_words: OrderedDict[str, tuple] = OrderedDict()
        self._request_bigrams: OrderedDict[str, tuple] = OrderedDict()
        #: request-time plans were made since the corpus last grew
        self._request_planned = False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def direction_count(self) -> int:
        """Number of corpus directions interned."""
        return len(self._bank)

    # ------------------------------------------------------------------
    # corpus
    # ------------------------------------------------------------------
    def add_corpus(self, texts: list[str] | tuple[str, ...]) -> bool:
        """Intern every feature of ``texts`` as a permanent corpus row.

        Returns whether a vector encoded before may have moved: the
        corpus grew after request-time features were planned, so a
        feature an earlier text summed as request-time may be a corpus
        row now, which takes another place in the canonical order.
        """
        n_rows = len(self._bank)
        self._plan([split_words(text) for text in texts], corpus=True)
        if len(self._bank) == n_rows:
            return False
        self._row_weights = np.concatenate([self._row_weights, [
            FAMILY_WEIGHTS[family] for family, _ in self._bank.keys[n_rows:]]])
        # request-time plans may name a key that is now a corpus row
        self._request_words.clear()
        self._request_bigrams.clear()
        moved, self._request_planned = self._request_planned, False
        return moved

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode(self, texts: list[str] | tuple[str, ...]) -> np.ndarray:
        """Embed a batch of strings into an ``(n, dim)`` float array."""
        if isinstance(texts, str):
            raise TypeError("encode() expects a sequence of strings; use encode_one()")
        texts = list(texts)
        if not texts:
            return np.zeros((0, self.dim))
        word_lists = [split_words(text) for text in texts]
        features: list = [None] * len(texts)
        cold: list[int] = []
        for i, words in enumerate(word_lists):
            try:
                features[i] = self._document_features(words)
            except KeyError:
                cold.append(i)
        if cold:
            # one planning pass for the batch's new vocabulary
            self._plan([word_lists[i] for i in cold], corpus=False)
            for i in cold:
                features[i] = self._document_features(word_lists[i])
        out = self._embed(features)
        trim(self._request_words)
        trim(self._request_bigrams)
        return out

    def encode_one(self, text: str) -> np.ndarray:
        """Embed a single string into a unit-norm ``dim``-vector."""
        return self.encode([text])[0]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _document_features(self, words: list[str]
                           ) -> tuple[list[int], list[FeatureKey]]:
        """Corpus row ids and request-time keys (both with multiplicity)
        of one document: each word's token/concept features, then the
        bigrams', then every word's trigrams.

        Raises ``KeyError`` when a word or bigram has no plan yet;
        callers fall back to :meth:`_plan`.
        """
        flat: list[int] = []
        keys: list[FeatureKey] = []
        trigram_rows: list[int] = []
        trigram_keys: list[FeatureKey] = []
        stems: list[str] = []
        word_memo = self._word_memo
        request_words = self._request_words
        for word in words:
            plan = word_memo.get(word)
            if plan is None:
                stemmed, rows, tri, request, tri_request = request_words[word]
                request_words.move_to_end(word)
                keys += request
                trigram_keys += tri_request
            else:
                stemmed, rows, tri = plan
            if stemmed is not None:
                stems.append(stemmed)
                flat += rows
            trigram_rows += tri
        bigram_memo = self._bigram_memo
        request_bigrams = self._request_bigrams
        for first, second in zip(stems, stems[1:]):
            phrase = f"{first} {second}"
            rows = bigram_memo.get(phrase)
            if rows is None:
                rows, request = request_bigrams[phrase]
                request_bigrams.move_to_end(phrase)
                keys += request
            flat += rows
        flat += trigram_rows
        keys += trigram_keys
        return flat, keys

    def _plan(self, word_lists: list[list[str]], corpus: bool) -> None:
        """Plan every word and bigram of ``word_lists`` that has none.

        ``corpus`` plans are permanent and intern all their features as
        corpus rows in one :meth:`DirectionBank.intern` pass (words'
        features in order of appearance, then bigrams'); request-time
        plans go to the LRUs and draw nothing: a key that is not a
        corpus row is left for :meth:`DirectionBank.request`.
        """
        word_memo = self._word_memo
        known_words = word_memo if corpus else self._request_words
        word_keys: dict[str, tuple[str | None, list[FeatureKey], list[FeatureKey]]] = {}
        for words in word_lists:
            for word in words:
                if word in word_memo or word in known_words or word in word_keys:
                    continue
                if word in STOPWORDS:
                    stemmed, keys = None, []
                else:
                    stemmed = stem(word)
                    keys = [("token", stemmed)]
                    keys.extend(("concept", c) for c in self.lexicon.lookup(stemmed))
                padded = f"#{word}#"
                tri_keys = [("trigram", padded[i:i + 3])
                            for i in range(len(padded) - 2)]
                word_keys[word] = (stemmed, keys, tri_keys)

        def stem_of(word: str) -> str | None:
            plan = word_keys.get(word) or word_memo.get(word) or known_words[word]
            return plan[0]

        # bigrams need the stems, which are now all known
        bigram_memo = self._bigram_memo
        known_bigrams = bigram_memo if corpus else self._request_bigrams
        bigram_keys: dict[str, list[FeatureKey]] = {}
        for words in word_lists:
            stems = [s for s in map(stem_of, words) if s is not None]
            for first, second in zip(stems, stems[1:]):
                phrase = f"{first} {second}"
                if (phrase in bigram_memo or phrase in known_bigrams
                        or phrase in bigram_keys):
                    continue
                keys = [("bigram", phrase)]
                keys.extend(("concept", c) for c in self.lexicon.lookup_phrase(phrase))
                bigram_keys[phrase] = keys

        if corpus:
            new_keys = [key for _, keys, tri_keys in word_keys.values()
                        for key in chain(keys, tri_keys)]
            new_keys += chain.from_iterable(bigram_keys.values())
            self._bank.intern(list(dict.fromkeys(new_keys)))
        elif word_keys or bigram_keys:
            self._request_planned = True
        row_of = self._bank.row_of

        def rows(keys: list[FeatureKey]) -> tuple[int, ...]:
            return tuple([row_of[key] for key in keys if key in row_of])

        def novel(keys: list[FeatureKey]) -> tuple[FeatureKey, ...]:
            return tuple([key for key in keys if key not in row_of])

        for word, (stemmed, keys, tri_keys) in word_keys.items():
            plan = (stemmed, rows(keys), rows(tri_keys))
            known_words[word] = plan if corpus else (
                *plan, novel(keys), novel(tri_keys))
        for phrase, keys in bigram_keys.items():
            known_bigrams[phrase] = rows(keys) if corpus else (
                rows(keys), novel(keys))

    def _embed(self, features: list[tuple[list[int], list[FeatureKey]]]) -> np.ndarray:
        """Sum each document's weighted directions in canonical order."""
        rows, counts, bounds = count_rows([flat for flat, _ in features],
                                          max(len(self._bank), 1))
        weights = self._row_weights[rows] * (1.0 + np.log(counts))

        # request-time features: per document, in order of first appearance
        tallies = [Counter(keys) for _, keys in features]
        request_bounds = list(accumulate(map(len, tallies), initial=0))
        if request_bounds[-1]:
            request_keys = list(chain.from_iterable(tallies))
            distinct = list(dict.fromkeys(request_keys))
            vectors, slots = self._bank.request(distinct)
            slot_of = dict(zip(distinct, slots))
            request_rows = [slot_of[key] for key in request_keys]
            request_weights = (
                np.array([FAMILY_WEIGHTS[family] for family, _ in request_keys])
                * (1.0 + np.log(np.array(
                    list(chain.from_iterable([tally.values() for tally in tallies]))))))

        # each document's operand is gathered into one preallocated buffer
        sizes = [hi - lo + request_bounds[i + 1] - request_bounds[i]
                 for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
        operand = np.empty((max(sizes), self.dim))
        mixed = np.empty(max(sizes))
        take = self._bank.matrix.take
        out = np.empty((len(features), self.dim))
        for i, size in enumerate(sizes):
            lo, hi = bounds[i], bounds[i + 1]
            n_rows = hi - lo
            take(rows[lo:hi], axis=0, out=operand[:n_rows], mode="clip")
            mixed[:n_rows] = weights[lo:hi]
            start, end = request_bounds[i], request_bounds[i + 1]
            if end > start:
                vectors.take(request_rows[start:end], axis=0,
                             out=operand[n_rows:size], mode="clip")
                mixed[n_rows:size] = request_weights[start:end]
            # an empty document sums nothing: its row is zeros
            out[i] = mixed[:size] @ operand[:size]
        return normalize_rows(out)
