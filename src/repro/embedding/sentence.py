"""Sentence embedder: weighted bag-of-features under a random projection.

The embedding model is unchanged from the original implementation —
every ``(family, feature)`` id maps to a fixed seeded unit direction,
features are summed with family/log-count weights and the result is
L2-normalized — but the execution is vectorized: feature directions live
in a persistent :class:`~repro.embedding.directions.DirectionBank`
matrix, per-word feature sets are memoized as interned row ids, and a
document embedding is one ``weights @ directions[rows]`` matmul instead
of a per-feature Python accumulation loop.

``encode()`` is the primary entry point; ``encode_one`` is a batch of
one, so batched and one-at-a-time encoding are bitwise identical.  The
historical per-feature loop is the equivalence tests' oracle
(``tests/embedding_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from repro.embedding.directions import DirectionBank, FeatureKey
from repro.embedding.lexicon import ConceptLexicon, default_lexicon
from repro.embedding.tokenizer import STOPWORDS, Tokenizer, stem
from repro.utils.vectorops import normalize_rows

#: Relative weight of each feature family in the summed embedding.
FAMILY_WEIGHTS = {
    "concept": 3.0,
    "token": 1.0,
    "bigram": 0.8,
    "trigram": 0.25,
}


class SentenceEmbedder:
    """Deterministic 768-d sentence embedder (MPNet substitute).

    Parameters
    ----------
    dim:
        Output dimensionality.  The paper uses 768 (Section III-A; the
        text also mentions "728" once — we treat that as a typo).
    lexicon:
        Synonym→concept table; defaults to the shared domain lexicon.
    seed_namespace:
        Fixes the projection for the embedder's life; distinct namespaces
        produce statistically independent projections (the projection
        ablation builds one embedder per namespace).

    Notes
    -----
    The per-document computation depends only on the document's own
    feature set, so ``encode(texts)`` is bitwise equal to stacking
    ``encode_one`` calls on the same embedder at any batch size.  Across
    embedders that interned their vocabularies in different orders,
    values agree to float addition order (~1e-15).

    Single-writer: encoding grows the word memos and the direction bank
    without a lock of its own.  Share one across threads only behind
    :class:`~repro.embedding.cache.CachedEmbedder`, whose lock covers it.
    """

    def __init__(
        self,
        dim: int = 768,
        lexicon: ConceptLexicon | None = None,
        seed_namespace: str = "mpnet-substitute",
    ):
        if dim < 8:
            raise ValueError(f"embedding dim must be >= 8, got {dim}")
        self.dim = int(dim)
        self.lexicon = lexicon if lexicon is not None else default_lexicon()
        self.seed_namespace = seed_namespace
        self._tokenizer = Tokenizer()
        self._bank = DirectionBank(self.dim, seed_namespace)
        #: per-row family weight, kept parallel to the bank rows
        self._row_weights = np.empty(0)
        # word-level memos over interned direction rows:
        #   raw word -> (stem | None, token+concept row ids, trigram row ids)
        #   stemmed bigram phrase -> bigram+concept row ids
        self._word_memo: dict[str, tuple[str | None, tuple[int, ...], tuple[int, ...]]] = {}
        self._bigram_memo: dict[str, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def direction_count(self) -> int:
        """Number of feature directions currently interned."""
        return len(self._bank)

    @property
    def cache_nbytes(self) -> int:
        """Resident bytes of the interned direction matrix."""
        return self._bank.matrix.nbytes

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
        word_lists = [self._tokenizer.words(text) for text in texts]
        flats: list[list[int] | None] = [None] * len(texts)
        cold: list[int] = []
        for i, words in enumerate(word_lists):
            try:
                flats[i] = self._document_rows(words)
            except KeyError:
                cold.append(i)
        if cold:
            # one direction-generation pass for the batch's new vocabulary
            self._warm_memos([word_lists[i] for i in cold])
            for i in cold:
                flats[i] = self._document_rows(word_lists[i])
        weights_of_row = self._sync_row_weights()
        directions = self._bank.matrix
        out = np.zeros((len(texts), self.dim))
        for i, flat in enumerate(flats):
            if not flat:
                continue
            # canonical per-document computation: sorted unique rows, one
            # weighted matmul — independent of batch composition, so the
            # same text embeds bitwise-identically at any batch size
            occurrences = np.fromiter(flat, dtype=np.intp, count=len(flat))
            row_ids, counts = np.unique(occurrences, return_counts=True)
            weights = weights_of_row[row_ids] * (1.0 + np.log(counts))
            out[i] = weights @ directions[row_ids]
        return normalize_rows(out)

    def encode_one(self, text: str) -> np.ndarray:
        """Embed a single string into a unit-norm ``dim``-vector."""
        return self.encode([text])[0]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _document_rows(self, words: list[str]) -> list[int]:
        """Flat direction-row ids (with multiplicity) for one document.

        Raises ``KeyError`` when a word or bigram is not memoized yet;
        callers fall back to :meth:`_warm_memos`.
        """
        flat: list[int] = []
        trigram_rows: list[int] = []
        stems: list[str] = []
        word_memo = self._word_memo
        for word in words:
            stemmed, rows, tri = word_memo[word]
            if stemmed is not None:
                stems.append(stemmed)
                flat += rows
            trigram_rows += tri
        bigram_memo = self._bigram_memo
        for first, second in zip(stems, stems[1:]):
            flat += bigram_memo[f"{first} {second}"]
        flat += trigram_rows
        return flat

    def _warm_memos(self, word_lists: list[list[str]]) -> None:
        """Memoize every word/bigram of a batch, generating new feature
        directions in one :meth:`DirectionBank.intern` pass."""
        word_memo = self._word_memo
        new_keys: list[FeatureKey] = []
        word_plans: dict[str, tuple[str | None, list[FeatureKey], list[FeatureKey]]] = {}
        remove_stop = self._tokenizer.remove_stopwords
        apply_stem = self._tokenizer.apply_stem
        for words in word_lists:
            for word in words:
                if word in word_memo or word in word_plans:
                    continue
                if remove_stop and word in STOPWORDS:
                    stemmed, keys = None, []
                else:
                    stemmed = stem(word) if apply_stem else word
                    keys = [("token", stemmed)]
                    keys.extend(("concept", c) for c in self.lexicon.lookup(stemmed))
                padded = f"#{word}#"
                tri_keys = [("trigram", padded[i:i + 3])
                            for i in range(len(padded) - 2)]
                word_plans[word] = (stemmed, keys, tri_keys)
                new_keys.extend(keys)
                new_keys.extend(tri_keys)

        def stem_of(word: str) -> str | None:
            memo = word_memo.get(word)
            return memo[0] if memo is not None else word_plans[word][0]

        # bigrams need the stems, which are now all known
        bigram_memo = self._bigram_memo
        bigram_plans: dict[str, list[FeatureKey]] = {}
        for words in word_lists:
            stems = [s for s in map(stem_of, words) if s is not None]
            for first, second in zip(stems, stems[1:]):
                phrase = f"{first} {second}"
                if phrase in bigram_memo or phrase in bigram_plans:
                    continue
                keys = [("bigram", phrase)]
                keys.extend(("concept", c) for c in self.lexicon.lookup_phrase(phrase))
                bigram_plans[phrase] = keys
                new_keys.extend(keys)

        if new_keys:
            self._bank.intern(list(dict.fromkeys(new_keys)))
        resolve = self._bank.intern
        for word, (stemmed, keys, tri_keys) in word_plans.items():
            word_memo[word] = (stemmed, tuple(resolve(keys)), tuple(resolve(tri_keys)))
        for phrase, keys in bigram_plans.items():
            bigram_memo[phrase] = tuple(resolve(keys))

    def _sync_row_weights(self) -> np.ndarray:
        """Extend the per-row family-weight array to cover all bank rows."""
        weights = self._row_weights
        n_rows = len(self._bank)
        if len(weights) < n_rows:
            keys = self._bank.keys
            fresh = np.fromiter(
                (FAMILY_WEIGHTS[keys[row][0]] for row in range(len(weights), n_rows)),
                dtype=float, count=n_rows - len(weights),
            )
            weights = np.concatenate([weights, fresh])
            self._row_weights = weights
        return weights
