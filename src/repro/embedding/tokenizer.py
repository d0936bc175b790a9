"""Word tokenizer with stopword removal and light suffix stemming."""

from __future__ import annotations

import re
from functools import lru_cache

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Compact english stopword list; enough to keep tool/query tokens clean.
STOPWORDS = frozenset(
    """
    a an and are as at be been but by can could did do does for from had has
    have he her his how i if in into is it its me my no nor not of on or our
    she should so some such than that the their them then there these they
    this those to us was we were what when where which who whom why will with
    would you your please kindly
    """.split()
)

_SUFFIXES = ("ingly", "edly", "ings", "ing", "edly", "ied", "ies", "ed", "es", "s", "ly")
_KEEP_SHORT = frozenset({"gas", "bus", "gps", "les", "las", "pas"})


@lru_cache(maxsize=16384)
def stem(word: str) -> str:
    """Light deterministic suffix-stripping stemmer.

    Much weaker than Porter but stable and predictable: it only strips a
    suffix when the remaining stem keeps at least three characters, so the
    lexicon can rely on the mapping ("plotting" -> "plott" is avoided by
    de-doubling the final consonant).  Memoized (bounded): the same few
    thousand catalog and query words are stemmed on every paraphrase and
    every uncached embed.
    """
    if word in _KEEP_SHORT or len(word) <= 3:
        return word
    for suffix in _SUFFIXES:
        if word.endswith(suffix) and len(word) - len(suffix) >= 3:
            stemmed = word[: -len(suffix)]
            if suffix in ("ied", "ies"):
                stemmed += "y"
            # de-double trailing consonant: "plott" -> "plot"
            if len(stemmed) >= 4 and stemmed[-1] == stemmed[-2] and stemmed[-1] not in "aeiouls":
                stemmed = stemmed[:-1]
            return stemmed
    return word


class Tokenizer:
    """Lowercasing word tokenizer with optional stopword removal/stemming."""

    def __init__(self, remove_stopwords: bool = True, apply_stem: bool = True):
        self.remove_stopwords = remove_stopwords
        self.apply_stem = apply_stem

    def words(self, text: str) -> list[str]:
        """Return raw lowercase word tokens (no stopword removal)."""
        return _TOKEN_RE.findall(text.lower())

    def tokenize(self, text: str) -> list[str]:
        """Return normalised tokens ready for feature extraction."""
        tokens = self.words(text)
        if self.remove_stopwords:
            tokens = [token for token in tokens if token not in STOPWORDS]
        if self.apply_stem:
            tokens = [stem(token) for token in tokens]
        return tokens

    def char_trigrams(self, text: str) -> list[str]:
        """Return padded character trigrams of each raw word."""
        trigrams: list[str] = []
        for word in self.words(text):
            padded = f"#{word}#"
            if len(padded) < 3:
                continue
            trigrams.extend(padded[i : i + 3] for i in range(len(padded) - 2))
        return trigrams
