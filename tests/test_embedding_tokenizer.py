"""Tests for repro.embedding.tokenizer."""

from collections import Counter
from functools import cache

from hypothesis import given
from hypothesis import strategies as st

from embedding_oracle import char_trigrams, memo_features, tokenize
from repro.embedding.sentence import SentenceEmbedder
from repro.embedding.tokenizer import STOPWORDS, split_words, stem


@cache
def _embedder() -> SentenceEmbedder:
    return SentenceEmbedder()


class TestStem:
    def test_plural(self):
        assert stem("tools") == "tool"

    def test_ing_with_dedoubling(self):
        assert stem("plotting") == "plot"

    def test_ing_plain(self):
        assert stem("translating") == "translat"

    def test_ies_to_y(self):
        assert stem("queries") == "query"

    def test_short_words_untouched(self):
        assert stem("map") == "map"
        assert stem("gas") == "gas"

    def test_does_not_overstem(self):
        # stem must keep >= 3 chars
        assert stem("les") == "les"

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=15))
    def test_stem_never_empty_and_is_prefixish(self, word):
        result = stem(word)
        assert result
        # stems only modify the tail of the word
        assert result[:2] == word[:2] or len(word) <= 2


class TestTokenizer:
    def test_lowercases_and_splits(self):
        tokens = split_words("Hello WORLD-42")
        assert tokens == ["hello", "world", "42"]

    def test_stopwords_removed(self):
        tokens = tokenize("what is the weather in Paris")
        assert "the" not in tokens
        assert "weather" in tokens

    def test_stemming_applied(self):
        tokens = tokenize("plotting datasets")
        assert "plot" in tokens
        assert "dataset" in tokens

    def test_empty_string(self):
        assert split_words("") == tokenize("") == []

    def test_stem_memo_is_bounded_and_transparent(self):
        assert stem.cache_info().maxsize is not None
        words = ["plotting", "studies", "gas", "buses", "quickly", "map"]
        assert [stem(word) for word in words] == [
            stem.__wrapped__(word) for word in words]

    def test_char_trigrams_padding(self):
        trigrams = char_trigrams("map")
        assert "#ma" in trigrams
        assert "ap#" in trigrams

    def test_char_trigrams_skip_tiny_words(self):
        assert char_trigrams("a") == ["#a#"]

    @given(st.text() | st.lists(st.sampled_from(
        [*sorted(STOPWORDS), "ours", "plotting", "Datasets", "weather"]),
    ).map(" ".join))
    def test_the_embedder_stems_only_non_stopwords(self, text):
        """A stopword gives the embedder no token feature; every other
        word gives its stem (which may itself spell a stopword:
        "ours" -> "our")."""
        tokens = Counter(feature for (family, feature), count
                         in memo_features(_embedder(), text).items()
                         for _ in range(count) if family == "token")
        assert tokens == Counter(stem(word) for word in split_words(text)
                                 if word not in STOPWORDS)
