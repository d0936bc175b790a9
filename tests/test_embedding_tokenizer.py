"""Tests for repro.embedding.tokenizer."""

from hypothesis import given
from hypothesis import strategies as st

from repro.embedding.tokenizer import STOPWORDS, Tokenizer, stem


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
        tokens = Tokenizer(remove_stopwords=False, apply_stem=False).tokenize("Hello WORLD-42")
        assert tokens == ["hello", "world", "42"]

    def test_stopwords_removed(self):
        tokens = Tokenizer().tokenize("what is the weather in Paris")
        assert "the" not in tokens
        assert "weather" in tokens

    def test_stemming_applied(self):
        tokens = Tokenizer().tokenize("plotting datasets")
        assert "plot" in tokens
        assert "dataset" in tokens

    def test_empty_string(self):
        assert Tokenizer().tokenize("") == []

    def test_stem_memo_is_bounded_and_transparent(self):
        assert stem.cache_info().maxsize is not None
        words = ["plotting", "studies", "gas", "buses", "quickly", "map"]
        assert [stem(word) for word in words] == [
            stem.__wrapped__(word) for word in words]

    def test_char_trigrams_padding(self):
        trigrams = Tokenizer().char_trigrams("map")
        assert "#ma" in trigrams
        assert "ap#" in trigrams

    def test_char_trigrams_skip_tiny_words(self):
        assert Tokenizer().char_trigrams("a") == ["#a#"]

    @given(st.text())
    def test_tokenize_never_returns_stopwords(self, text):
        tokens = Tokenizer(apply_stem=False).tokenize(text)
        assert not set(tokens) & STOPWORDS
