"""Tests for repro.utils.text."""

from hypothesis import given
from hypothesis import strategies as st

from repro.utils.text import normalize_whitespace, truncate_words


class TestNormalizeWhitespace:
    def test_collapses_runs(self):
        assert normalize_whitespace("a  b\t c\n\nd") == "a b c d"

    def test_strips_ends(self):
        assert normalize_whitespace("  hi  ") == "hi"

    def test_empty(self):
        assert normalize_whitespace("") == ""

    @given(st.text())
    def test_idempotent(self, text):
        once = normalize_whitespace(text)
        assert normalize_whitespace(once) == once


class TestTruncateWords:
    def test_no_truncation_needed(self):
        assert truncate_words("one two", 5) == "one two"

    def test_truncates(self):
        assert truncate_words("a b c d", 2) == "a b"

    def test_zero_limit(self):
        assert truncate_words("a b", 0) == ""

    @given(st.text(), st.integers(min_value=0, max_value=20))
    def test_never_longer_than_limit(self, text, limit):
        assert len(truncate_words(text, limit).split()) <= limit
