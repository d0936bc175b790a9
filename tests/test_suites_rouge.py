"""Tests for repro.suites.rouge (ROUGE-1 is the test-side bound)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from levels_oracle import rouge_1

from repro.suites.rouge import rouge_l

WORDS = st.lists(st.sampled_from("the cat sat on a mat dog ran fast".split()),
                 min_size=0, max_size=12).map(" ".join)


class TestRouge1:
    def test_identical(self):
        assert rouge_1("plot the captions", "plot the captions") == pytest.approx(1.0)

    def test_disjoint(self):
        assert rouge_1("alpha beta", "gamma delta") == 0.0

    def test_partial_overlap(self):
        score = rouge_1("the cat sat", "the dog sat")
        assert 0.0 < score < 1.0

    def test_empty_candidate(self):
        assert rouge_1("", "reference words") == 0.0

    def test_symmetric_f_measure(self):
        assert rouge_1("a b c", "a b") == pytest.approx(rouge_1("a b", "a b c"))


class TestRougeL:
    def test_identical(self):
        assert rouge_l("plot the captions", "plot the captions") == pytest.approx(1.0)

    def test_order_matters(self):
        in_order = rouge_l("a b c d", "a b c d")
        scrambled = rouge_l("d c b a", "a b c d")
        assert in_order > scrambled

    def test_subsequence_not_substring(self):
        # "a c" is a subsequence of "a b c"
        assert rouge_l("a c", "a b c") > 0.5

    def test_empty(self):
        assert rouge_l("", "") == 0.0

    @given(WORDS, WORDS)
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, a, b):
        assert 0.0 <= rouge_l(a, b) <= 1.0
        assert 0.0 <= rouge_1(a, b) <= 1.0

    @given(WORDS, WORDS)
    @settings(max_examples=60, deadline=None)
    def test_rouge_l_never_exceeds_rouge_1(self, a, b):
        # LCS matches are a subset of bag-of-words matches
        assert rouge_l(a, b) <= rouge_1(a, b) + 1e-12
