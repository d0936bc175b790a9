"""The request path's small kernels against their plain numpy forms.

Row counting (``count_rows``), row normalization (``normalize_rows``)
and top-k ranking (``VectorIndex._rank_batch``) call numpy directly
instead of through ``np.unique``, ``np.linalg.norm`` and
``np.take_along_axis``; each must give exactly what the form it replaced
(``numpy_oracle.py``) gave: the same values, dtypes and shapes, bit for
bit.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst
from numpy_oracle import count_rows as count_rows_oracle
from numpy_oracle import normalize_rows as normalize_rows_oracle
from numpy_oracle import rank_batch as rank_batch_oracle

from repro.embedding.sentence import count_rows
from repro.utils.vectorops import normalize_rows
from repro.vectorstore import VectorIndex
from repro.vectorstore.base import batch_invariant_matmul

#: tier-1 replays a fixed search; ``--hypothesis-profile=chaos`` draws
#: fresh, longer searches every run
_CHAOS = settings.get_current_profile_name() == "chaos"
_SEARCH = (settings(max_examples=1000) if _CHAOS
           else settings(derandomize=True, max_examples=150, deadline=None))


def assert_same_bits(actual, expected):
    """Same dtype, shape and bytes: ``-0.0`` and ``0.0`` differ here."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# count_rows
# ----------------------------------------------------------------------
@st.composite
def documents(draw):
    """A stride and 1-6 documents of row ids below it, repeats likely."""
    stride = draw(st.integers(1, 60))
    rows = st.integers(0, stride - 1)
    return stride, draw(st.lists(st.lists(rows, max_size=80),
                                 min_size=1, max_size=6))


@given(documents())
@example((5, [[]]))
@example((5, [[], [], []]))
@example((1, [[0]]))
@example((1, [[0, 0, 0], [], [0]]))
@example((7, [[6, 0, 6, 3], [], [3, 3], [6]]))
@_SEARCH
def test_count_rows_equals_np_unique(case):
    stride, flats = case
    rows, counts, bounds = count_rows(flats, stride)
    expected_rows, expected_counts, expected_bounds = count_rows_oracle(flats, stride)
    assert_same_bits(rows, expected_rows)
    assert_same_bits(counts, expected_counts)
    assert bounds == expected_bounds


def test_count_rows_of_a_bank_sized_stride():
    rng = np.random.default_rng(3)
    flats = [rng.integers(0, 6000, size).tolist() for size in (120, 0, 1, 300)]
    for got, expected in zip(count_rows(flats, 6000),
                             count_rows_oracle(flats, 6000)):
        assert_same_bits(got, expected)


# ----------------------------------------------------------------------
# normalize_rows
# ----------------------------------------------------------------------
@st.composite
def matrices(draw):
    """1, 8 or 33 rows (or another count), some of them all-zero."""
    n_rows = draw(st.sampled_from([1, 8, 33]) | st.integers(0, 40))
    dim = draw(st.sampled_from([1, 2, 768]) | st.integers(1, 40))
    matrix = draw(npst.arrays(
        np.float64, (n_rows, dim),
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)))
    zero = draw(npst.arrays(np.bool_, n_rows))
    matrix[zero] = 0.0
    return matrix


@given(matrices())
@_SEARCH
def test_normalize_rows_equals_linalg_norm(matrix):
    assert_same_bits(normalize_rows(matrix), normalize_rows_oracle(matrix))


@given(npst.arrays(np.float64, st.integers(0, 40),
                   elements=st.floats(-1e3, 1e3)))
@example(np.zeros(5))
@_SEARCH
def test_normalize_rows_of_a_vector_equals_linalg_norm(vector):
    assert_same_bits(normalize_rows(vector), normalize_rows_oracle(vector))


def test_normalize_rows_of_embedder_sized_rows():
    rng = np.random.default_rng(11)
    for n_rows in (1, 8, 33):
        matrix = rng.standard_normal((n_rows, 768))
        matrix[n_rows // 2] = 0.0
        assert_same_bits(normalize_rows(matrix), normalize_rows_oracle(matrix))


# ----------------------------------------------------------------------
# VectorIndex._rank_batch
# ----------------------------------------------------------------------
@st.composite
def score_matrices(draw):
    """Small-integer scores (many exact ties), ids in shuffled order, and
    a k from 1 to the row length (``_search_checked`` clamps larger)."""
    n_queries = draw(st.integers(1, 10))
    # past 16 entries numpy's default sort is no longer an insertion sort
    n_stored = draw(st.integers(1, 64))
    scores = draw(npst.arrays(np.float64, (n_queries, n_stored),
                              elements=st.integers(-3, 3).map(float)))
    ids = draw(st.permutations(range(100, 100 + n_stored)))
    k = draw(st.integers(1, n_stored))
    return scores, ids, k


def _index_with_ids(ids) -> VectorIndex:
    index = VectorIndex(dim=2)
    index.add(np.ones((len(ids), 2)), ids=ids)
    return index


@given(score_matrices())
@example((np.zeros((1, 1)), [100], 1))
@example((np.zeros((3, 5)), [104, 100, 103, 101, 102], 1))
@example((np.zeros((2, 5)), [104, 100, 103, 101, 102], 5))
@example((np.array([[1.0, 2.0, 2.0, 1.0]]), [100, 101, 102, 103], 2))
@_SEARCH
def test_rank_batch_equals_take_along_axis(case):
    scores, ids, k = case
    index = _index_with_ids(ids)
    got_scores, got_ids = index._rank_batch(scores, k)
    expected_scores, expected_ids = rank_batch_oracle(scores, k, index.ids)
    assert_same_bits(got_scores, expected_scores)
    assert_same_bits(got_ids, expected_ids)


def test_search_over_duplicate_vectors_equals_the_oracle():
    """Exact ties from duplicate stored vectors, k = 1, k < n and k >= n."""
    rng = np.random.default_rng(5)
    base = rng.standard_normal((6, 16))
    stored = np.vstack([base, base[[0, 0, 3, 5]]])
    index = VectorIndex(dim=16)
    index.add(stored, ids=rng.permutation(len(stored)) + 50)
    queries = np.vstack([base[[0, 3]], rng.standard_normal((3, 16))])
    # the scores the index ranks: its fixed-block gemm over its operand
    score_matrix = batch_invariant_matmul(normalize_rows(queries),
                                          index._operand.T)
    for k in (1, 2, 4, len(stored), len(stored) + 3):
        got_scores, got_ids = index.search_arrays(queries, k)
        expected_scores, expected_ids = rank_batch_oracle(
            score_matrix, min(k, len(stored)), index.ids)
        assert_same_bits(got_scores, expected_scores)
        assert_same_bits(got_ids, expected_ids)
