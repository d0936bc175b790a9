"""Tests for the exact cosine index, repro.vectorstore.VectorIndex."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.vectorstore import VectorIndex


@pytest.fixture
def small_index():
    index = VectorIndex(dim=3)
    index.add(np.eye(3), ids=[10, 20, 30])
    return index


class TestAdd:
    def test_len(self, small_index):
        assert len(small_index) == 3

    def test_auto_ids_continue(self):
        index = VectorIndex(dim=2)
        index.add(np.ones((2, 2)))
        index.add(np.zeros((1, 2)))
        assert index.ids.tolist() == [0, 1, 2]

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            VectorIndex(dim=3).add(np.ones((1, 2)))

    def test_duplicate_ids_rejected(self, small_index):
        with pytest.raises(ValueError):
            small_index.add(np.ones((1, 3)), ids=[10])

    def test_duplicate_ids_within_batch_rejected(self):
        with pytest.raises(ValueError):
            VectorIndex(dim=2).add(np.ones((2, 2)), ids=[5, 5])

    def test_ids_length_mismatch(self):
        with pytest.raises(ValueError):
            VectorIndex(dim=2).add(np.ones((2, 2)), ids=[1])

    def test_reconstruct(self, small_index):
        np.testing.assert_array_equal(small_index.reconstruct(20), [0.0, 1.0, 0.0])

    def test_reconstruct_missing(self, small_index):
        with pytest.raises(KeyError):
            small_index.reconstruct(99)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            VectorIndex(dim=0)


class TestSearch:
    def test_exact_nearest(self, small_index):
        result = small_index.search_one(np.array([0.9, 0.1, 0.0]), k=1)
        assert result.top()[1] == 10

    def test_k_larger_than_index_clamped(self, small_index):
        result = small_index.search_one(np.ones(3), k=10)
        assert len(result.ids) == 3

    def test_scores_sorted_best_first(self, small_index):
        result = small_index.search_one(np.array([0.7, 0.5, 0.1]), k=3)
        assert list(result.scores) == sorted(result.scores, reverse=True)

    def test_cosine_zero_vector_safe(self):
        index = VectorIndex(dim=2)
        index.add(np.ones((1, 2)))
        assert np.isfinite(index.search_one(np.zeros(2), k=1).scores).all()

    def test_empty_index_returns_empty_results(self):
        result = VectorIndex(dim=2).search_one(np.ones(2), k=3)
        assert len(result.ids) == len(result.scores) == 0

    def test_invalid_k(self, small_index):
        with pytest.raises(ValueError):
            small_index.search_one(np.ones(3), k=0)

    def test_batch_search(self, small_index):
        results = small_index.search(np.eye(3), k=1)
        assert [r.top()[1] for r in results] == [10, 20, 30]

    def test_top_on_empty_raises(self):
        result = VectorIndex(dim=2).search_one(np.ones(2), k=1)
        with pytest.raises(ValueError):
            result.top()


class TestSearchProperties:
    @given(
        npst.arrays(np.float64, (8, 4), elements=st.floats(-3, 3)),
        npst.arrays(np.float64, (4,), elements=st.floats(-3, 3)),
    )
    @settings(max_examples=40, deadline=None)
    def test_top1_matches_bruteforce_cosine(self, vectors, query):
        index = VectorIndex(dim=4)
        index.add(vectors)
        result = index.search_one(query, k=8)
        norms = np.linalg.norm(vectors, axis=1)
        q_norm = np.linalg.norm(query)
        if q_norm == 0:
            return
        # normalize before the dot product (like the index does): dividing
        # the raw dot by a *product* of norms underflows to denormals for
        # tiny-magnitude vectors and loses all precision
        safe = np.where(norms == 0, 1.0, norms)
        sims = (vectors / safe[:, None]) @ (query / q_norm)
        sims[norms == 0] = 0.0
        assert result.scores[0] == pytest.approx(float(np.max(sims)), abs=1e-9)

    @given(npst.arrays(np.float64, (6, 3), elements=st.floats(-2, 2)))
    @settings(max_examples=40, deadline=None)
    def test_result_ids_are_stored_ids(self, vectors):
        index = VectorIndex(dim=3)
        ids = [100 + i for i in range(6)]
        index.add(vectors, ids=ids)
        result = index.search_one(np.ones(3), k=4)
        assert set(result.ids.tolist()) <= set(ids)
