"""Tests for repro.utils.vectorops — the shared zero-safe normalization helpers."""

import numpy as np
import pytest

from repro.utils.vectorops import blend_and_normalize, normalize_rows


class TestNormalizeRows:
    def test_plain_norms(self):
        out = normalize_rows(np.array([[3.0, 4.0], [0.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8], [0.0, 1.0]])

    def test_unit_rows(self):
        out = normalize_rows(np.array([[3.0, 4.0], [0.0, 5.0]]))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_zero_rows_stay_zero(self):
        out = normalize_rows(np.array([[0.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(out[0], [0.0, 0.0])
        assert not np.isnan(out).any()

    def test_input_not_mutated(self):
        matrix = np.array([[2.0, 0.0]])
        normalize_rows(matrix)
        np.testing.assert_array_equal(matrix, [[2.0, 0.0]])

    def test_one_dim_promoted(self):
        assert normalize_rows(np.array([2.0, 0.0])).shape == (1, 2)

    def test_empty(self):
        assert normalize_rows(np.zeros((0, 4))).shape == (0, 4)


class TestBlendAndNormalize:
    def test_blend_weights(self):
        vectors = np.array([[1.0, 0.0]])
        context = np.array([0.0, 1.0])
        out = blend_and_normalize(vectors, context, weight=0.75)
        expected = np.array([0.75, 0.25])
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(out[0], expected)

    def test_weight_one_keeps_vectors(self):
        vectors = np.array([[0.0, 2.0], [3.0, 0.0]])
        out = blend_and_normalize(vectors, np.array([1.0, 1.0]), weight=1.0)
        np.testing.assert_allclose(out, [[0.0, 1.0], [1.0, 0.0]])

    def test_opposite_blend_zero_row_safe(self):
        out = blend_and_normalize(np.array([[1.0, 0.0]]), np.array([-3.0, 0.0]),
                                  weight=0.75)
        np.testing.assert_array_equal(out[0], [0.0, 0.0])

    def test_empty_batch(self):
        out = blend_and_normalize(np.zeros((0, 3)), np.ones(3))
        assert out.shape == (0, 3)

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            blend_and_normalize(np.ones((1, 2)), np.ones(2), weight=1.5)

    def test_matches_historical_pipeline_arithmetic(self):
        rng = np.random.default_rng(7)
        vectors = rng.standard_normal((5, 8))
        context = rng.standard_normal(8)
        blended = 0.75 * vectors + 0.25 * context[None, :]
        norms = np.linalg.norm(blended, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        np.testing.assert_array_equal(blend_and_normalize(vectors, context),
                                      blended / norms)
