"""Tests for repro.vectorstore.metrics."""

import numpy as np
import pytest

from repro.vectorstore.metrics import METRICS, get_metric


def _score(metric: str, queries: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    return METRICS[metric].score_prepared(queries, METRICS[metric].prepare(vectors))


class TestMetrics:
    def test_registry_names(self):
        assert {"ip", "cosine", "l2"} == set(METRICS)

    def test_get_metric_passthrough(self):
        metric = METRICS["l2"]
        assert get_metric(metric) is metric

    def test_get_metric_unknown(self):
        with pytest.raises(ValueError):
            get_metric("manhattan")

    def test_cosine_zero_vector_safe(self):
        scores = _score("cosine", np.zeros((1, 2)), np.ones((1, 2)))
        assert np.isfinite(scores).all()

    def test_l2_nonnegative(self):
        queries = np.random.default_rng(1).standard_normal((3, 4))
        vectors = np.random.default_rng(2).standard_normal((5, 4))
        assert (_score("l2", queries, vectors) >= 0).all()

    def test_ip_matches_matmul(self):
        queries = np.random.default_rng(3).standard_normal((2, 4))
        vectors = np.random.default_rng(4).standard_normal((3, 4))
        np.testing.assert_allclose(_score("ip", queries, vectors), queries @ vectors.T)
