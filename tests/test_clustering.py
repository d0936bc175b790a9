"""Tests for repro.clustering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.clustering import AgglomerativeClustering, pairwise_distances
from repro.utils.rng import derive_rng


def three_blobs(points_per_blob=8, spread=0.2):
    rng = derive_rng("test-clustering-blobs")
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    blobs = [center + spread * rng.standard_normal((points_per_blob, 2)) for center in centers]
    labels = np.repeat(np.arange(3), points_per_blob)
    return np.vstack(blobs), labels


class TestPairwiseDistances:
    def test_euclidean_known_values(self):
        vectors = np.array([[0.0, 0.0], [3.0, 4.0]])
        dist = pairwise_distances(vectors)
        assert dist[0, 1] == pytest.approx(5.0)

    def test_symmetric_zero_diagonal(self):
        vectors = derive_rng("pd").standard_normal((6, 3))
        dist = pairwise_distances(vectors)
        np.testing.assert_allclose(dist, dist.T)
        np.testing.assert_allclose(np.diag(dist), 0.0)

    def test_cosine_range(self):
        vectors = derive_rng("pd2").standard_normal((6, 3))
        dist = pairwise_distances(vectors, metric="cosine")
        assert (dist >= 0).all() and (dist <= 2.0).all()

    def test_cosine_zero_vector_safe(self):
        dist = pairwise_distances(np.array([[0.0, 0.0], [1.0, 0.0]]), metric="cosine")
        assert np.isfinite(dist).all()

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.ones((2, 2)), metric="hamming")


def purity(labels, truth):
    total = 0
    for cluster in np.unique(labels):
        members = truth[labels == cluster]
        counts = np.bincount(members)
        total += counts.max()
    return total / len(truth)


class TestAgglomerative:
    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "ward"])
    def test_recovers_well_separated_blobs(self, linkage):
        vectors, truth = three_blobs()
        labels = AgglomerativeClustering(n_clusters=3, linkage=linkage).fit_predict(vectors)
        assert purity(labels, truth) == 1.0

    def test_cosine_metric_clusters_directions(self):
        vectors = np.array([[1.0, 0.01], [1.0, -0.01], [0.01, 1.0], [-0.01, 1.0]])
        labels = AgglomerativeClustering(n_clusters=2, metric="cosine").fit_predict(vectors)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_n_clusters_one(self):
        vectors, _ = three_blobs()
        labels = AgglomerativeClustering(n_clusters=1).fit_predict(vectors)
        assert len(np.unique(labels)) == 1

    def test_n_clusters_equals_points(self):
        vectors = np.arange(8.0).reshape(4, 2)
        labels = AgglomerativeClustering(n_clusters=4).fit_predict(vectors)
        assert len(np.unique(labels)) == 4

    def test_singleton_dataset(self):
        labels = AgglomerativeClustering(n_clusters=1).fit_predict(np.ones((1, 2)))
        assert labels.tolist() == [0]

    def test_ward_requires_euclidean(self):
        with pytest.raises(ValueError):
            AgglomerativeClustering(n_clusters=2, linkage="ward", metric="cosine")

    def test_neither_cut_criterion_rejected(self):
        with pytest.raises(TypeError, match="n_clusters"):
            AgglomerativeClustering()

    def test_unknown_linkage(self):
        with pytest.raises(ValueError):
            AgglomerativeClustering(n_clusters=2, linkage="median")

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            AgglomerativeClustering(n_clusters=1).fit(np.zeros((0, 2)))

    def test_merge_distances_monotone_for_average_linkage(self):
        vectors, _ = three_blobs()
        model = AgglomerativeClustering(n_clusters=3, linkage="average")
        dendrogram = model.build_dendrogram(vectors)
        distances = [merge.distance for merge in dendrogram.merges]
        assert all(b >= a - 1e-9 for a, b in zip(distances, distances[1:]))

    def test_dendrogram_cut_validates_input(self):
        vectors, _ = three_blobs(points_per_blob=3)
        dendrogram = AgglomerativeClustering(n_clusters=2).build_dendrogram(vectors)
        with pytest.raises(TypeError, match="n_clusters"):
            dendrogram.cut()
        with pytest.raises(ValueError):
            dendrogram.cut(n_clusters=0)
        with pytest.raises(ValueError):
            dendrogram.cut(n_clusters=dendrogram.n_points + 1)

    @given(npst.arrays(np.float64, st.tuples(st.integers(2, 12), st.just(3)),
                       elements=st.floats(-10, 10)))
    @settings(max_examples=30, deadline=None)
    def test_labels_partition_all_points(self, vectors):
        k = min(3, vectors.shape[0])
        labels = AgglomerativeClustering(n_clusters=k, linkage="complete").fit_predict(vectors)
        assert labels.shape == (vectors.shape[0],)
        assert set(labels.tolist()) == set(range(len(np.unique(labels))))

