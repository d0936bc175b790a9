"""Batched-vs-per-query search equivalence for the exact cosine index."""

import numpy as np
import pytest

from repro.utils.rng import derive_rng
from repro.utils.vectorops import normalize_rows
from repro.vectorstore import VectorIndex
from repro.vectorstore.base import QUERY_BLOCK, batch_invariant_matmul


@pytest.fixture(scope="module")
def vectors():
    return derive_rng("test-batched-store").standard_normal((60, 16))


@pytest.fixture(scope="module")
def queries():
    return derive_rng("test-batched-queries").standard_normal((17, 16))


def build_flat_cosine(vectors):
    index = VectorIndex(dim=16)
    index.add(vectors)
    return index


#: one builder; still a parameter because it names the tests' ids
BUILDERS = [build_flat_cosine]


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("k", [1, 3, 60, 100])
def test_batched_equals_per_query(builder, k, vectors, queries):
    index = builder(vectors)
    batched = index.search(queries, k)
    for qi, query in enumerate(queries):
        single = index.search_one(query, k)
        np.testing.assert_array_equal(batched[qi].ids, single.ids)
        # scoring kernels run in fixed-shape padded blocks, so scores are
        # bitwise identical no matter the batch composition (the serving
        # micro-batcher's determinism contract)
        np.testing.assert_array_equal(batched[qi].scores, single.scores)


@pytest.mark.parametrize("builder", BUILDERS)
def test_batched_scores_sorted_best_first(builder, vectors, queries):
    index = builder(vectors)
    for result in index.search(queries, 7):
        ordered = sorted(result.scores, reverse=True)
        assert list(result.scores) == ordered


def test_flat_batched_matches_bruteforce(vectors, queries):
    index = build_flat_cosine(vectors)
    results = index.search(queries, 5)
    scores = normalize_rows(queries) @ normalize_rows(vectors).T
    for qi, result in enumerate(results):
        expected_rows = np.argsort(-scores[qi], kind="stable")[:5]
        np.testing.assert_array_equal(result.ids, expected_rows)
        np.testing.assert_allclose(result.scores, scores[qi][expected_rows])


def test_search_arrays_shapes(vectors, queries):
    index = build_flat_cosine(vectors)
    scores, ids = index.search_arrays(queries, 6)
    assert scores.shape == (17, 6)
    assert ids.shape == (17, 6)
    results = index.search(queries, 6)
    np.testing.assert_array_equal(scores, np.stack([r.scores for r in results]))
    np.testing.assert_array_equal(ids, np.stack([r.ids for r in results]))


def test_search_arrays_clamps_k(vectors):
    index = build_flat_cosine(vectors)
    scores, ids = index.search_arrays(np.ones((2, 16)), 999)
    assert scores.shape == (2, 60)


def test_scores_invariant_across_batch_compositions(vectors, queries):
    """A query's scores are bitwise stable however it shares a batch.

    This is what lets the serving gateway stack many requests'
    recommendation vectors into one search without the batch composition
    (which depends on request timing) leaking into any request's result.
    """
    index = build_flat_cosine(vectors)
    reference, reference_ids = index.search_arrays(queries, 5)
    # larger stacked batch (crosses the padded-block boundary)
    stacked = np.vstack([queries, queries, queries])
    stacked_scores, stacked_ids = index.search_arrays(stacked, 5)
    for copy in range(3):
        block = slice(copy * len(queries), (copy + 1) * len(queries))
        np.testing.assert_array_equal(stacked_scores[block], reference)
        np.testing.assert_array_equal(stacked_ids[block], reference_ids)
    # odd-sized sub-batches and single rows
    for start in range(0, len(queries), 3):
        scores, ids = index.search_arrays(queries[start:start + 3], 5)
        np.testing.assert_array_equal(scores, reference[start:start + 3])
        np.testing.assert_array_equal(ids, reference_ids[start:start + 3])


def test_batch_invariant_matmul_handles_empty_and_blocked_shapes():
    rng = np.random.default_rng(3)
    stored = rng.standard_normal((9, 8))
    empty = batch_invariant_matmul(np.zeros((0, 8)), stored.T)
    assert empty.shape == (0, 9)
    big = rng.standard_normal((QUERY_BLOCK * 2 + 5, 8))
    np.testing.assert_array_equal(
        batch_invariant_matmul(big, stored.T)[:5],
        batch_invariant_matmul(big[:5], stored.T))
