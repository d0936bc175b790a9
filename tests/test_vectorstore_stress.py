"""Seeded randomized stress test: multi-query search == stacked per-query.

The batch-invariance contract underpins the serving layer's bitwise
guarantee, so it gets an adversarial workout here: random corpora and
query batches across shapes chosen to straddle the padded-matmul
boundary (``QUERY_BLOCK == 8``), ``k`` at and beyond the index size,
single-row indexes and duplicated query rows.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.utils.rng import derive_rng
from repro.utils.vectorops import normalize_rows
from repro.vectorstore import FlatIndex
from repro.vectorstore.metrics import QUERY_BLOCK, batch_invariant_matmul

DIM = 24
#: batch sizes straddling the QUERY_BLOCK=8 padding boundary
BATCH_SIZES = [1, QUERY_BLOCK - 1, QUERY_BLOCK, QUERY_BLOCK + 1,
               2 * QUERY_BLOCK, 2 * QUERY_BLOCK + 3]


#: the one index family; still a parameter because it names the tests'
#: rng streams and ids (``[flat]``)
FAMILIES = ["flat"]


def _build(vectors: np.ndarray, metric: str = "cosine") -> FlatIndex:
    index = FlatIndex(dim=DIM, metric=metric)
    index.add(vectors)
    return index


def _assert_batch_matches_stacked(index, queries: np.ndarray, k: int) -> None:
    batched = index.search(queries, k)
    assert len(batched) == queries.shape[0]
    for row, result in enumerate(batched):
        single = index.search_one(queries[row], k)
        np.testing.assert_array_equal(result.ids, single.ids,
                                      err_msg=f"row {row}, k={k}")
        np.testing.assert_array_equal(result.scores, single.scores,
                                      err_msg=f"row {row}, k={k}")


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("trial", range(3))
def test_random_batches_match_per_query(family, trial):
    rng = derive_rng("vectorstore-stress", family, trial)
    n_vectors = int(rng.integers(5, 40))
    vectors = rng.normal(size=(n_vectors, DIM))
    index = _build(vectors)

    for batch_size in BATCH_SIZES:
        queries = rng.normal(size=(batch_size, DIM))
        for k in (1, 3, n_vectors, n_vectors + 7):  # k >= index size too
            _assert_batch_matches_stacked(index, queries, k)


@pytest.mark.parametrize("family", FAMILIES)
def test_duplicate_queries_get_identical_rows(family):
    """The same vector must retrieve identically wherever it rides."""
    rng = derive_rng("vectorstore-stress", "duplicates", family)
    index = _build(rng.normal(size=(12, DIM)))
    base = rng.normal(size=(3, DIM))
    # each base query duplicated across block boundaries
    queries = np.vstack([base, base[::-1], base[1:], base])
    results = index.search(queries, 4)
    by_key = {}
    for row in range(queries.shape[0]):
        key = queries[row].tobytes()
        got = (results[row].ids.tolist(), results[row].scores.tobytes())
        assert by_key.setdefault(key, got) == got, f"row {row} diverged"


@pytest.mark.parametrize("family", FAMILIES)
def test_single_row_index(family):
    rng = derive_rng("vectorstore-stress", "single-row", family)
    index = _build(rng.normal(size=(1, DIM)))
    queries = rng.normal(size=(QUERY_BLOCK + 1, DIM))
    for k in (1, 5):  # k clamps to the one stored vector
        results = index.search(queries, k)
        assert all(len(result) == 1 for result in results)
        _assert_batch_matches_stacked(index, queries, k)


@pytest.mark.parametrize("family", FAMILIES)
def test_search_arrays_matches_search(family):
    rng = derive_rng("vectorstore-stress", "arrays", family)
    index = _build(rng.normal(size=(15, DIM)))
    queries = rng.normal(size=(QUERY_BLOCK + 3, DIM))
    scores, ids = index.search_arrays(queries, 4)
    assert scores.shape == ids.shape == (queries.shape[0], 4)
    for row, result in enumerate(index.search(queries, 4)):
        np.testing.assert_array_equal(ids[row], result.ids)
        np.testing.assert_array_equal(scores[row], result.scores)


# ----------------------------------------------------------------------
# prepared operands == the per-call formulas they replaced, bitwise
# ----------------------------------------------------------------------
# The index keeps the metric's prepared form of its stored vectors
# (row-normalised matrix, squared norms) instead of deriving it on every
# search.  The references below are the per-call formulas as they stood
# before that, kept here so that "same bits" is asserted against them
# and not against the code under test.
def _reference_matmul(queries: np.ndarray, vectors_t: np.ndarray) -> np.ndarray:
    blocks = []
    for start in range(0, queries.shape[0], QUERY_BLOCK):
        chunk = queries[start:start + QUERY_BLOCK]
        pad = QUERY_BLOCK - chunk.shape[0]
        if pad:
            chunk = np.vstack([chunk, np.zeros((pad, chunk.shape[1]))])
            blocks.append((chunk @ vectors_t)[:QUERY_BLOCK - pad])
        else:
            blocks.append(chunk @ vectors_t)
    return np.vstack(blocks)


def _reference_l2(queries, vectors):
    dists = (np.sum(queries**2, axis=1, keepdims=True)
             - 2.0 * _reference_matmul(queries, vectors.T)
             + np.sum(vectors**2, axis=1)[None, :])
    return np.maximum(dists, 0.0)


def _reference_scores(metric: str, queries, vectors) -> np.ndarray:
    if metric == "ip":
        return _reference_matmul(queries, vectors.T)
    if metric == "cosine":
        return _reference_matmul(normalize_rows(queries),
                                 normalize_rows(vectors).T)
    return _reference_l2(queries, vectors)


def _assert_matches_reference(index, metric, queries, k) -> None:
    results = index.search(queries, k)
    position = {int(stored_id): row_of
                for row_of, stored_id in enumerate(index._ids)}
    for row, result in enumerate(results):
        scores = _reference_scores(metric, queries[row][None, :],
                                   index._vectors)[0]
        keys = -scores if index.metric.higher_is_better else scores
        best = np.argsort(keys, kind="stable")[:k]
        np.testing.assert_array_equal(result.scores, scores[best],
                                      err_msg=f"row {row}")
        # ids are pinned through their scores, which tolerates exact ties
        # whichever way they break
        np.testing.assert_array_equal(
            scores[[position[int(i)] for i in result.ids]], result.scores)
        assert len(set(result.ids.tolist())) == len(result)
    scores, ids = index.search_arrays(queries, k)
    np.testing.assert_array_equal(
        scores, np.stack([result.scores for result in results]))
    np.testing.assert_array_equal(
        ids, np.stack([result.ids for result in results]))


FAMILY_METRICS = [(family, metric) for family in FAMILIES
                  for metric in ("cosine", "ip", "l2")]
REFERENCE_BATCHES = [1, QUERY_BLOCK - 1, QUERY_BLOCK, QUERY_BLOCK + 1, 33]


@pytest.mark.parametrize("family,metric", FAMILY_METRICS)
def test_prepared_operand_matches_per_call_formula(family, metric):
    rng = derive_rng("vectorstore-stress", "operand", family, metric)
    index = _build(rng.normal(size=(40, DIM)), metric)
    batches = [rng.normal(size=(size, DIM)) for size in REFERENCE_BATCHES]

    def check(candidate):
        for queries in batches:
            for k in (1, 3, len(candidate) + 2):
                _assert_matches_reference(candidate, metric, queries, k)

    check(index)
    # interleaved adds: the operand may never lag the stored vectors
    for n_new in (5, 1):
        index.add(rng.normal(size=(n_new, DIM)))
        check(index)
    # the operand is derived state: rebuilt on the far side, not shipped
    assert "_operand" not in index.__getstate__()
    unpickled = pickle.loads(pickle.dumps(index))
    check(unpickled)
    np.testing.assert_array_equal(unpickled.search_arrays(batches[-1], 3)[0],
                                  index.search_arrays(batches[-1], 3)[0])


def test_matmul_padding_block_matches_vstack_padding():
    """One zeroed block per ragged tail == the vstack it replaced."""
    rng = derive_rng("vectorstore-stress", "matmul")
    stored = rng.normal(size=(46, DIM))
    for size in REFERENCE_BATCHES:
        queries = rng.normal(size=(size, DIM))
        np.testing.assert_array_equal(
            batch_invariant_matmul(queries, stored.T),
            _reference_matmul(queries, stored.T))
        # a non-contiguous query view
        np.testing.assert_array_equal(
            batch_invariant_matmul(queries[:, 4:12], stored[:, 4:12].T),
            _reference_matmul(queries[:, 4:12], stored[:, 4:12].T))
