"""Seeded randomized stress test: multi-query search == stacked per-query.

The batch-invariance contract underpins both the serving layer's bitwise
guarantee and the grid runner's backend equivalence, so it gets an
adversarial workout here: random corpora and query batches across shapes
chosen to straddle the padded-matmul boundary (``QUERY_BLOCK == 8``),
``k`` at and beyond the index size, single-row indexes and duplicated
query rows — for all three index families.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.utils.rng import derive_rng
from repro.utils.vectorops import normalize_rows
from repro.vectorstore import FlatIndex, IVFIndex, PQIndex
from repro.vectorstore.factory import dump_index, load_index
from repro.vectorstore.metrics import QUERY_BLOCK, batch_invariant_matmul

DIM = 24
#: batch sizes straddling the QUERY_BLOCK=8 padding boundary
BATCH_SIZES = [1, QUERY_BLOCK - 1, QUERY_BLOCK, QUERY_BLOCK + 1,
               2 * QUERY_BLOCK, 2 * QUERY_BLOCK + 3]


def _build(family: str, vectors: np.ndarray):
    if family == "flat":
        index = FlatIndex(dim=DIM, metric="cosine")
        index.add(vectors)
        return index
    if family == "ivf":
        # full coverage probe: every list is visited, so the candidate
        # set (and thus the result) is shape-independent and exact
        n_lists = min(4, vectors.shape[0])
        index = IVFIndex(dim=DIM, metric="cosine",
                         n_lists=n_lists, nprobe=n_lists)
        index.add(vectors)
        index.train()
        return index
    if family == "pq":
        index = PQIndex(dim=DIM, m=4,
                        n_centroids=max(2, min(16, vectors.shape[0])))
        index.add(vectors)
        index.train()
        return index
    raise ValueError(family)


def _assert_batch_matches_stacked(index, queries: np.ndarray, k: int) -> None:
    batched = index.search(queries, k)
    assert len(batched) == queries.shape[0]
    for row, result in enumerate(batched):
        single = index.search_one(queries[row], k)
        np.testing.assert_array_equal(result.ids, single.ids,
                                      err_msg=f"row {row}, k={k}")
        np.testing.assert_array_equal(result.scores, single.scores,
                                      err_msg=f"row {row}, k={k}")


@pytest.mark.parametrize("family", ["flat", "ivf", "pq"])
@pytest.mark.parametrize("trial", range(3))
def test_random_batches_match_per_query(family, trial):
    rng = derive_rng("vectorstore-stress", family, trial)
    n_vectors = int(rng.integers(5, 40))
    vectors = rng.normal(size=(n_vectors, DIM))
    index = _build(family, vectors)

    for batch_size in BATCH_SIZES:
        queries = rng.normal(size=(batch_size, DIM))
        for k in (1, 3, n_vectors, n_vectors + 7):  # k >= index size too
            _assert_batch_matches_stacked(index, queries, k)


@pytest.mark.parametrize("family", ["flat", "ivf", "pq"])
def test_duplicate_queries_get_identical_rows(family):
    """The same vector must retrieve identically wherever it rides."""
    rng = derive_rng("vectorstore-stress", "duplicates", family)
    index = _build(family, rng.normal(size=(12, DIM)))
    base = rng.normal(size=(3, DIM))
    # each base query duplicated across block boundaries
    queries = np.vstack([base, base[::-1], base[1:], base])
    results = index.search(queries, 4)
    by_key = {}
    for row in range(queries.shape[0]):
        key = queries[row].tobytes()
        got = (results[row].ids.tolist(), results[row].scores.tobytes())
        assert by_key.setdefault(key, got) == got, f"row {row} diverged"


@pytest.mark.parametrize("family", ["flat", "ivf", "pq"])
def test_single_row_index(family):
    rng = derive_rng("vectorstore-stress", "single-row", family)
    index = _build(family, rng.normal(size=(1, DIM)))
    queries = rng.normal(size=(QUERY_BLOCK + 1, DIM))
    for k in (1, 5):  # k clamps to the one stored vector
        results = index.search(queries, k)
        assert all(len(result) == 1 for result in results)
        _assert_batch_matches_stacked(index, queries, k)


@pytest.mark.parametrize("family", ["flat", "ivf", "pq"])
def test_search_arrays_matches_search(family):
    rng = derive_rng("vectorstore-stress", "arrays", family)
    index = _build(family, rng.normal(size=(15, DIM)))
    queries = rng.normal(size=(QUERY_BLOCK + 3, DIM))
    scores, ids = index.search_arrays(queries, 4)
    assert scores.shape == ids.shape == (queries.shape[0], 4)
    for row, result in enumerate(index.search(queries, 4)):
        np.testing.assert_array_equal(ids[row], result.ids)
        np.testing.assert_array_equal(scores[row], result.scores)


# ----------------------------------------------------------------------
# prepared operands == the per-call formulas they replaced, bitwise
# ----------------------------------------------------------------------
# The indexes keep the metric's prepared form of their stored vectors
# (row-normalised matrix, squared norms, prepared PQ codebooks) instead
# of deriving it on every search.  The references below are the per-call
# formulas as they stood before that, kept here so that "same bits" is
# asserted against them and not against the code under test.
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


def _reference_l2(queries, vectors, clamp=True):
    dists = (np.sum(queries**2, axis=1, keepdims=True)
             - 2.0 * _reference_matmul(queries, vectors.T)
             + np.sum(vectors**2, axis=1)[None, :])
    return np.maximum(dists, 0.0) if clamp else dists


def _reference_scores(metric: str, queries, vectors) -> np.ndarray:
    if metric == "ip":
        return _reference_matmul(queries, vectors.T)
    if metric == "cosine":
        return _reference_matmul(normalize_rows(queries),
                                 normalize_rows(vectors).T)
    return _reference_l2(queries, vectors)


def _reference_candidates(index, family: str, metric: str, query: np.ndarray):
    """``(candidate_rows, scores)`` of one query by the naive algorithm."""
    vectors = index._vectors
    rows = np.arange(vectors.shape[0])
    if family == "ivf":
        centroid_dists = _reference_l2(query[None, :], index._centroids)[0]
        probes = np.argsort(centroid_dists, kind="stable")[:index.nprobe]
        probed = np.sort(np.concatenate(
            [index._list_rows[int(cluster)] for cluster in probes]))
        rows = probed if probed.size else rows
    if family == "pq":
        scores = np.zeros(vectors.shape[0])
        for sub in range(index.m):
            span = slice(sub * index.sub_dim, (sub + 1) * index.sub_dim)
            book = index._codebooks[sub]
            codes = np.argmin(_reference_l2(vectors[:, span], book,
                                            clamp=False), axis=1)
            lut = _reference_l2(query[None, span], book, clamp=False)[0]
            scores = scores + lut[codes]
        return rows, scores
    return rows, _reference_scores(metric, query[None, :], vectors[rows])[0]


def _assert_matches_reference(index, family, metric, queries, k) -> None:
    results = index.search(queries, k)   # (self-trains a reloaded IVF/PQ)
    widths = set()
    for row, result in enumerate(results):
        rows, scores = _reference_candidates(index, family, metric, queries[row])
        keys = -scores if index.metric.higher_is_better else scores
        best = np.argsort(keys, kind="stable")[:k]
        np.testing.assert_array_equal(result.scores, scores[best],
                                      err_msg=f"row {row}")
        # ids are pinned through their scores, which tolerates PQ's exact
        # ties (two vectors with equal codes) whichever way they break
        position = {int(index._ids[r]): i for i, r in enumerate(rows)}
        np.testing.assert_array_equal(
            scores[[position[int(i)] for i in result.ids]], result.scores)
        assert len(set(result.ids.tolist())) == len(result)
        widths.add(len(result))
    if len(widths) == 1:
        scores, ids = index.search_arrays(queries, k)
        np.testing.assert_array_equal(
            scores, np.stack([result.scores for result in results]))
        np.testing.assert_array_equal(
            ids, np.stack([result.ids for result in results]))
    else:
        with pytest.raises(ValueError, match="uniform result lengths"):
            index.search_arrays(queries, k)


def _build_metric(family: str, metric: str, vectors: np.ndarray):
    if family == "flat":
        index = FlatIndex(dim=DIM, metric=metric)
    elif family == "ivf":
        # a *partial* probe: candidate rows are gathered from the
        # prepared operand, which must equal preparing the gathered rows
        index = IVFIndex(dim=DIM, metric=metric, n_lists=4, nprobe=2)
    else:
        index = PQIndex(dim=DIM, m=4, n_centroids=16)
    index.add(vectors)
    if family != "flat":
        index.train()
    return index


#: PQ scores asymmetric L2 distances only
FAMILY_METRICS = [(family, metric) for family in ("flat", "ivf")
                  for metric in ("cosine", "ip", "l2")] + [("pq", "l2")]
REFERENCE_BATCHES = [1, QUERY_BLOCK - 1, QUERY_BLOCK, QUERY_BLOCK + 1, 33]


@pytest.mark.parametrize("family,metric", FAMILY_METRICS)
def test_prepared_operand_matches_per_call_formula(family, metric):
    rng = derive_rng("vectorstore-stress", "operand", family, metric)
    index = _build_metric(family, metric, rng.normal(size=(40, DIM)))
    batches = [rng.normal(size=(size, DIM)) for size in REFERENCE_BATCHES]

    def check(candidate):
        for queries in batches:
            for k in (1, 3, len(candidate) + 2):
                _assert_matches_reference(candidate, family, metric, queries, k)

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
    if family != "pq":   # dump_index covers the flat and IVF families
        payload = dump_index(index)
        assert set(json.loads(payload)) <= {
            "kind", "dim", "metric", "ids", "vectors", "n_lists", "nprobe"}
        check(load_index(payload))


def test_matmul_padding_block_matches_vstack_padding():
    """One zeroed block per ragged tail == the vstack it replaced."""
    rng = derive_rng("vectorstore-stress", "matmul")
    stored = rng.normal(size=(46, DIM))
    for size in REFERENCE_BATCHES:
        queries = rng.normal(size=(size, DIM))
        np.testing.assert_array_equal(
            batch_invariant_matmul(queries, stored.T),
            _reference_matmul(queries, stored.T))
        # a non-contiguous query view (PQ's per-sub-space slices)
        np.testing.assert_array_equal(
            batch_invariant_matmul(queries[:, 4:12], stored[:, 4:12].T),
            _reference_matmul(queries[:, 4:12], stored[:, 4:12].T))
