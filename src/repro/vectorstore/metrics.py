"""Similarity/distance metrics shared by the vector indexes.

All metrics compute the query/vector cross product through
:func:`batch_invariant_matmul`, which evaluates the gemm in fixed-size
padded row blocks.  BLAS picks different blocking (and therefore a
different float summation order) depending on the matrix shapes, so a
plain ``queries @ vectors.T`` gives *bitwise different* scores for the
same query depending on how many other queries share the batch.  A
serving gateway that coalesces concurrent requests into one search call
would then return timing-dependent results.  Fixing the gemm shape makes
every query's scores identical no matter which batch it rides in, at the
cost of padding tiny batches up to :data:`QUERY_BLOCK` rows (~50us, well
under one per-query search).

A metric is a ``prepare`` / ``score_prepared`` pair: whatever depends on
the stored vectors alone (row normalisation, squared norms, the layout
the gemm reads) is computed once by the index that owns them, so a
search pays only for its queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.utils.vectorops import normalize_rows

#: Row-block size of the fixed-shape gemm.  Every block is padded to
#: exactly this many rows, so each query row is computed by an
#: identical-shape kernel regardless of batch composition.  8 balances
#: the padding waste a single-query search pays (8x rows) against the
#: Python-level block loop a large stacked batch pays (n/8 gemm calls);
#: both ends measured within ~25% of their unpadded cost.
QUERY_BLOCK = 8


def batch_invariant_matmul(queries: np.ndarray, vectors_t: np.ndarray) -> np.ndarray:
    """``queries @ vectors_t`` with batch-composition-invariant rows.

    The query rows are processed in blocks of exactly
    :data:`QUERY_BLOCK` rows (zero-padded), so the per-row result is
    bitwise identical whether a query is scored alone or stacked with
    hundreds of others — the property the micro-batching scheduler
    relies on for served results to equal sequential ones.
    """
    n_queries = queries.shape[0]
    if n_queries == 0:
        return np.zeros((0, vectors_t.shape[1]))
    blocks = []
    for start in range(0, n_queries, QUERY_BLOCK):
        chunk = queries[start:start + QUERY_BLOCK]
        rows = chunk.shape[0]
        if rows < QUERY_BLOCK:
            padded = np.zeros((QUERY_BLOCK, chunk.shape[1]))
            padded[:rows] = chunk
            blocks.append((padded @ vectors_t)[:rows])
        else:
            blocks.append(chunk @ vectors_t)
    if len(blocks) == 1:
        return blocks[0]
    return np.vstack(blocks)


class PreparedVectors(NamedTuple):
    """A metric's precomputed form of a set of stored vectors.

    Everything about the stored side that a search would otherwise
    recompute per call: ``matrix`` is the C-contiguous ``(n, d)`` array
    whose ``.T`` view the gemm consumes (row-normalised for cosine),
    ``sq_norms`` the squared row norms L2 adds back (``None`` for the
    similarities).
    """

    matrix: np.ndarray
    sq_norms: np.ndarray | None = None


@dataclass(frozen=True)
class Metric:
    """A scoring function between a query batch and stored vectors.

    Attributes
    ----------
    name:
        Identifier an index is constructed with (``metric="cosine"``).
    higher_is_better:
        True for similarities (inner product, cosine), False for
        distances (L2).
    prepare:
        ``prepare(vectors (n,d)) -> PreparedVectors``; an index calls it
        when its stored vectors change, never per search.
    score_prepared:
        ``score_prepared(queries (q,d), prepared) -> (q,n)`` array.
    """

    name: str
    higher_is_better: bool
    prepare: Callable[[np.ndarray], PreparedVectors]
    score_prepared: Callable[[np.ndarray, PreparedVectors], np.ndarray]


def _prepare_raw(vectors: np.ndarray) -> PreparedVectors:
    return PreparedVectors(np.ascontiguousarray(vectors, dtype=float))


def _prepare_unit(vectors: np.ndarray) -> PreparedVectors:
    return PreparedVectors(normalize_rows(vectors))


def _prepare_l2(vectors: np.ndarray) -> PreparedVectors:
    matrix = np.ascontiguousarray(vectors, dtype=float)
    return PreparedVectors(matrix, np.sum(matrix**2, axis=1))


def _inner_product(queries: np.ndarray, prepared: PreparedVectors) -> np.ndarray:
    return batch_invariant_matmul(queries, prepared.matrix.T)


def _cosine(queries: np.ndarray, prepared: PreparedVectors) -> np.ndarray:
    return batch_invariant_matmul(normalize_rows(queries), prepared.matrix.T)


def _squared_l2(queries: np.ndarray, prepared: PreparedVectors) -> np.ndarray:
    """``||q||^2 - 2 q.v + ||v||^2`` without a ``(q,n,d)`` blow-up.

    Rounding can leave a tiny negative where ``q == v``; clamp those.
    """
    q_sq = np.sum(queries**2, axis=1, keepdims=True)
    cross = batch_invariant_matmul(queries, prepared.matrix.T)
    dists = q_sq - 2.0 * cross + prepared.sq_norms[None, :]
    np.maximum(dists, 0.0, out=dists)
    return dists


METRICS: dict[str, Metric] = {
    "ip": Metric("ip", True, _prepare_raw, _inner_product),
    "cosine": Metric("cosine", True, _prepare_unit, _cosine),
    "l2": Metric("l2", False, _prepare_l2, _squared_l2),
}


def get_metric(name: str | Metric) -> Metric:
    """Resolve a metric by name, passing :class:`Metric` through."""
    if isinstance(name, Metric):
        return name
    try:
        return METRICS[name]
    except KeyError:
        raise ValueError(f"unknown metric {name!r}; choose from {sorted(METRICS)}") from None
