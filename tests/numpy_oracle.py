"""The plain numpy forms of the request path's small kernels: the oracles
their direct rewrites are checked against, bit for bit.

Each function is the code the shipped kernel replaced, kept whole:
``np.unique`` row counting for
:func:`repro.embedding.sentence.count_rows`, ``np.linalg.norm`` row
normalization for :func:`repro.utils.vectorops.normalize_rows`, and the
``np.take_along_axis`` ranking for
:meth:`repro.vectorstore.VectorIndex._rank_batch`.
"""

from __future__ import annotations

from itertools import chain

import numpy as np


def count_rows(flats: list[list[int]], stride: int
               ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """One ``np.unique`` over the call's ``(document, row)`` keys sorts
    each document's rows and counts them."""
    n_docs = len(flats)
    lengths = [len(flat) for flat in flats]
    occurrences = np.fromiter(chain.from_iterable(flats), dtype=np.intp,
                              count=sum(lengths))
    if n_docs > 1:
        occurrences += np.repeat(np.arange(0, n_docs * stride, stride), lengths)
    rows, counts = np.unique(occurrences, return_counts=True)
    bounds = [0, len(rows)]
    if n_docs > 1:
        owners, rows = np.divmod(rows, stride)
        bounds = np.searchsorted(owners, np.arange(n_docs + 1)).tolist()
    return rows, counts, bounds


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Unit-norm rows through ``np.linalg.norm``, zero rows kept zero."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


def rank_batch(score_matrix: np.ndarray, k: int,
               ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top-``k`` ``(scores, ids)`` per row through ``np.take_along_axis``."""
    keys = -score_matrix
    if k < score_matrix.shape[1]:
        block = np.argpartition(keys, k - 1, axis=1)[:, :k]
        block_keys = np.take_along_axis(keys, block, axis=1)
        order = np.argsort(block_keys, axis=1, kind="stable")
        top = np.take_along_axis(block, order, axis=1)
    else:
        top = np.argsort(keys, axis=1, kind="stable")
    return np.take_along_axis(score_matrix, top, axis=1), ids[top]
