"""Shared dense-vector helpers: zero-safe row normalization, blending.

Several layers (the sentence embedder, the retrieval pipeline, clustering
distances, vector-index metrics) need the same "L2-normalize but leave
all-zero rows untouched" guard.  Keeping one implementation here makes the
semantics identical everywhere: a zero row has no direction, so it stays a
zero row instead of becoming NaN.
"""

from __future__ import annotations

import numpy as np


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Return ``matrix`` with unit-norm rows (zero rows preserved as zero).

    The norms are the reduction ``np.linalg.norm(matrix, axis=1)`` runs
    for a real matrix, without its dispatch: bit for bit the same.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim < 2:
        matrix = matrix.reshape(1, -1)
    norms = np.sqrt(np.add.reduce(matrix * matrix, axis=1, keepdims=True))
    # a zero row has no direction: dividing by 1.0 keeps it zero, not NaN
    norms[norms == 0.0] = 1.0
    return matrix / norms


def blend_and_normalize(vectors: np.ndarray, context: np.ndarray,
                        weight: float = 0.75,
                        rowwise_context: bool = False) -> np.ndarray:
    """Convex blend of each row with a context vector, re-normalized.

    This is the paper Section III-B step where recommended tool
    descriptions are embedded "alongside the corresponding user task": the
    description keeps ``weight`` of the mass so it still dominates the
    match, while the task context disambiguates multi-tool workflows.

    With ``rowwise_context`` the context is an ``(n, dim)`` matrix giving
    each row its own context vector — used by the batched planner to
    blend many requests' description rows (each against its own query) in
    one pass.  All operations are row-wise, so the result is bitwise
    equal to per-request calls with the shared-vector form.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must be in [0, 1], got {weight}")
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    context = np.asarray(context, dtype=float)
    if not rowwise_context:
        context = context[None, :]
    elif context.shape != vectors.shape:
        raise ValueError(
            f"rowwise context shape {context.shape} must match vectors "
            f"shape {vectors.shape}")
    blended = weight * vectors + (1.0 - weight) * context
    return normalize_rows(blended)
