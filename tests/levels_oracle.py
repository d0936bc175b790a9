"""The historical Search-Level kernels: the oracles of the shipped ones.

:func:`lcs_length` is the quadratic ROUGE-L dynamic programme that
:func:`repro.suites.rouge._lcs_length` replaced with a bit-parallel scan;
:func:`merges` is the per-merge Python slot scan that
:meth:`repro.clustering.AgglomerativeClustering.build_dendrogram`
replaced with a live-slot mask.  Both must agree with the shipped
kernels exactly: the same integer, the same merge list.  :func:`rouge_1`
is the unigram F-measure that bounds ROUGE-L from above, and
:func:`levels_digest` fingerprints a built
:class:`~repro.core.levels.SearchLevels`.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

from repro.clustering.agglomerative import Merge, _lance_williams
from repro.clustering.distances import pairwise_distances
from repro.embedding.tokenizer import split_words
from repro.suites.rouge import _f_measure


def lcs_length(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence (O(len(a)*len(b)))."""
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for token_a in a:
        current = [0]
        for j, token_b in enumerate(b, start=1):
            if token_a == token_b:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[-1]))
        previous = current
    return previous[-1]


def rouge_1(candidate: str, reference: str) -> float:
    """Unigram-overlap ROUGE-1 F-measure in [0, 1]."""
    cand = Counter(split_words(candidate))
    ref = Counter(split_words(reference))
    matches = sum((cand & ref).values())
    return _f_measure(matches, sum(cand.values()), sum(ref.values()))


def merges(vectors: np.ndarray, linkage: str, metric: str = "euclidean") -> list[Merge]:
    """The full merge sequence, one Python slot scan per merge."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    n = vectors.shape[0]
    dist = pairwise_distances(vectors, metric=metric)
    out: list[Merge] = []
    active: dict[int, int] = {i: 1 for i in range(n)}  # cluster id -> size
    slot_of: dict[int, int] = {i: i for i in range(n)}  # slot -> cluster id
    np.fill_diagonal(dist, np.inf)

    next_id = n
    for _ in range(n - 1):
        flat = np.argmin(dist)
        row, col = np.unravel_index(flat, dist.shape)
        if row > col:
            row, col = col, row
        d_ij = float(dist[row, col])
        left_id, right_id = slot_of[row], slot_of[col]
        n_i, n_j = active[left_id], active[right_id]

        others = [slot for slot in range(dist.shape[0])
                  if slot not in (row, col) and slot in slot_of]
        if others:
            other_idx = np.asarray(others)
            n_k = np.asarray([active[slot_of[slot]] for slot in others], dtype=float)
            merged = _lance_williams(
                linkage, dist[row, other_idx], dist[col, other_idx],
                d_ij, n_i, n_j, n_k,
            )
            dist[row, other_idx] = merged
            dist[other_idx, row] = merged
        dist[col, :] = np.inf
        dist[:, col] = np.inf
        dist[row, row] = np.inf
        del slot_of[col]
        del active[left_id]
        del active[right_id]
        slot_of[row] = next_id
        active[next_id] = n_i + n_j
        out.append(Merge(left_id, right_id, d_ij, n_i + n_j))
        next_id += 1
    return out


def levels_digest(levels) -> str:
    """sha256 over the cluster tool tuples and both indexes' vector bytes."""
    digest = hashlib.sha256()
    for cluster in levels.clusters:
        digest.update(repr((cluster.cluster_id, cluster.tools, cluster.n_samples)).encode())
    for index in (levels.tool_index, levels.cluster_index):
        digest.update(index.ids.tobytes())
        for vector_id in index.ids:
            digest.update(np.ascontiguousarray(index.reconstruct(int(vector_id))).tobytes())
    return digest.hexdigest()
