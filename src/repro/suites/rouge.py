"""ROUGE-L similarity score.

The paper measures augmented-query quality "based on a similarity score
(i.e., ROUGE score following [12], [38])".  This module implements the
ROUGE-L F-measure over word tokens.  The longest common subsequence is
the Allison–Dix/Hyyrö bit-parallel scan: one big-int bitmask per
distinct token of the reference, so it costs O(|a|·⌈|b|/w⌉) big-int
operations on w-bit machine words.
"""

from __future__ import annotations

from repro.embedding.tokenizer import split_words


def _f_measure(matches: int, candidate_len: int, reference_len: int) -> float:
    if candidate_len == 0 or reference_len == 0 or matches == 0:
        return 0.0
    precision = matches / candidate_len
    recall = matches / reference_len
    return 2.0 * precision * recall / (precision + recall)


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence of ``a`` and ``b``.

    ``v`` is the dynamic programme's current row in difference form:
    bit ``j`` is 0 where the row steps up by one at ``b[j]``, so the
    LCS is the number of zero bits.  One token of ``a`` updates the
    whole row with one addition's carries.
    """
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        u = v & masks.get(token, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: str, reference: str) -> float:
    """Longest-common-subsequence ROUGE-L F-measure in [0, 1]."""
    cand = split_words(candidate)
    ref = split_words(reference)
    return _f_measure(_lcs_length(cand, ref), len(cand), len(ref))
