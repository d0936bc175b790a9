"""The Search-Level kernels against their historical oracles.

The bit-parallel ROUGE-L LCS and the mask-driven merge loop must give
exactly what the quadratic Python versions in ``levels_oracle.py`` gave:
the same integer and the same merge list, distances bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst
from levels_oracle import lcs_length, merges

from repro.clustering import AgglomerativeClustering
from repro.suites.rouge import _lcs_length

#: tier-1 replays a fixed search; ``--hypothesis-profile=chaos`` (``make
#: test-chaos``) draws fresh, longer searches every run
_CHAOS = settings.get_current_profile_name() == "chaos"
_LCS_SEARCH = (settings(max_examples=3000) if _CHAOS
               else settings(derandomize=True, max_examples=200, deadline=None))
_MERGE_SEARCH = (settings(max_examples=400) if _CHAOS
                 else settings(derandomize=True, max_examples=40, deadline=None))

LINKAGES = ("single", "complete", "average", "ward")

#: few distinct tokens, so sequences repeat tokens and share long runs
TOKENS = st.lists(st.sampled_from("a b c d e the of to".split()), max_size=150)


@given(TOKENS, TOKENS)
@example([], [])
@example(["a", "b"], [])
@example([], ["a", "b"])
@example(["a"] * 70, ["a"] * 65)
@example(["a", "b"] * 40, ["b", "a"] * 45)
@_LCS_SEARCH
def test_bit_parallel_lcs_matches_the_dynamic_programme(a, b):
    assert _lcs_length(a, b) == lcs_length(a, b)


@pytest.mark.parametrize("width", [1, 63, 64, 65, 128, 200])
def test_lcs_across_word_boundaries(width):
    b = [f"t{j % 7}" for j in range(width)]
    a = list(reversed(b)) + b[::3]
    assert _lcs_length(a, b) == lcs_length(a, b)
    assert _lcs_length(b, b) == width


def _with_duplicates(parts):
    """The points, then copies of some of them (picked modulo n)."""
    vectors, picks = parts
    return np.vstack([vectors, vectors[np.asarray(picks) % len(vectors)]])


POINTS = npst.arrays(
    np.float64, st.tuples(st.integers(1, 40), st.integers(1, 6)),
    elements=st.floats(-10, 10, allow_subnormal=False))
#: integer-valued points with repeated rows: exact ties and zero distances
TIED_POINTS = st.tuples(
    npst.arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 3)),
                elements=st.integers(-2, 2).map(float)),
    st.lists(st.integers(0, 100), min_size=1, max_size=20),
).map(_with_duplicates)


def _assert_same_merges(vectors, linkage, metric):
    got = AgglomerativeClustering(
        n_clusters=1, linkage=linkage, metric=metric).build_dendrogram(vectors).merges
    want = merges(vectors, linkage, metric)
    assert [(m.left, m.right, m.size) for m in got] == \
        [(m.left, m.right, m.size) for m in want]
    # bitwise, NaN included (a rounding ward update can go negative)
    assert np.array([m.distance for m in got]).tobytes() == \
        np.array([m.distance for m in want]).tobytes()


@pytest.mark.parametrize("linkage", LINKAGES)
@given(vectors=st.one_of(POINTS, TIED_POINTS), cosine=st.booleans())
@_MERGE_SEARCH
def test_merge_loop_matches_the_slot_scan(linkage, vectors, cosine):
    metric = "cosine" if cosine and linkage != "ward" else "euclidean"
    _assert_same_merges(vectors, linkage, metric)


@pytest.mark.parametrize("linkage", LINKAGES)
def test_merge_loop_on_a_level_sized_sample(linkage):
    vectors = np.random.default_rng(5).standard_normal((120, 16))
    _assert_same_merges(vectors, linkage, "euclidean")
