"""Tests for repro.utils.rng."""

import threading
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.utils import rng as rng_module
from repro.utils.rng import (
    _BULK_MIN,
    DEFAULT_ROOT_SEED,
    _seed_words,
    derive_rng,
    prefetched,
)

#: tier-1 replays a fixed search; ``--hypothesis-profile=chaos`` (``make
#: test-chaos``) draws fresh seeds every run, against whichever numpy is
#: installed
_SEED_SEARCH = (settings(max_examples=2000)
                if settings.get_current_profile_name() == "chaos"
                else settings(derandomize=True, max_examples=100, deadline=None))


class TestDeriveRng:
    def test_same_stream_same_sequence(self):
        a = derive_rng("llm", "llama", 3).standard_normal(8)
        b = derive_rng("llm", "llama", 3).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_different_streams_differ(self):
        a = derive_rng("llm", "llama", 3).standard_normal(8)
        b = derive_rng("llm", "llama", 4).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_root_seed_changes_sequence(self):
        a = derive_rng("s", root_seed=1).standard_normal(4)
        b = derive_rng("s", root_seed=2).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_default_root_seed_is_documented_constant(self):
        a = derive_rng("s").standard_normal(4)
        b = derive_rng("s", root_seed=DEFAULT_ROOT_SEED).standard_normal(4)
        np.testing.assert_array_equal(a, b)


@_SEED_SEARCH
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@example([0, 2**32 - 1, 2**32, 2**64 - 1])
@example([1, 2**31, 2**63, 2**64 - 2**32])
def test_seed_words_equal_seed_sequence(seeds):
    words = _seed_words(seeds)
    assert words.flags.c_contiguous
    np.testing.assert_array_equal(words, [
        np.random.SeedSequence(seed).generate_state(4, np.uint64)
        for seed in seeds])


#: stream parts as the simulator builds them: few enough distinct values
#: that lists repeat names, and ints that compare equal to bools
_STREAMS = st.lists(
    st.tuples(st.sampled_from(["llm", "hw-jitter", "tool-exec"]),
              st.sampled_from(["q1", "q2", 0, 1, 2, True]),
              st.integers(0, 12)),
    max_size=3 * _BULK_MIN)


def _name(*stream) -> tuple:
    """The name ``prefetched`` takes for ``derive_rng(*stream)``."""
    return (DEFAULT_ROOT_SEED, *stream)


def _table() -> dict | None:
    return getattr(rng_module._prefetch, "table", None)


def _typed(name: tuple) -> tuple:
    return name, tuple(map(type, name))


def _draws(rng: np.random.Generator) -> list:
    return [rng.standard_normal(64), rng.random(64),
            rng.integers(0, 2**62, 64), rng.lognormal(0.0, 0.35, 64)]


@_SEED_SEARCH
@given(_STREAMS, st.booleans(), st.booleans())
@example([("llm", "q1", step) for step in range(_BULK_MIN - 1)], False, False)
@example([("llm", "q1", step) for step in range(_BULK_MIN)] * 2, False, True)
@example([("llm", 1, 0), ("llm", True, 0)]
         + [("llm", "q2", step) for step in range(_BULK_MIN)], True, True)
def test_prefetched_streams_equal_derive_rng(streams, reverse, raises):
    """Inside ``prefetched`` every stream draws what ``derive_rng`` alone
    draws, in whichever order they are asked for; a generator is handed
    out at most once (a repeated name gets a fresh one) and the table is
    gone on exit, even when the body raises."""
    names = [_name(*stream) for stream in streams]
    # what is left to hand out: a name with its parts' types (1 == True
    # as a tuple, but not as a seed)
    left = {_typed(name) for name in names}
    if len(left) < _BULK_MIN:
        left.clear()
    asked = streams[::-1] if reverse else streams
    handed = []
    with pytest.raises(RuntimeError) if raises else nullcontext():
        with prefetched(names):
            handed = [derive_rng(*stream) for stream in asked]
            if raises:
                raise RuntimeError
    assert _table() is None
    assert len({id(rng) for rng in handed}) == len(handed)
    for stream, rng in zip(asked, handed):
        bulk_seeded = _typed(_name(*stream)) in left
        left.discard(_typed(_name(*stream)))
        assert isinstance(rng.bit_generator.seed_seq,
                          rng_module._Words) is bulk_seeded
        for got, want in zip(_draws(rng), _draws(derive_rng(*stream))):
            np.testing.assert_array_equal(got, want)


def _names(tag: str) -> list[tuple]:
    return [_name(tag, index) for index in range(_BULK_MIN)]


def test_nested_prefetch_restores_the_outer_table():
    with prefetched(_names("outer")):
        outer = _table()
        with prefetched(_names("inner")):
            assert _table().keys() == {
                _typed(name) for name in _names("inner")}
        assert _table() is outer
        # below the threshold a nested block leaves the outer table live
        with prefetched(_names("small")[:_BULK_MIN - 1]):
            rng = derive_rng("outer", 0)
        assert isinstance(rng.bit_generator.seed_seq, rng_module._Words)
    assert _table() is None


def test_a_second_thread_never_sees_the_table():
    seen = []

    def other():
        seen.append((_table(),
                     type(derive_rng("t", 0).bit_generator.seed_seq)))

    with prefetched(_names("t")):
        thread = threading.Thread(target=other)
        thread.start()
        thread.join()
        assert len(_table()) == _BULK_MIN
    assert seen == [(None, np.random.SeedSequence)]
