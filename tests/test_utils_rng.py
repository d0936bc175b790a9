"""Tests for repro.utils.rng."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.utils.rng import DEFAULT_ROOT_SEED, _pcg64_states, derive_rng

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
def test_pcg64_states_equal_default_rng_seeding(seeds):
    expected = [np.random.default_rng(seed).bit_generator.state["state"]
                for seed in seeds]
    assert _pcg64_states(seeds) == [(state["state"], state["inc"])
                                    for state in expected]
