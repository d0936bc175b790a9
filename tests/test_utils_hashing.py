"""Tests for repro.utils.hashing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.hashing import stable_hash64, stable_hash_bytes
from repro.utils.rng import DEFAULT_ROOT_SEED

#: ``(parts, stable_hash64, stable_hash_bytes hex)``, written once and
#: never recomputed: every part type, mixed in one key, and the key shapes
#: the simulator seeds from — ``DirectionBank._draw`` hashes
#: ``(namespace, dim, family, feature)`` and ``SimulatedLLM._rng`` hashes
#: ``(root_seed, "llm", model, quant, qid, ...)``
PINNED = [
    (("repro",), 8741490207811221451, "cbb7249407035079c2a6d42bf4c56548"),
    (("café ✓",), 8622038009957789604, "a42f7377e3a1a777174b67070b48da56"),
    ((-1,), 4192241684853846328, "38714cd699d52d3a124c94a3f20cf73d"),
    ((-(2**70),), 1676267202099198571, "6bbac299234c43174e66889619a372ef"),
    ((2.5,), 15335044039469855153, "b171922b4e05d1d4b1894847b937c1cb"),
    ((-0.0,), 16129298764419832334, "0e1a6401c5c7d6df7217eb3d54d791c1"),
    ((True,), 13783146622011914606, "6e392594d39247bf69376397eea3d62f"),
    ((False,), 2043294116827077144, "189a1f652c3d5b1ccb285c07a1c8a0ef"),
    ((b"\x00raw\xff",), 11549332932647310795, "cbd5297b1c7947a0efe548b30d8cdd06"),
    (("tenant", -3, 2.5, True, b"\x00raw", "naïve ☂"),
     5914976832742766782, "be384c2a17381652975ccee42d25ba15"),
    (("mpnet-substitute", 768, "token", "plot"),
     11507368867760792587, "0b64453e0463b29f95b2d4444a41c78a"),
    (("mpnet-substitute", 768, "bigram", "plot caption"),
     11965538616008441142, "36fd66a1f9210ea6cd9554fd14cf70e4"),
    ((DEFAULT_ROOT_SEED, "llm", "hermes2-pro-8b", "q4_K_M", "bfcl-0001", "recommend"),
     14051080349377799837, "9da622c72177ffc2bd63a20e888ad90e"),
    ((DEFAULT_ROOT_SEED, "llm", "hermes2-pro-8b", "q4_K_M", "bfcl-0001",
      "step", 0, "attempt", 1),
     5379062583048453850, "dabe3277eb44a64ac0f1912365d02775"),
]


class TestStableHashBytes:
    def test_digest_is_16_bytes(self):
        assert len(stable_hash_bytes("a")) == 16

    def test_same_input_same_digest(self):
        assert stable_hash_bytes("x", 1, 2.5) == stable_hash_bytes("x", 1, 2.5)

    def test_length_delimiting_prevents_concatenation_collisions(self):
        assert stable_hash_bytes("ab", "c") != stable_hash_bytes("a", "bc")

    def test_type_distinction_int_vs_str(self):
        assert stable_hash_bytes(1) != stable_hash_bytes("1")

    def test_bool_vs_int(self):
        assert stable_hash_bytes(True) != stable_hash_bytes(1)

    def test_bytes_accepted(self):
        assert stable_hash_bytes(b"raw") == stable_hash_bytes(b"raw")

    def test_unhashable_type_raises(self):
        with pytest.raises(TypeError):
            stable_hash_bytes(["list"])  # type: ignore[arg-type]


class TestStableHash64:
    def test_known_stability_across_runs(self):
        # Pinned values: any change to the derivation breaks reproducibility
        # of every seeded experiment, so it must be intentional.
        for parts, value, digest in PINNED:
            assert stable_hash64(*parts) == value, parts
            assert stable_hash_bytes(*parts).hex() == digest, parts

    def test_range_is_uint64(self):
        for part in ("a", "b", 12, -3, 2.5):
            value = stable_hash64(part)
            assert 0 <= value < 2**64

    @given(st.text(), st.text())
    def test_distinct_texts_rarely_collide(self, a, b):
        if a != b:
            assert stable_hash64(a) != stable_hash64(b)

    @given(st.integers(min_value=-(2**60), max_value=2**60))
    def test_integer_round_trip_determinism(self, value):
        assert stable_hash64(value) == stable_hash64(value)

    def test_negative_integers_supported(self):
        assert stable_hash64(-1) != stable_hash64(1)
