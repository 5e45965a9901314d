import random

import pytest
from hypothesis import given, settings, strategies as st

from nmcode.core import GuardExceeded
from nmcode.tamper import (
    FLIP,
    KEEP,
    SET0,
    SET1,
    BitTamperFn,
    SplitStateTamperFn,
    enumerate_bit_tampers,
    random_tamper,
)
from split_state_oracle import random_split_tamper

actions_strategy = st.lists(st.integers(0, 3), min_size=1, max_size=12)


class TestBitTamperFn:
    def test_keep_flip_set_basics(self):
        x = 0b1010  # coordinates 0..3 hold 0, 1, 0, 1
        assert BitTamperFn.identity(4).apply_int(x) == x
        assert BitTamperFn.complement(4).apply_int(x) == 0b0101
        assert BitTamperFn([SET0] * 4).apply_int(x) == 0
        assert BitTamperFn([SET1] * 4).apply_int(x) == 0b1111

    def test_mixed_actions(self):
        f = BitTamperFn([KEEP, FLIP, SET0, SET1])  # action i acts on bit i
        assert f.apply_int(0b1111) == 0b1001
        assert f.apply_int(0b0000) == 0b1010

    def test_string_round_trip(self):
        f = BitTamperFn.from_str("KF01")
        assert f.actions == (KEEP, FLIP, SET0, SET1)
        assert f.to_str() == "KF01"

    @given(actions_strategy, st.integers(0, 4095))
    @settings(max_examples=50)
    def test_freeze_only_idempotent(self, actions, raw):
        frozen = [a if a in (SET0, SET1) else KEEP for a in actions]
        f = BitTamperFn(frozen)
        x = raw & ((1 << f.n) - 1)
        assert f.apply_int(f.apply_int(x)) == f.apply_int(x)

    @given(actions_strategy, st.integers(0, 4095))
    @settings(max_examples=50)
    def test_flip_only_involution(self, actions, raw):
        flips = [FLIP if a == FLIP else KEEP for a in actions]
        f = BitTamperFn(flips)
        x = raw & ((1 << f.n) - 1)
        assert f.apply_int(f.apply_int(x)) == x


class TestEnumeration:
    def test_single_bit_has_four_functions(self):
        fns = list(enumerate_bit_tampers(1))
        assert len(fns) == 4
        assert {f.to_str() for f in fns} == {"K", "F", "0", "1"}

    def test_two_bits_counts(self):
        fns = list(enumerate_bit_tampers(2))
        assert len(fns) == 16
        assert sum(set(f.actions) <= {SET0, SET1} for f in fns) == 4
        assert sum(f.is_identity() for f in fns) == 1

    def test_total_count_matches_family_size(self):
        assert sum(1 for _ in enumerate_bit_tampers(3)) == 4**3

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            list(enumerate_bit_tampers(12))


class TestRandomTamper:
    def test_pure_keep_profile_is_identity(self):
        f = random_tamper(8, (1.0, 0.0, 0.0), random.Random(0))
        assert f.is_identity()

    def test_pure_set_profile_is_constant(self):
        rng = random.Random(1)
        f = random_tamper(8, (0.0, 0.0, 1.0), rng)
        assert set(f.actions) <= {SET0, SET1}
        g = random_tamper(8, (0.0, 0.0, 1.0), rng)
        # Frozen values are profile-dependent random draws.
        assert f.apply_int(0) != g.apply_int(0) or f.apply_int(255) != g.apply_int(255)

    def test_profile_must_sum_to_one(self):
        with pytest.raises(ValueError):
            random_tamper(4, (0.5, 0.1, 0.1), random.Random(0))


class TestSplitState:
    def test_apply_uses_low_half_first(self):
        f1 = [(x + 1) % 4 for x in range(4)]
        f2 = list(range(4))
        f = SplitStateTamperFn(f1, f2)
        assert f.n == 4
        # Word 0b01_10: low half 2 -> 3, high half 1 -> 1.
        assert f.apply_int(0b0110) == (3 | (1 << 2))

    def test_random_fixed_point_free_sampler(self):
        f = random_split_tamper(8, True, random.Random(2))
        assert all(f.f1[x] != x for x in range(16))
        assert all(f.f2[x] != x for x in range(16))

    def test_empty_halves_have_no_fixed_point_free_table(self):
        # At n = 0 each half table has one entry, whose only value is 0.
        with pytest.raises(ValueError):
            random_split_tamper(0, True, random.Random(1))
        f = random_split_tamper(0, False, random.Random(1))
        assert f.n == 0 and f.f1.tolist() == f.f2.tolist() == [0]

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            SplitStateTamperFn([0] * (1 << 21), [0] * (1 << 21))

