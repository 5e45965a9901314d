import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nmcode.core import (
    BOTTOM,
    SAME,
    BitWord,
    FiniteDist,
    GuardExceeded,
    PropertyReport,
    RngSeed,
    confidence_radius,
    copy_symbol,
    hamming_ball_volume,
    hamming_distance,
    push_copy,
    statistical_distance,
    uniform_distance,
    worst_marginal,
)


def bw(s):
    return BitWord.from_str(s)


class TestBitWord:
    def test_indexing_is_lsb_first(self):
        w = bw("0110")
        assert len(w) == 4
        assert [w[i] for i in range(4)] == [0, 1, 1, 0]
        assert w.value == 0b0110

    def test_restriction_preserves_index_order(self):
        w = bw("10110")
        assert w.restrict([4, 0, 2]).to01() == "011"
        assert w.restrict([2, 4, 0]).to01() == "101"

    def test_concat_puts_self_first(self):
        assert bw("10").concat(bw("011")).to01() == "10011"

    def test_value_must_fit(self):
        with pytest.raises(ValueError):
            BitWord(4, 2)

    def test_xor_and_flip(self):
        assert (bw("0101") ^ bw("0110")).to01() == "0011"
        assert bw("0000").flip(2).to01() == "0010"
        with pytest.raises(ValueError):
            bw("01") ^ bw("011")

    def test_hashable_and_eq(self):
        assert bw("01") == BitWord(2, 2)
        assert bw("01") != BitWord(2, 3)
        assert len({bw("01"), BitWord(2, 2)}) == 1

    def test_hex_round_trip(self):
        w = bw("1011001")
        assert BitWord(int(w.to_hex(), 16), 7) == w


class TestHamming:
    def test_examples(self):
        assert hamming_distance(bw("0101"), bw("0101")) == 0
        assert hamming_distance(bw("0000"), bw("1111")) == 4
        assert hamming_distance(bw("0101"), bw("0110")) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(bw("01"), bw("011"))

    def test_ball_volume(self):
        assert hamming_ball_volume(10, 0) == 1
        assert hamming_ball_volume(10, 1) == 11
        assert hamming_ball_volume(4, 4) == 16

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_triangle_inequality(self, a, b, c):
        x, y, z = BitWord(a, 8), BitWord(b, 8), BitWord(c, 8)
        assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)


class TestCopySymbol:
    def test_same_resolves_to_second(self):
        s = bw("101")
        assert copy_symbol(SAME, s) == s

    def test_non_same_passes_through(self):
        s = bw("101")
        assert copy_symbol(BOTTOM, s) is BOTTOM
        other = bw("010")
        assert copy_symbol(other, s) == other

    def test_second_argument_may_not_be_same(self):
        with pytest.raises(ValueError):
            copy_symbol(BOTTOM, SAME)


def dist(mapping, **kw):
    return FiniteDist(mapping, **kw)


class TestStatisticalDistance:
    def test_identity_is_zero(self):
        p = dist({bw("01"): Fraction(1, 3), BOTTOM: Fraction(2, 3)})
        assert statistical_distance(p, p) == 0

    def test_disjoint_point_masses(self):
        p = FiniteDist.point_mass(BOTTOM)
        q = FiniteDist.point_mass(SAME)
        assert statistical_distance(p, q) == 1

    def test_hand_computed_half_l1(self):
        p = dist({bw("0"): Fraction(3, 4), bw("1"): Fraction(1, 4)})
        q = FiniteDist.uniform_messages(1)
        assert statistical_distance(p, q) == Fraction(1, 4)

    def test_mismatched_universes_error(self):
        p = FiniteDist.point_mass(bw("0"))
        q = FiniteDist.point_mass(bw("00"))
        with pytest.raises(ValueError):
            statistical_distance(p, q)

    @staticmethod
    def _random_dist(rng_draw):
        syms = [bw("00"), bw("01"), bw("10"), BOTTOM, SAME]
        weights = [Fraction(w) for w in rng_draw]
        total = sum(weights)
        if total == 0:
            weights[0] = Fraction(1)
            total = Fraction(1)
        return FiniteDist({s: w / total for s, w in zip(syms, weights)})

    @given(
        st.lists(st.integers(0, 10), min_size=5, max_size=5),
        st.lists(st.integers(0, 10), min_size=5, max_size=5),
        st.lists(st.integers(0, 10), min_size=5, max_size=5),
    )
    @settings(max_examples=60)
    def test_metric_axioms(self, wa, wb, wc):
        p, q, r = (self._random_dist(w) for w in (wa, wb, wc))
        assert statistical_distance(p, q) == statistical_distance(q, p)
        assert statistical_distance(p, q) <= (
            statistical_distance(p, r) + statistical_distance(r, q)
        )
        if statistical_distance(p, q) == 0:
            assert p == q
        assert 0 <= statistical_distance(p, q) <= 1


class TestPushCopy:
    def test_point_mass_on_same(self):
        s = bw("11")
        assert push_copy(FiniteDist.point_mass(SAME), s) == FiniteDist.point_mass(s)

    def test_mass_transfer(self):
        s = bw("10")
        d = dist({SAME: Fraction(1, 2), BOTTOM: Fraction(1, 2)})
        out = push_copy(d, s)
        assert out.prob(s) == Fraction(1, 2)
        assert out.prob(BOTTOM) == Fraction(1, 2)
        assert out.prob(SAME) == 0

    def test_no_same_mass_is_identity(self):
        d = dist({bw("10"): Fraction(1, 4), BOTTOM: Fraction(3, 4)})
        assert push_copy(d, bw("01")) == d

    @given(st.lists(st.integers(0, 10), min_size=5, max_size=5))
    @settings(max_examples=40)
    def test_total_mass_preserved_and_no_same(self, w):
        d = TestStatisticalDistance._random_dist(w)
        out = push_copy(d, bw("01"))
        assert out.total() == 1
        assert out.prob(SAME) == 0

    @given(st.lists(st.integers(0, 10), min_size=5, max_size=5))
    @settings(max_examples=40)
    def test_two_pushes_differ_only_on_targets(self, w):
        d = TestStatisticalDistance._random_dist(w)
        s, s2 = bw("01"), bw("10")
        a, b = push_copy(d, s), push_copy(d, s2)
        assert statistical_distance(a, b) == d.prob(SAME)
        for sym in set(a.support()) | set(b.support()):
            if sym not in (s, s2):
                assert a.prob(sym) == b.prob(sym)


class TestEmpiricalDist:
    def test_point_mass(self):
        s = bw("1")
        d = FiniteDist.from_samples([s, s, s])
        assert d.kind == "empirical" and d.samples == 3
        assert d.prob(s) == 1

    def test_half_half(self):
        s = bw("1")
        d = FiniteDist.from_samples([s, BOTTOM])
        assert d.prob(s) == Fraction(1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FiniteDist.from_samples([])
        with pytest.raises(ValueError):
            FiniteDist.from_counts({BOTTOM: 0})

    def test_from_counts_matches_from_samples(self):
        s = bw("1")
        d = FiniteDist.from_counts({s: 3, BOTTOM: 1, SAME: 0})
        assert d == FiniteDist.from_samples([s, BOTTOM, s, s])
        assert d.samples == 4 and set(d.support()) == {s, BOTTOM}

    def test_large_fair_coin_sample_near_uniform(self):
        # Independent concentration check: 1e5 draws land within the
        # 1e-6-confidence radius (~0.0085) of uniform, below 0.01.
        rng = RngSeed.from_int(7).stream("coin")
        draws = [BitWord(rng.getrandbits(1), 1) for _ in range(100_000)]
        d = FiniteDist.from_samples(draws)
        gap = statistical_distance(d, FiniteDist.uniform_messages(1))
        assert float(gap) < 0.01
        assert confidence_radius(100_000) < 0.01


def loop_uniform_distance(counts, total, outcomes):
    """The Python-int loop that uniform_distance replaced, as its oracle."""
    acc = seen = 0
    for c in counts:
        acc += abs(c * outcomes - total)
        seen += 1
    return Fraction(acc + (outcomes - seen) * total, 2 * total * outcomes)


class TestUniformDistance:
    def test_matches_fraction_formula_on_random_counts(self):
        # Zero counts and cells missing from the counts are both exercised.
        rng = random.Random(0)
        for _ in range(300):
            outcomes = rng.randint(1, 12)
            present = rng.sample(range(outcomes), rng.randint(1, outcomes))
            counts = {cell: rng.randint(0, 9) for cell in present}
            counts[present[0]] += 1
            total = sum(counts.values())
            expected = sum(
                (abs(Fraction(counts.get(cell, 0), total) - Fraction(1, outcomes))
                 for cell in range(outcomes)),
                Fraction(0),
            ) / 2
            assert uniform_distance(counts.values(), total, outcomes) == expected

    def test_examples(self):
        assert uniform_distance([2, 2, 2, 2], 8, 4) == 0
        assert uniform_distance([5], 5, 4) == Fraction(3, 4)
        assert uniform_distance([3, 1], 4, 2) == Fraction(1, 4)

    def test_array_sum_matches_python_loop(self):
        # Counts as int64 arrays and as iterables, with cells missing (fewer
        # counts than outcomes), zero counts and all-zero count vectors.
        rng = random.Random(4)
        for _ in range(500):
            outcomes = rng.randint(1, 40)
            counts = [rng.choice([0, rng.randint(0, 60)]) for _ in range(rng.randint(0, outcomes))]
            total = sum(counts) or rng.randint(1, 9)
            want = loop_uniform_distance(counts, total, outcomes)
            assert uniform_distance(np.array(counts, dtype=np.int64), total, outcomes) == want
            assert uniform_distance(iter(counts), total, outcomes) == want
        for counts in ([], [0], [0, 0, 0, 0]):
            want = loop_uniform_distance(counts, 8, 4)
            assert uniform_distance(np.array(counts, dtype=np.int64), 8, 4) == want == Fraction(1, 2)

    def test_near_guard_total_is_exact_and_past_it_raises(self):
        # One cell holds every draw: its term total * (outcomes - 1) is the
        # whole int64 sum, within 2^45 of 2^63 at the largest total allowed.
        outcomes = 1 << 20
        total = ((1 << 63) - 1) // (outcomes + 1)
        counts = np.array([total], dtype=np.int64)
        assert int(counts[0]) * (outcomes - 1) > (1 << 63) - (1 << 45)
        want = loop_uniform_distance([total], total, outcomes)
        assert uniform_distance(counts, total, outcomes) == want
        assert uniform_distance(counts, total, outcomes) == Fraction(outcomes - 1, outcomes)
        # One more draw and the bound outcomes * sum(c) + cells * total
        # passes 2^63 - 1; here the product 4 * 2^61 itself would wrap.
        with pytest.raises(GuardExceeded):
            uniform_distance(counts + 1, total + 1, outcomes)
        with pytest.raises(GuardExceeded):
            uniform_distance([1 << 61], 1 << 61, 4)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            uniform_distance(np.array([3, -1]), 2, 2)


class TestWorstMarginal:
    def test_full_cube_is_uniform_everywhere(self):
        assert worst_marginal(list(range(8)), 3, 3) == (0, None)

    def test_first_strict_maximum_wins(self):
        # Bits 0 and 1 are constant, bit 2 is uniform.
        words = [0b000, 0b100]
        assert worst_marginal(words, 3, 1) == (Fraction(1, 2), (0,))
        assert worst_marginal(words, 3, 2) == (Fraction(3, 4), (0, 1))

    def test_matches_restriction_counts(self):
        rng = random.Random(1)
        words = [rng.getrandbits(5) for _ in range(12)]
        worst = Fraction(0)
        for idxs in [(i,) for i in range(5)] + [(i, j) for i in range(5) for j in range(i + 1, 5)]:
            counts = {}
            for w in words:
                key = BitWord(w, 5).restrict(idxs).value
                counts[key] = counts.get(key, 0) + 1
            worst = max(worst, uniform_distance(counts.values(), len(words), 1 << len(idxs)))
        assert worst_marginal(words, 5, 2)[0] == worst

    def test_words_wider_than_64_bits(self):
        rng = random.Random(2)
        words = [rng.getrandbits(80) for _ in range(10)]
        worst, witness = Fraction(0), None
        for idxs in [(i,) for i in range(80)] + [(i, j) for i in range(80) for j in range(i + 1, 80)]:
            counts = {}
            for w in words:
                key = BitWord(w, 80).restrict(idxs).value
                counts[key] = counts.get(key, 0) + 1
            dist = loop_uniform_distance(counts.values(), len(words), 1 << len(idxs))
            if dist > worst:
                worst, witness = dist, idxs
        assert worst_marginal(words, 80, 2) == (worst, witness)


class TestFiniteDistValidation:
    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            FiniteDist({BOTTOM: Fraction(3, 2), SAME: Fraction(-1, 2)})

    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            FiniteDist({BOTTOM: Fraction(1, 2)})

    def test_mixed_message_lengths_rejected(self):
        with pytest.raises(ValueError):
            FiniteDist({bw("0"): Fraction(1, 2), bw("00"): Fraction(1, 2)})

    def test_empirical_requires_counts(self):
        with pytest.raises(ValueError):
            FiniteDist({BOTTOM: Fraction(1, 3), SAME: Fraction(2, 3)}, kind="empirical", samples=4)

    def test_json_round_trip(self):
        d = FiniteDist(
            {bw("0110"): Fraction(1, 4), BOTTOM: Fraction(1, 2), SAME: Fraction(1, 4)}
        )
        obj = d.to_json()
        assert obj["kind"] == "exact"
        assert {e["sym"] for e in obj["support"]} == {"bottom", "same", "6"}
        back = FiniteDist.from_json(json.loads(json.dumps(obj)))
        assert set(back.support()) == set(d.support())

    def test_empirical_json_round_trip_exact(self):
        d = FiniteDist.from_samples([BOTTOM, SAME, BOTTOM, bw("01")])
        back = FiniteDist.from_json(d.to_json())
        assert back == d and back.samples == 4


class TestRngSeed:
    def test_determinism(self):
        a = RngSeed.from_int(5).stream("x")
        b = RngSeed.from_int(5).stream("x")
        assert [a.getrandbits(32) for _ in range(8)] == [
            b.getrandbits(32) for _ in range(8)
        ]

    def test_label_and_stream_id_separate_streams(self):
        root = RngSeed.from_int(5)
        assert root.stream("x").getrandbits(64) != root.stream("y").getrandbits(64)
        assert (
            root.child(1).stream("x").getrandbits(64)
            != root.child(2).stream("x").getrandbits(64)
        )

    def test_known_value_pinned(self):
        # Frozen regression value: platform-independent stream derivation.
        assert RngSeed.from_int(0).stream().getrandbits(16) == 59443

    def test_seed_length_enforced(self):
        with pytest.raises(ValueError):
            RngSeed(b"short")

    def test_json_round_trip(self):
        s = RngSeed.from_int(9, 3)
        assert RngSeed.from_json(s.to_json()) == s


class TestPropertyReport:
    def test_counterexample_iff_failed(self):
        PropertyReport("x", True, "none", 0.0)
        PropertyReport("x", False, "bad", 1.0, counterexample={"w": 1})
        with pytest.raises(ValueError):
            PropertyReport("x", True, "none", 0.0, counterexample={"w": 1})
        with pytest.raises(ValueError):
            PropertyReport("x", False, "bad", 1.0)
