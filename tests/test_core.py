import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from marginal_oracle import oracle_worst_group_marginal

from nmcode import core, perm, schemes
from nmcode.concat import build_concat, toy_concat_plan
from nmcode.core import (
    BOTTOM,
    SAME,
    BitWord,
    FiniteDist,
    GuardExceeded,
    PropertyReport,
    RngSeed,
    confidence_radius,
    hamming_ball_volume,
    push_copy,
    statistical_distance,
    uniform_distance,
    worst_marginal,
)
from nmcode.inner import InnerCode, InnerParams
from nmcode.lecss import LecssParams
from nmcode.tamper import BitTamperFn, SplitStateTamperFn, enumerate_bit_tampers


def bw(s):
    """The BitWord of a 0/1 string, coordinate i first."""
    return BitWord(int(s[::-1], 2), len(s))


class TestBitWord:
    def test_value_must_fit(self):
        with pytest.raises(ValueError):
            BitWord(4, 2)

    def test_hashable_and_eq(self):
        assert bw("01") == BitWord(2, 2)
        assert bw("01") != BitWord(2, 3)
        assert len({bw("01"), BitWord(2, 2)}) == 1

    def test_hex_round_trip(self):
        w = bw("1011001")
        assert BitWord(int(w.to_hex(), 16), 7) == w
        assert repr(w) == "BitWord(0x4d, 7)"


class TestHamming:
    def test_ball_volume(self):
        assert hamming_ball_volume(10, 0) == 1
        assert hamming_ball_volume(10, 1) == 11
        assert hamming_ball_volume(4, 4) == 16


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
        q = dist({bw("0"): Fraction(1, 2), bw("1"): Fraction(1, 2)})
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
        uniform = dist({bw("0"): Fraction(1, 2), bw("1"): Fraction(1, 2)})
        gap = statistical_distance(d, uniform)
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
        assert worst_marginal([list(range(8))], 3, 3) == (0, None, None)

    def test_first_strict_maximum_wins(self):
        # Bits 0 and 1 are constant, bit 2 is uniform.
        words = [0b000, 0b100]
        assert worst_marginal([words], 3, 1) == (Fraction(1, 2), 0, (0,))
        assert worst_marginal([words], 3, 2) == (Fraction(3, 4), 0, (0, 1))

    def test_matches_restriction_counts(self):
        rng = random.Random(1)
        words = [rng.getrandbits(5) for _ in range(12)]
        worst = Fraction(0)
        for idxs in [(i,) for i in range(5)] + [(i, j) for i in range(5) for j in range(i + 1, 5)]:
            counts = {}
            for w in words:
                key = sum(((w >> i) & 1) << j for j, i in enumerate(idxs))
                counts[key] = counts.get(key, 0) + 1
            worst = max(worst, uniform_distance(counts.values(), len(words), 1 << len(idxs)))
        assert worst_marginal([words], 5, 2)[0] == worst

    def test_words_wider_than_64_bits(self):
        rng = random.Random(2)
        words = [rng.getrandbits(80) for _ in range(10)]
        worst, witness = Fraction(0), None
        for idxs in [(i,) for i in range(80)] + [(i, j) for i in range(80) for j in range(i + 1, 80)]:
            counts = {}
            for w in words:
                key = sum(((w >> i) & 1) << j for j, i in enumerate(idxs))
                counts[key] = counts.get(key, 0) + 1
            dist = loop_uniform_distance(counts.values(), len(words), 1 << len(idxs))
            if dist > worst:
                worst, witness = dist, idxs
        assert worst_marginal([words], 80, 2) == (worst, 0, witness)


def _marginal_cases(count, seed):
    """(words, n, ell) cases: random, duplicated and structured word lists,
    ell from 0 to past n, n = 80 now and then."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        n = 80 if i % 50 == 7 else rng.randint(1, 10)
        ell = rng.randint(0, 2) if n == 80 else rng.randint(0, n + 2)
        kind = i % 4
        if kind == 0:
            words = [rng.getrandbits(n) for _ in range(rng.randint(1, 40))]
        elif kind == 1:  # few distinct words: many exactly tied marginals
            pool = [rng.getrandbits(n) for _ in range(rng.randint(1, 3))]
            words = [rng.choice(pool) for _ in range(rng.randint(1, 24))]
        elif kind == 2:  # one word: every marginal is a point mass
            words = [rng.getrandbits(n)]
        else:  # a sub-cube on a few bits, the others frozen
            free = rng.sample(range(n), min(n, rng.randint(1, 4)))
            base = rng.getrandbits(n) & ~sum(1 << b for b in free)
            words = [base | sum(((x >> j) & 1) << b for j, b in enumerate(free)) for x in range(1 << len(free))]
        cases.append((words, n, ell))
    return cases


class TestWorstMarginalKernel:
    """The chunked one-bincount kernel against the per-set oracle."""

    def test_matches_oracle_on_random_cases(self):
        cases = _marginal_cases(300, 15)
        assert any(ell > n for _, n, ell in cases) and any(n == 80 for _, n, _ in cases)
        assert any(n % 8 for _, n, _ in cases) and any(len(w) == 1 for w, _, _ in cases)
        for words, n, ell in cases:
            assert worst_marginal([words], n, ell) == oracle_worst_group_marginal([words], n, ell), (words, n, ell)

    def test_small_chunks_keep_the_first_tied_set(self, monkeypatch):
        # A chunk of 1 to 3 sets puts tied maxima in different passes.
        for cells in (1, 40, 100):
            monkeypatch.setattr(core, "PASS_CELLS", cells)
            for words, n, ell in _marginal_cases(40, cells):
                assert worst_marginal([words], n, ell) == oracle_worst_group_marginal([words], n, ell), (words, n, ell)

    def test_exact_ties(self):
        # Every pair of the two complementary words is (0,0) or (1,1):
        # all pairs tie at 1/2, single bits are uniform.
        assert worst_marginal([[0, 0b11111]], 5, 2) == (Fraction(1, 2), 0, (0, 1))
        # One word: every size-1 set ties at 1/2, the first one wins.
        assert worst_marginal([[0b1010]], 4, 1) == (Fraction(1, 2), 0, (0,))
        assert worst_marginal([[0b1010]], 4, 6) == oracle_worst_group_marginal([[0b1010]], 4, 6)

    def test_int64_overflow_guarded(self):
        with pytest.raises(GuardExceeded):
            worst_marginal([[0, 1]], 62, 62)

    @pytest.mark.parametrize("cells", [None, 40])
    def test_groups_keep_the_first_worst_group(self, cells, monkeypatch):
        # Each case split into equal groups; chunks of 40 cells put the
        # groups' sets in different passes.
        if cells:
            monkeypatch.setattr(core, "PASS_CELLS", cells)
        rng = random.Random(17)
        for words, n, ell in _marginal_cases(100, 16):
            count = rng.choice([g for g in range(1, len(words) + 1) if len(words) % g == 0])
            per = len(words) // count
            groups = [words[i * per : (i + 1) * per] for i in range(count)]
            assert worst_marginal(groups, n, ell) == oracle_worst_group_marginal(groups, n, ell), (groups, n, ell)
        with pytest.raises(ValueError, match="same number"):
            worst_marginal([[0, 1], [2]], 2, 1)


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


def _toy_code():
    return build_concat(toy_concat_plan(t_block=2), RngSeed.from_int(4413))


def _seed_table():
    spec = perm.PermSpec(n=32, seed_bits=10)
    return 32 << 10, lambda: perm.seed_table(spec), lambda: perm.seed_table.cache_info().currsize


def _decode_table():
    code = InnerCode(InnerParams(n=8, k=1, t=1), [[0], [255]])
    return 1 << 8, code._batch_tables, lambda: code._tables


def _codeword_table():
    code = LecssParams(m=4, n=4, k=3, k0=1).build()
    return 16**3, code._codeword_tables, lambda: code._tables


def _randomness_vectors():
    code = LecssParams(m=4, n=4, k=3, k0=1).build()
    return 16, lambda: next(code.iter_encodings_int(0)), lambda: code._tables


def _scatter_tables():
    code = _toy_code()
    return 4 * 4 * 256, code._scatter_tables, lambda: code._scatter


def _payload_tables():
    code = _toy_code()
    return code._payload_entries(), code._payload_tables, lambda: code._payload


def _fold_tables():
    code = _toy_code()
    return 2560, lambda: code.fold(BitTamperFn.complement(40)), lambda: code._payload


def _exact_encodings():
    code = _toy_code()
    f = BitTamperFn.identity(40)
    return code.encoding_count(3), lambda: schemes._counts(code, f, [3]), lambda: code.lecss._tables or code._scatter


#: Each reader of core.TABLE_CELLS, built at the default limit: (entries
#: it needs, the call that needs them, what it holds afterwards).
TABLE_SITES = {
    "seed-table cells": _seed_table,
    "decode table": _decode_table,
    "codewords": _codeword_table,
    "randomness vectors": _randomness_vectors,
    "permutation-table entries": _scatter_tables,
    "payload-table entries": _payload_tables,
    "fold-table entries": _fold_tables,
    "encodings of one message": _exact_encodings,
    "half tables": lambda: (4, lambda: SplitStateTamperFn([0] * 4, [0] * 4), lambda: None),
    "adversaries": lambda: (16, lambda: next(enumerate_bit_tampers(2)), lambda: None),
}


@pytest.mark.parametrize("message", TABLE_SITES)
def test_table_cells_bounds_every_table(monkeypatch, message):
    entries, run, held = TABLE_SITES[message]()
    monkeypatch.setattr(core, "TABLE_CELLS", entries - 1)
    with pytest.raises(GuardExceeded, match=message):
        run()
    assert not held()
