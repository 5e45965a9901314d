import random
from collections import Counter
from itertools import combinations
from fractions import Fraction
from math import factorial

import pytest

from nmcode.core import BitWord, InfeasibleParams, RngSeed
from nmcode.perm import (
    EXACT_TINY,
    LWISE_INDEX_SETS,
    PRF_SHUFFLE,
    PermSpec,
    Permutation,
    _choose_index_sets,
    derive_permutation,
    uniform_tuple_probability,
)
from nmcode.perm import test_lwise_dependence as lwise_dependence_report


class TestPermutation:
    def test_bijectivity_enforced(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 2])

    def test_identity_and_swap(self):
        ident = Permutation([0, 1])
        assert ident.apply(BitWord.from_str("10")).to01() == "10"
        swap = Permutation([1, 0])
        assert swap.apply(BitWord.from_str("10")).to01() == "01"

    def test_forward_moves_bit_to_position(self):
        p = Permutation([2, 0, 1])
        # bit 0 -> position 2
        assert p.apply(BitWord.from_str("100")).to01() == "001"

    def test_apply_invert_round_trip(self):
        rng = random.Random(0)
        for n in (3, 8, 17, 40):
            spec = PermSpec(n=n, seed_bits=32)
            for _ in range(50):
                p = derive_permutation(spec, rng.getrandbits(32))
                x = BitWord.random(n, rng)
                assert p.invert(p.apply(x)) == x
                assert p.apply_int(p.invert_int(x.value)) == x.value

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Permutation([0, 1]).apply(BitWord.from_str("101"))

    def test_json(self):
        assert Permutation([2, 0, 1]).to_json() == {"forward": [2, 0, 1]}


class TestDerivation:
    def test_deterministic_in_seed(self):
        spec = PermSpec(n=16, seed_bits=24)
        assert derive_permutation(spec, 1234) == derive_permutation(spec, 1234)
        assert derive_permutation(spec, 1234) != derive_permutation(spec, 1235)

    def test_factorial_backend_hits_table_uniformly(self):
        spec = PermSpec(n=3, seed_bits=8, backend=EXACT_TINY)
        space = spec.seed_space()
        assert space == (256 // 6) * 6
        counts = Counter(
            tuple(derive_permutation(spec, z).forward) for z in range(space)
        )
        assert len(counts) == 6
        assert set(counts.values()) == {space // 6}

    def test_factorial_backend_requires_enough_seeds(self):
        with pytest.raises(InfeasibleParams):
            PermSpec(n=5, seed_bits=6, backend=EXACT_TINY)  # 2^6 < 120
        with pytest.raises(InfeasibleParams):
            PermSpec(n=9, seed_bits=32, backend=EXACT_TINY)

    def test_seed_out_of_range_rejected(self):
        spec = PermSpec(n=4, seed_bits=8)
        with pytest.raises(ValueError):
            derive_permutation(spec, 1 << 8)

    def test_unranking_covers_all_permutations(self):
        spec = PermSpec(n=4, seed_bits=16, backend=EXACT_TINY)
        perms = {
            tuple(derive_permutation(spec, z).forward) for z in range(factorial(4))
        }
        assert len(perms) == 24


class TestLimitedIndependence:
    @pytest.mark.parametrize("n, ell", [(4, 0), (4, 1), (4, 2), (5, 3), (9, 1), (12, 2), (30, 3), (40, 4)])
    def test_index_sets_match_the_listed_draw(self, n, ell):
        for seed in range(4):
            rng, listed = random.Random(seed), random.Random(seed)
            every = list(combinations(range(n), ell))
            want = listed.sample(every, LWISE_INDEX_SETS) if len(every) > LWISE_INDEX_SETS else every
            assert _choose_index_sets(n, ell, rng) == want
            assert rng.getstate() == listed.getstate()

    def test_factorial_backend_exactly_uniform(self):
        spec = PermSpec(n=4, ell=2, seed_bits=12, backend=EXACT_TINY)
        rep = lwise_dependence_report(spec, trials=10**6, seed=RngSeed.from_int(1))
        assert rep.details["mode"] == "exhaustive"
        assert rep.passed and rep.worst_value == 0

    def test_shuffle_backend_single_index_marginal(self):
        spec = PermSpec(n=4, ell=1, seed_bits=64, backend=PRF_SHUFFLE)
        rep = lwise_dependence_report(spec, trials=10**6, seed=RngSeed.from_int(2))
        assert float(rep.worst_value) < 0.01
        assert rep.details["uniformity"] == "assumed"

    def test_constant_derivation_flagged_as_degenerate(self):
        spec = PermSpec(n=4, ell=1, seed_bits=16)
        rep = lwise_dependence_report(
            spec,
            trials=3000,
            seed=RngSeed.from_int(3),
            derive_fn=lambda sp, z: Permutation(list(range(sp.n))),
        )
        assert not rep.passed
        assert rep.worst_value == Fraction(3, 4)  # 1 - 1/n at n = 4

    def test_uniform_tuple_probability(self):
        assert uniform_tuple_probability(5, 0) == 1
        assert uniform_tuple_probability(5, 2) == Fraction(1, 20)
