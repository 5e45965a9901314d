import hashlib
import random
from collections import Counter
from itertools import combinations, islice, permutations
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from nmcode import core, perm
from nmcode.core import (
    GuardExceeded,
    InfeasibleParams,
    RngSeed,
    confidence_radius,
    uniform_distance,
)
from nmcode.perm import (
    EXACT_TINY,
    LWISE_INDEX_SETS,
    PRF_SHUFFLE,
    PermSpec,
    Permutation,
    _choose_index_sets,
    derive_forwards,
    derive_permutation,
    uniform_tuple_probability,
)
from nmcode.perm import test_lwise_dependence as lwise_dependence_report


def oracle_forward(spec, z):
    """Seed z's forward map, one draw at a time: the SHA-256 of the spec
    and seed seeds random.Random, whose randrange drives Fisher-Yates; the
    exact-tiny backend takes entry z mod n! of the lexicographic list of
    permutations."""
    n = spec.n
    if spec.backend == EXACT_TINY:
        return next(islice(permutations(range(n)), z % factorial(n), None))
    material = b"nmcode.perm.prf:%d:%d:" % (n, spec.seed_bits)
    material += z.to_bytes((spec.seed_bits + 7) // 8, "little")
    rng = random.Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))
    arr = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        arr[i], arr[j] = arr[j], arr[i]
    return tuple(arr)


def oracle_lwise(spec, trials, seed):
    """(worst distance, witness index set or None if passed, passed) of the
    l-wise test, derived and tallied one seed and one index set at a time."""
    rng = seed.stream("perm.lwise")
    chosen = _choose_index_sets(spec.n, spec.ell, rng)
    space = spec.seed_space()
    exhaustive = space <= trials
    seeds = range(space) if exhaustive else [spec.sample_seed(rng) for _ in range(trials)]
    tallies = [Counter() for _ in chosen]
    for z in seeds:
        forward = oracle_forward(spec, z)
        for counts, t_set in zip(tallies, chosen):
            counts[tuple(forward[t] for t in t_set)] += 1
    cells = uniform_tuple_probability(spec.n, spec.ell).denominator
    dists = [uniform_distance(c.values(), len(seeds), cells) for c in tallies]
    worst = max(dists)
    radius = 0.0 if exhaustive else confidence_radius(trials)
    passed = float(worst) <= radius
    return worst, None if passed else chosen[dists.index(worst)], passed


def report_triple(rep):
    witness = tuple(rep.counterexample["indices"]) if rep.counterexample else None
    return rep.worst_value, witness, rep.passed


class TestPermutation:
    def test_bijectivity_enforced(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 2])

    def test_identity_and_swap(self):
        ident = Permutation([0, 1])
        assert ident.apply_int(0b01) == 0b01
        swap = Permutation([1, 0])
        assert swap.apply_int(0b01) == 0b10

    def test_forward_moves_bit_to_position(self):
        p = Permutation([2, 0, 1])
        # bit 0 -> position 2
        assert p.apply_int(0b001) == 0b100
        assert p.invert_int(0b100) == 0b001

    def test_apply_invert_round_trip(self):
        rng = random.Random(0)
        for n in (3, 8, 17, 40):
            spec = PermSpec(n=n, seed_bits=32)
            for _ in range(50):
                p = derive_permutation(spec, rng.getrandbits(32))
                x = rng.getrandbits(n)
                assert p.invert_int(p.apply_int(x)) == x
                assert p.apply_int(p.invert_int(x)) == x

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

    def test_exact_tiny_seed_past_the_seed_space_rejected(self):
        # Seeds 6 and 7 would alias seeds 0 and 1 through z mod 3!.
        spec = PermSpec(n=3, seed_bits=3, backend=EXACT_TINY)
        assert derive_permutation(spec, 5).forward == oracle_forward(spec, 5)
        for z in (6, 7):
            with pytest.raises(ValueError, match=r"outside \[0, 6\)"):
                derive_permutation(spec, z)

    @pytest.mark.parametrize("spec", [
        PermSpec(n=32, seed_bits=10),
        PermSpec(n=8, seed_bits=6),
        PermSpec(n=5, seed_bits=3),
        PermSpec(n=2, seed_bits=4),
        PermSpec(n=1, seed_bits=3),
        PermSpec(n=3, seed_bits=8, backend=EXACT_TINY),
        PermSpec(n=5, seed_bits=7, backend=EXACT_TINY),
    ])
    def test_kernel_matches_oracle_on_every_seed(self, spec):
        seeds = range(1 << spec.seed_bits)
        got = derive_forwards(spec, seeds)
        assert got.shape == (len(seeds), spec.n)
        assert [tuple(row) for row in got.tolist()] == [oracle_forward(spec, z) for z in seeds]

    @pytest.mark.parametrize("n, seed_bits", [(16, 64), (64, 20), (1, 64), (2, 64), (32, 64), (816, 64)])
    def test_kernel_matches_oracle_on_random_seeds(self, n, seed_bits):
        spec = PermSpec(n=n, seed_bits=seed_bits)
        rng = random.Random(n)
        seeds = [rng.getrandbits(seed_bits) for _ in range(2000)]
        got = derive_forwards(spec, seeds)
        assert [tuple(row) for row in got.tolist()] == [oracle_forward(spec, z) for z in seeds]
        assert derive_permutation(spec, seeds[0]).forward == oracle_forward(spec, seeds[0])

    @pytest.mark.parametrize("spec, z, forward", [
        (PermSpec(n=32, seed_bits=10), 1000,
         (8, 3, 25, 14, 1, 22, 23, 21, 26, 17, 2, 16, 6, 10, 28, 0, 7, 30, 15, 4, 5, 31, 13, 20,
          18, 9, 11, 27, 12, 19, 29, 24)),
        (PermSpec(n=40, seed_bits=128), 0x9E3779B97F4A7C15F39CC0605CEDC834,
         (6, 28, 12, 23, 38, 29, 20, 2, 4, 24, 16, 31, 3, 26, 0, 22, 10, 1, 35, 34, 14, 5, 30,
          21, 39, 11, 18, 19, 36, 13, 17, 15, 27, 33, 9, 32, 25, 7, 37, 8)),
        (PermSpec(n=5, seed_bits=3), 6, (0, 3, 4, 2, 1)),
    ])
    def test_pinned_permutations(self, spec, z, forward):
        # Pinned values, not the oracle: a change in CPython's random would
        # move the oracle along with the kernel.
        assert derive_permutation(spec, z).forward == forward

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

    @pytest.mark.parametrize("spec, trials, seed", [
        # Exhaustive (1024) and sampled (300) at n=32, ell=2 over five seeds.
        *[(PermSpec(n=32, ell=2, seed_bits=10), trials, seed) for seed in range(5) for trials in (1024, 300)],
        (PermSpec(n=9, ell=0, seed_bits=12), 100, 11),
        (PermSpec(n=12, ell=1, seed_bits=8), 256, 11),
        (PermSpec(n=6, ell=3, seed_bits=10, backend=EXACT_TINY), 2000, 11),
        (PermSpec(n=40, ell=4, seed_bits=64), 500, 11),
        # Sampled and dense over 4 passes of at most 5,461 seeds.
        (PermSpec(n=12, ell=1, seed_bits=16), 20000, 11),
    ])
    def test_reports_match_oracle(self, spec, trials, seed):
        rep = lwise_dependence_report(spec, trials=trials, seed=RngSeed.from_int(seed))
        assert report_triple(rep) == oracle_lwise(spec, trials, RngSeed.from_int(seed))

    def test_passes_are_bounded_and_match_oracle(self, monkeypatch):
        spec = PermSpec(n=32, ell=2, seed_bits=10)
        # 8 index sets x 32^2 keys exceed 3,200 cells: the sorted tally runs.
        monkeypatch.setattr(core, "PASS_CELLS", 32 * 100)
        rows = []

        def counting(spec, seeds):
            rows.append(len(seeds))
            return derive_forwards(spec, seeds)

        monkeypatch.setattr(perm, "derive_forwards", counting)
        # The exhaustive sweep's passes are those of the seed table it builds.
        for trials, passes in ((500, 5), (1024, 11)):
            rows.clear()
            rep = lwise_dependence_report(spec, trials=trials, seed=RngSeed.from_int(7))
            assert len(rows) == passes and max(rows) == 100 and sum(rows) == trials
            assert report_triple(rep) == oracle_lwise(spec, trials, RngSeed.from_int(7))

    @pytest.mark.parametrize("spec, trials, seeds", [
        (PermSpec(n=32, ell=2, seed_bits=10), 1024, 3),  # exhaustive, 8 x 32^2 dense cells
        # 4 sets x 4 dense cells; with 3 draws adjacent sets often share a key.
        (PermSpec(n=4, ell=1, seed_bits=16), 3, 20),
    ])
    def test_dense_and_sorted_tallies_agree(self, monkeypatch, spec, trials, seeds):
        def reports():
            return [lwise_dependence_report(spec, trials=trials, seed=RngSeed.from_int(s)) for s in range(seeds)]

        dense = reports()
        sets = min(comb(spec.n, spec.ell), LWISE_INDEX_SETS)
        monkeypatch.setattr(core, "PASS_CELLS", sets * spec.n**spec.ell - 1)
        assert reports() == dense

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            lwise_dependence_report(PermSpec(n=8, ell=1, seed_bits=6), trials=0)
        # 64^11 image tuples do not fit the int64 tally key.
        with pytest.raises(GuardExceeded):
            lwise_dependence_report(PermSpec(n=64, ell=11, seed_bits=20), trials=10)

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

    def test_constant_derivation_flagged_as_degenerate(self, monkeypatch):
        spec = PermSpec(n=4, ell=1, seed_bits=16)
        monkeypatch.setattr(perm, "derive_forwards", lambda sp, seeds: np.tile(np.arange(sp.n), (len(seeds), 1)))
        rep = lwise_dependence_report(spec, trials=3000, seed=RngSeed.from_int(3))
        assert not rep.passed
        assert rep.worst_value == Fraction(3, 4)  # 1 - 1/n at n = 4
        # All four singletons tie at 3/4; the first one is the witness.
        assert rep.counterexample["indices"] == [0]

    def test_uniform_tuple_probability(self):
        assert uniform_tuple_probability(5, 0) == 1
        assert uniform_tuple_probability(5, 2) == Fraction(1, 20)


class TestSeedTable:
    SPEC = PermSpec(n=32, ell=2, seed_bits=10)

    @staticmethod
    def spy(monkeypatch):
        calls = []

        def counting(spec, seeds):
            calls.append(len(seeds))
            return derive_forwards(spec, seeds)

        monkeypatch.setattr(perm, "derive_forwards", counting)
        return calls

    def test_every_seed_in_bounded_passes(self, monkeypatch):
        monkeypatch.setattr(core, "PASS_CELLS", 32 * 100)
        calls = self.spy(monkeypatch)
        table = perm.seed_table(self.SPEC)
        assert calls == [100] * 10 + [24]
        assert table.dtype == np.int32 and table.shape == (1024, 32)
        assert np.array_equal(table, derive_forwards(self.SPEC, range(1024)))

    def test_exact_tiny_rows_cover_every_seed(self):
        spec = PermSpec(n=3, seed_bits=4, backend=EXACT_TINY)
        table = perm.seed_table(spec)
        assert [tuple(row) for row in table.tolist()] == [oracle_forward(spec, z) for z in range(16)]

    def test_read_only(self):
        table = perm.seed_table(self.SPEC)
        with pytest.raises(ValueError):
            table[0, 0] = 1
        with pytest.raises(ValueError):
            table[3:5] = 0

    def test_exhaustive_calls_build_the_table_once(self, monkeypatch):
        calls = self.spy(monkeypatch)
        for seed in (RngSeed.from_int(1), RngSeed.from_int(2)):
            rep = lwise_dependence_report(self.SPEC, trials=1024, seed=seed)
            assert report_triple(rep) == oracle_lwise(self.SPEC, 1024, seed)
        assert calls == [1024]
        info = perm.seed_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_spec_over_the_guard_is_not_memoised(self, monkeypatch):
        monkeypatch.setattr(core, "TABLE_CELLS", 32 * 1024 - 1)
        with pytest.raises(GuardExceeded):
            perm.seed_table(self.SPEC)
        calls = self.spy(monkeypatch)
        rep = lwise_dependence_report(self.SPEC, trials=1024, seed=RngSeed.from_int(3))
        assert report_triple(rep) == oracle_lwise(self.SPEC, 1024, RngSeed.from_int(3))
        assert calls == [1024]  # the sweep's own pass, no table
        assert perm.seed_table.cache_info().currsize == 0

    def test_sampled_derivations_never_read_the_memo(self):
        lwise_dependence_report(self.SPEC, trials=300, seed=RngSeed.from_int(4))
        info = perm.seed_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (0, 0, 0)
