import hashlib
import io
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from nmcode.core import (
    SAME,
    GuardExceeded,
    InfeasibleParams,
    RngSeed,
    uniform_distance,
)
import split_state_oracle as oracle
from nmcode.lp import min_copy_distance
from nmcode.nmext import (
    DEFAULT_SWEEP_GUARD,
    _max_fraction,
    ExtractorTable,
    FlatSourcePair,
    ReductionReport,
    ReductionRow,
    check_extraction,
    check_relaxed_nm,
    check_strict_nm,
    inner_product_table,
    joint_output_dist,
    parity_table,
    product_with_uniform_distance,
    relaxed_error_sweep,
    repair_fixed_points,
    sample_random_extractor,
    verify_reduction,
)
from nmcode.tamper import SplitStateTamperFn
from nmcode import core
from split_state_oracle import ExtractorCode
from nmcode import nmext, schemes


def oracle_relaxed_error_sweep(ext, f1, f2, min_support):
    """The per-pair Fraction loop that relaxed_error_sweep replaced: one
    bincount and one min_copy_distance_m1 call per (pair, pattern)."""
    table = ext.as_array()
    f1a, f2a = np.asarray(f1), np.asarray(f2)
    pattern_tables = {
        "first-only": table[f1a, :],
        "second-only": table[:, f2a],
        "both": table[f1a, :][:, f2a],
    }
    space = range(1 << ext.n)
    supports = [s for k in range(min_support, (1 << ext.n) + 1) for s in combinations(space, k)]
    idx = [np.asarray(s) for s in supports]
    worst = Fraction(0)
    witness = {}
    for xi, xs in enumerate(idx):
        a_rows = table[xs, :]
        p_rows = {name: t[xs, :] for name, t in pattern_tables.items()}
        for yi, ys in enumerate(idx):
            a = a_rows[:, ys]
            total = a.size
            ones = int(a.sum())
            local = uniform_distance((ones, total - ones), total, 2)
            local_pat = "extraction"
            for name, t in p_rows.items():
                cells = np.bincount((a * 2 + t[:, ys]).ravel(), minlength=4)
                joint = {(i >> 1, i & 1): Fraction(int(cells[i]), total) for i in range(4)}
                marg = {0: joint[(0, 0)] + joint[(0, 1)], 1: joint[(1, 0)] + joint[(1, 1)]}
                val, _ = oracle.min_copy_distance_m1(joint, marg)
                if val > local:
                    local, local_pat = val, name
            if local > worst:
                worst = local
                witness = {
                    "x_support": supports[xi],
                    "y_support": supports[yi],
                    "pattern": local_pat,
                }
    return worst, witness


def oracle_extraction_distance(table, src):
    # Independent double-loop oracle for extraction distance.
    counts = {}
    for x in src.xs:
        for y in src.ys:
            v = table.as_array()[x, y]
            counts[v] = counts.get(v, 0) + 1
    total = len(src.xs) * len(src.ys)
    unif = Fraction(1, 1 << table.m)
    acc = sum(abs(Fraction(c, total) - unif) for c in counts.values())
    acc += ((1 << table.m) - len(counts)) * unif
    return acc / 2


class TestExtraction:
    def test_inner_product_two_bits(self):
        # Oracle-enumerated over all 16 pairs: 6 ones, 10 zeros.
        table = inner_product_table(2)
        src = FlatSourcePair.full(2)
        ones = sum(table.as_array()[x, y] for x in range(4) for y in range(4))
        assert ones == 6
        expected = Fraction(abs(10 - 8), 16)  # half-L1 of (10/16, 6/16) vs uniform
        assert check_extraction(table, src) == expected == Fraction(1, 8)

    def test_constant_table(self):
        const1 = ExtractorTable(2, 1, [0] * 16)
        assert check_extraction(const1, FlatSourcePair.full(2)) == Fraction(1, 2)
        const2 = ExtractorTable(2, 2, [3] * 16)
        assert check_extraction(const2, FlatSourcePair.full(2)) == Fraction(3, 4)

    def test_zero_width_output(self):
        table = ExtractorTable(2, 0, [0] * 16)
        assert check_extraction(table, FlatSourcePair.full(2)) == 0

    def test_matches_oracle_on_random_tables_and_sources(self):
        rng = random.Random(0)
        for i in range(10):
            table = sample_random_extractor(3, rng.choice([1, 2]), RngSeed.from_int(i))
            xs = tuple(sorted(rng.sample(range(8), rng.randint(1, 8))))
            ys = tuple(sorted(rng.sample(range(8), rng.randint(1, 8))))
            src = FlatSourcePair(xs, ys)
            assert check_extraction(table, src) == oracle_extraction_distance(table, src)


class TestTableMechanics:
    def test_sampling_deterministic(self):
        a = sample_random_extractor(3, 2, RngSeed.from_int(5))
        b = sample_random_extractor(3, 2, RngSeed.from_int(5))
        assert (a.as_array() == b.as_array()).all()
        assert (a.as_array() != sample_random_extractor(3, 2, RngSeed.from_int(6)).as_array()).any()

    def test_size_and_lookup_layout(self):
        arr = ExtractorTable(2, 4, list(range(16))).as_array()
        assert arr.shape == (4, 4)
        for x in range(4):
            for y in range(4):
                assert arr[x, y] == (x << 2) | y

    def test_as_array_is_built_once_and_read_only(self):
        table = sample_random_extractor(3, 2, RngSeed.from_int(10))
        arr = table.as_array()
        assert table.as_array() is arr
        assert not arr.flags.writeable
        assert arr.dtype == np.int64 and arr.shape == (8, 8)
        with pytest.raises(ValueError):
            arr[0, 0] = 1

    def test_entry_histogram_roughly_uniform(self):
        table = sample_random_extractor(4, 2, RngSeed.from_int(8))
        counts = [0] * 4
        for e in table.as_array().ravel():
            counts[e] += 1
        assert all(40 <= c <= 90 for c in counts)  # 256 entries over 4 values

    def test_serialization_round_trip(self):
        table = sample_random_extractor(3, 2, RngSeed.from_int(9))
        buf = io.BytesIO()
        table.save(buf)
        buf.seek(0)
        back = ExtractorTable.load(buf)
        assert (back.as_array() == table.as_array()).all()
        assert back.seed == table.seed

    @pytest.mark.parametrize("table, digest", [
        (lambda: ExtractorTable(1, 1, [1, 0, 1, 1]),
         "37563dcd1cb9cb907d53a26b9fbba7d916fb96b82b30b9e4433e623886e1efeb"),
        (lambda: sample_random_extractor(3, 2, RngSeed.from_int(5)),
         "606dc552a03b5d15f69924a612b4443eed754fd7ba0e2d08153862c85d7cc7d7"),
        (lambda: sample_random_extractor(4, 5, RngSeed.from_int(7)),
         "b9424352921321fc37a97369e070f3afc33d43981021fe8a8c56588bf102438a"),
    ])
    def test_saved_bytes_pinned(self, table, digest):
        """The SHA-256 of three saved tables: no seed with padding bits,
        byte-aligned 2-bit entries, and 5-bit entries across bytes."""
        buf = io.BytesIO()
        table().save(buf)
        assert hashlib.sha256(buf.getvalue()).hexdigest() == digest

    def test_round_trip_at_the_largest_table(self):
        table = sample_random_extractor(8, 16, RngSeed.from_int(13))
        buf = io.BytesIO()
        table.save(buf)
        assert len(buf.getvalue().split(b"\n", 1)[1]) == (1 << 16) * 2
        back = ExtractorTable.load(io.BytesIO(buf.getvalue()))
        assert (back.n, back.m, back.seed) == (8, 16, table.seed)
        assert (back.as_array() == table.as_array()).all()

    def test_load_rejects_files_the_header_does_not_describe(self):
        buf = io.BytesIO()
        sample_random_extractor(3, 2, RngSeed.from_int(5)).save(buf)
        raw = buf.getvalue()
        body = raw.split(b"\n", 1)[1]
        cases = [
            (raw[:-3], "holds 13 bytes, not the 16"),
            (raw + b"\0", "holds 17 bytes, not the 16"),
            (b'{"n": 3}\n' + body, 'integer "n" and "m"'),
            (b'{"n": 3, "m": "2"}\n' + body, 'integer "n" and "m"'),
            (b"[3, 2]\n" + body, 'integer "n" and "m"'),
            (b'{"n": 3, "m": 2, "seed": {}}\n' + body, 'hex "seed" string'),
        ]
        for data, match in cases:
            with pytest.raises(ValueError, match=match):
                ExtractorTable.load(io.BytesIO(data))
        # n=1, m=1 packs 4 bits into one byte; its upper four must stay clear.
        buf = io.BytesIO()
        ExtractorTable(1, 1, [1, 0, 1, 1]).save(buf)
        assert ExtractorTable.load(io.BytesIO(buf.getvalue())).as_array().ravel().tolist() == [1, 0, 1, 1]
        with pytest.raises(ValueError, match="padding bits"):
            ExtractorTable.load(io.BytesIO(buf.getvalue()[:-1] + bytes([0b11101101])))

    def test_guard_on_table_size(self):
        with pytest.raises(GuardExceeded):
            ExtractorTable(9, 1, [0] * (1 << 18))
        with pytest.raises(GuardExceeded):  # before drawing 2^40 entries
            sample_random_extractor(20, 1, RngSeed.from_int(0))

    def test_output_wider_than_input_rejected(self):
        ExtractorTable(2, 4, list(range(16)))
        with pytest.raises(ValueError):
            ExtractorTable(2, 5, [0] * 16)
        with pytest.raises(ValueError):
            ExtractorTable(2, 64, [0] * 16)
        with pytest.raises(ValueError):
            sample_random_extractor(4, 30, RngSeed.from_int(0))

    def test_entries_must_be_integers_in_range(self):
        """A float entry once built a table whose array held its floor and
        whose save failed with an AttributeError."""
        ExtractorTable(1, 1, [0, 1, True, False])
        for entries, match in (([0.5, 1, 0, True], "integers"), ([0, 1, None, 1], "integers"),
                               ([0, 1, 2, 1], "range"), ([0, -1, 0, 1], "range")):
            with pytest.raises(ValueError, match=match):
                ExtractorTable(1, 1, entries)

    def test_source_validation(self):
        with pytest.raises(ValueError):
            FlatSourcePair((), (1,))
        with pytest.raises(ValueError):
            FlatSourcePair((1, 1), (0,))


class TestOutOfDomainInputs:
    """Tables of the wrong length, entries or support points outside
    [0, 2^n), and (for the relaxed checks) fixed points raise ValueError
    instead of wrapping through numpy's negative indexing."""

    TABLE = sample_random_extractor(3, 1, RngSeed.from_int(5))
    SHIFT = [(x + 1) % 8 for x in range(8)]

    @pytest.mark.parametrize("f1, f2, src, match", [
        ([-1] * 8, SHIFT, None, r"first tampering has an entry outside \[0, 8\)"),
        (SHIFT, [8] * 8, None, r"second tampering has an entry outside \[0, 8\)"),
        ([1] * 5, SHIFT, None, r"first tampering has 5 entries, not 2\^3 = 8"),
        (SHIFT, SHIFT * 2, None, r"second tampering has 16 entries"),
        (SHIFT, SHIFT, ((-1,), (0,)), r"first support has an entry outside \[0, 8\)"),
        (SHIFT, SHIFT, ((0,), (3, 8)), r"second support has an entry outside \[0, 8\)"),
    ])
    @pytest.mark.parametrize("check", [check_relaxed_nm, check_strict_nm])
    def test_checks_reject(self, check, f1, f2, src, match):
        pair = FlatSourcePair(*src) if src else FlatSourcePair.full(3)
        with pytest.raises(ValueError, match=match):
            check(self.TABLE, pair, f1, f2)

    @pytest.mark.parametrize("xs, ys, match", [
        ((-1,), (0,), r"first support has an entry outside \[0, 8\)"),
        ((9,), (0,), r"first support has an entry outside \[0, 8\)"),
        ((0,), (3, 8), r"second support has an entry outside \[0, 8\)"),
    ])
    def test_extraction_rejects(self, xs, ys, match):
        with pytest.raises(ValueError, match=match):
            check_extraction(self.TABLE, FlatSourcePair(xs, ys))

    @pytest.mark.parametrize("f1, f2, match", [
        (list(range(8)), SHIFT, "first tampering has a fixed point"),
        (SHIFT, [1, 0, 3, 2, 5, 4, 7, 7], "second tampering has a fixed point"),
        ([-1] * 8, SHIFT, r"first tampering has an entry outside \[0, 8\)"),
        ([1] * 5, SHIFT, r"first tampering has 5 entries"),
    ])
    def test_sweep_rejects(self, f1, f2, match):
        # min_support 9 visits no pair, and still the inputs are checked.
        for min_support in (7, 9):
            with pytest.raises(ValueError, match=match):
                relaxed_error_sweep(self.TABLE, f1, f2, min_support)


class TestRelaxed:
    def test_fixed_points_rejected_on_support(self):
        table = sample_random_extractor(2, 1, RngSeed.from_int(10))
        src = FlatSourcePair.full(2)
        ident = [0, 1, 2, 3]
        fpf = [1, 2, 3, 0]
        with pytest.raises(ValueError):
            check_relaxed_nm(table, src, ident, fpf)
        with pytest.raises(ValueError):
            check_relaxed_nm(table, src, fpf, ident)

    def test_matches_local_oracle(self):
        table = sample_random_extractor(2, 1, RngSeed.from_int(11))
        src = FlatSourcePair.full(2)
        f1, f2 = [1, 2, 3, 0], [3, 0, 1, 2]
        verdict = check_relaxed_nm(table, src, f1, f2)
        # Oracle for the both-tampered pattern.
        joint = {}
        for x in range(4):
            for y in range(4):
                key = (table.as_array()[x, y], table.as_array()[f1[x], f2[y]])
                joint[key] = joint.get(key, Fraction(0)) + Fraction(1, 16)
        second = {}
        for (a, b), p in joint.items():
            second[b] = second.get(b, Fraction(0)) + p
        acc = Fraction(0)
        for a in (0, 1):
            for b in (0, 1):
                acc += abs(joint.get((a, b), Fraction(0)) - Fraction(1, 2) * second.get(b, Fraction(0)))
        assert verdict.nm_distances["both"] == acc / 2

    def test_table_ignoring_first_source_is_degenerate(self):
        # Tampering the ignored source changes nothing: the joint is
        # diagonal, the sufficient-condition distance collapses to
        # 1 - 2^-m for full-support outputs, and the reference-optimal
        # distance is 0 via a pure SAME explanation.
        rng = random.Random(12)
        g = [rng.getrandbits(1) for _ in range(4)]
        entries = [g[y] for x in range(4) for y in range(4)]
        table = ExtractorTable(2, 1, entries)
        src = FlatSourcePair.full(2)
        f1 = [1, 2, 3, 0]
        verdict = check_relaxed_nm(table, src, f1, [3, 2, 1, 0])
        counts = joint_output_dist(table, src, f1, None)
        assert counts[0, 1] == counts[1, 0] == 0  # diagonal
        assert verdict.nm_distances["first-only"] == product_with_uniform_distance(counts)
        assert verdict.optimal_distances["first-only"] == 0

    def test_xor_share_with_complement_regression(self):
        # Output = parity of x xor y; complementing one half flips the
        # output deterministically. Frozen oracle values: the sufficient
        # condition and the optimal reference both sit at exactly 1/2.
        table = ExtractorTable(3, 1, [((x ^ y).bit_count() & 1) for x in range(8) for y in range(8)])
        src = FlatSourcePair.full(3)
        comp = [x ^ 7 for x in range(8)]
        fpf = [y ^ 1 for y in range(8)]
        verdict = check_relaxed_nm(table, src, comp, fpf)
        assert verdict.nm_distances["first-only"] == Fraction(1, 2)
        assert verdict.optimal_distances["first-only"] == Fraction(1, 2)


class TestJointCounts:
    @pytest.mark.parametrize("m", [1, 2])
    def test_counts_and_verdicts_match_fraction_oracle(self, m):
        # Random flat sources and fixed-point-free tamperings: the count
        # matrix is the dict law, and both verdicts read the same values
        # off it as the Fraction-dict layer did.
        rng = random.Random(20 + m)
        for i in range(6):
            table = sample_random_extractor(3, m, RngSeed.from_int(20 + 10 * m + i))
            xs = tuple(sorted(rng.sample(range(8), rng.randint(1, 8))))
            ys = tuple(sorted(rng.sample(range(8), rng.randint(1, 8))))
            src = FlatSourcePair(xs, ys)
            f1 = repair_fixed_points([rng.randrange(8) for _ in range(8)], 8)
            f2 = repair_fixed_points([rng.randrange(8) for _ in range(8)], 8)
            relaxed = check_relaxed_nm(table, src, f1, f2)
            for name, (g1, g2) in {
                "first-only": (f1, None), "second-only": (None, f2), "both": (f1, f2),
            }.items():
                counts = joint_output_dist(table, src, g1, g2)
                assert counts.shape == (1 << m, 1 << m) and counts.sum() == src.pairs
                joint = oracle.joint_output_dist(table, src, g1, g2)
                assert oracle.joint_from_counts(counts) == joint
                assert relaxed.nm_distances[name] == oracle.product_with_uniform_distance(joint, m)
                assert relaxed.optimal_distances[name] == oracle.strict_distance(joint, m)[0]
            strict = check_strict_nm(table, src, f1, f2)
            joint = oracle.joint_output_dist(table, src, f1, f2)
            assert strict.nm_distances["both"] == oracle.strict_distance(joint, m)[0]


class TestStrict:
    def test_identity_explained_by_same(self):
        table = sample_random_extractor(3, 1, RngSeed.from_int(13))
        ident = list(range(8))
        verdict = check_strict_nm(table, FlatSourcePair.full(3), ident, ident)
        assert verdict.nm_distances["both"] == 0
        assert verdict.witness["reference"]["SAME"] == 1.0

    def test_constant_tampering_leaves_only_extraction_error(self):
        table = sample_random_extractor(3, 1, RngSeed.from_int(14))
        verdict = check_strict_nm(table, FlatSourcePair.full(3), [5] * 8, [2] * 8)
        assert verdict.nm_distances["both"] == 0

    def test_optimal_reference_beats_candidates(self):
        table = sample_random_extractor(3, 1, RngSeed.from_int(15))
        src = FlatSourcePair.full(3)
        rng = random.Random(16)
        f1 = [rng.randrange(8) for _ in range(8)]
        f2 = [rng.randrange(8) for _ in range(8)]
        verdict = check_strict_nm(table, src, f1, f2)
        joint = oracle.joint_output_dist(table, src, f1, f2)
        marg = oracle.first_marginal(joint)
        ref = {SAME if k == "SAME" else int(k): v for k, v in verdict.witness["reference"].items()}
        assert float(oracle.copy_distance(joint, marg, ref, [0, 1])) == pytest.approx(
            float(verdict.nm_distances["both"])
        )
        for _ in range(100):
            raw = [rng.randint(0, 9) for _ in range(3)]
            tot = sum(raw) or 1
            cand = {
                0: Fraction(raw[0], tot),
                1: Fraction(raw[1], tot),
                SAME: Fraction(raw[2], tot),
            }
            assert oracle.copy_distance(joint, marg, cand, [0, 1]) >= verdict.nm_distances["both"]

    def test_strict_bounded_by_relaxed_for_fpf_adversaries(self):
        # For already fixed-point-free tampering the strict check at the
        # same sources is within the factor-4 relation to the relaxed one.
        rng = random.Random(17)
        for i in range(5):
            table = sample_random_extractor(3, 1, RngSeed.from_int(18 + i))
            f1 = repair_fixed_points([rng.randrange(8) for _ in range(8)], 8)
            f2 = repair_fixed_points([rng.randrange(8) for _ in range(8)], 8)
            sweep, _ = relaxed_error_sweep(table, f1, f2, min_support=4)
            strict = check_strict_nm(table, FlatSourcePair.full(3), f1, f2)
            worst = max(strict.extraction_distance, *strict.optimal_distances.values())
            assert worst <= 4 * max(sweep, Fraction(1, 1000))


class TestCodeReduction:
    def test_parity_buckets_and_bias(self):
        code = ExtractorCode(parity_table(3))
        assert all(size == 32 for size in code.sizes)
        assert schemes.roundtrip_exhaustive(code)
        assert verify_reduction(parity_table(3), adversaries=0).extraction_distance == 0

    def test_encoding_bias_equals_extraction_distance(self):
        """The reduction's encoding bias, the distance of a uniform
        message's encoding from uniform, is the table's extraction distance
        on full-entropy sources."""
        for i in range(5):
            table = sample_random_extractor(3, 1, RngSeed.from_int(30 + i))
            assert verify_reduction(table, adversaries=0).extraction_distance == check_extraction(
                table, FlatSourcePair.full(3)
            )

    def test_empty_preimage_rejected(self):
        with pytest.raises(InfeasibleParams):
            ExtractorCode(ExtractorTable(2, 1, [0] * 16))

    def test_identity_adversary_has_zero_code_error(self):
        code = ExtractorCode(parity_table(2))
        ident = list(range(4))
        err, ref = schemes.optimal_nm_error(code, SplitStateTamperFn(ident, ident))
        assert err == 0 and ref.prob(SAME) == 1

    def test_constant_to_codeword_adversary_within_bound(self):
        table = sample_random_extractor(3, 1, RngSeed.from_int(40))
        code = ExtractorCode(table)
        f1, f2 = [6] * 8, [1] * 8
        err, _ = schemes.optimal_nm_error(code, SplitStateTamperFn(f1, f2))
        verdict = check_strict_nm(table, FlatSourcePair.full(3), f1, f2)
        eps = max(verdict.extraction_distance, verdict.nm_distances["both"])
        assert err <= eps * 3

    def test_empty_preimage_rejected_by_reduction(self):
        with pytest.raises(InfeasibleParams):
            verify_reduction(ExtractorTable(2, 1, [1] * 16), adversaries=1)

    @pytest.mark.parametrize("n, m, adversaries", [
        (2, 1, 200), (3, 1, 200), (4, 1, 200), (2, 2, 10), (3, 2, 10), (8, 1, 2),
    ])
    def test_rows_match_fraction_oracle(self, n, m, adversaries):
        # Same table, same adversary stream: every row equals the dict
        # strict distance and schemes.optimal_nm_error on the code.
        table = sample_random_extractor(n, m, RngSeed.from_int(500 + 10 * n + m))
        seed = RngSeed.from_int(600 + 10 * n + m)
        report = verify_reduction(table, adversaries, seed)
        rows = [(r.extractor_error, r.code_error, r.bound) for r in report.rows]
        assert rows == oracle.reduction_rows(table, adversaries, seed)
        assert report.extraction_distance == check_extraction(table, FlatSourcePair.full(n))

    def test_table_constants_counted_once(self, monkeypatch):
        # Nothing is counted when the table is built; the first reduction
        # counts the preimage sizes and the bias, and later ones reuse them.
        table = sample_random_extractor(4, 2, RngSeed.from_int(45))
        assert not {"preimage_sizes", "encoding_bias"} & vars(table).keys()
        calls = []
        monkeypatch.setattr(nmext, "uniform_distance", lambda *a: calls.append(a) or uniform_distance(*a))
        first = verify_reduction(table, 2, RngSeed.from_int(46))
        assert verify_reduction(table, 2, RngSeed.from_int(46)) == first and len(calls) == 1
        sizes = table.preimage_sizes
        assert sizes is table.preimage_sizes and not sizes.flags.writeable
        assert sizes.tolist() == np.bincount(table.as_array().ravel(), minlength=4).tolist()
        assert table.encoding_bias == first.extraction_distance == check_extraction(table, FlatSourcePair.full(4))

    def test_one_bit_bound_cannot_fail(self):
        # At m=1, code_error * 2*r0*r1 = copy * total * max(r0, r1), so with
        # rho = max(r0, r1) / min(r0, r1) the bound code_error <= 3 *
        # max(eps_ext, copy) holds by the factor (1 + rho)/2 <= 3 at
        # rho <= 5, and at rho > 5 because eps_ext > 1/3 and code_error <= 1/2.
        rng = random.Random(4470)
        branches = {True: 0, False: 0}
        for _ in range(2000):
            r0, r1 = rng.randint(1, 60), rng.randint(1, 60)
            c01, c10 = rng.randint(0, r0), rng.randint(0, r1)
            counts = [[r0 - c01, c01], [c10, r1 - c10]]
            code_error = nmext._code_error(counts, [r0, r1])
            copy = nmext._copy_distance(np.array(counts))
            assert code_error * 2 * r0 * r1 == copy * (r0 + r1) * max(r0, r1)
            eps_ext = uniform_distance([r0, r1], r0 + r1, 2)
            rho = Fraction(max(r0, r1), min(r0, r1))
            if rho <= 5:
                assert code_error == (1 + rho) / 2 * copy <= 3 * copy
            else:
                assert eps_ext > Fraction(1, 3) and code_error <= Fraction(1, 2)
            assert code_error <= 3 * max(eps_ext, copy)
            branches[rho <= 5] += 1
        assert min(branches.values()) >= 100

    def test_reduction_report(self):
        table = sample_random_extractor(3, 1, RngSeed.from_int(41))
        report = verify_reduction(table, adversaries=25, seed=RngSeed.from_int(42))
        assert len(report.rows) == 25
        verdict = report.verdict
        assert verdict.passed and verdict.gate == 0
        assert verdict.worst_value == max(r.code_error - r.bound for r in report.rows)

    def test_verdict_witness_is_the_tightest_row(self):
        # Row 1 has the largest code error and row 2 the least slack.
        rows = [ReductionRow(0, Fraction(1, 8), Fraction(1, 10), Fraction(3, 8)),
                ReductionRow(1, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
                ReductionRow(2, Fraction(1, 24), Fraction(1, 9), Fraction(1, 8)),
                ReductionRow(3, Fraction(1, 24), Fraction(1, 9), Fraction(1, 8))]
        verdict = ReductionReport(Fraction(1, 24), rows).verdict
        assert verdict.worst_value == Fraction(1, 9) - Fraction(1, 8) and verdict.passed
        assert verdict.witness == {"adversary_id": 2, "code_error": "1/9", "bound": "1/8"}
        rows[3].code_error = Fraction(1, 4)  # past its bound: it fails and becomes the witness
        verdict = ReductionReport(Fraction(1, 24), rows).verdict
        assert not verdict.passed and verdict.witness["adversary_id"] == 3
        empty = ReductionReport(Fraction(0), []).verdict
        assert empty.passed and empty.worst_value == 0 and empty.witness is None


class TestSweep:
    def test_sweep_agrees_with_single_checks_at_full_support(self):
        table = sample_random_extractor(3, 1, RngSeed.from_int(50))
        rng = random.Random(51)
        f1 = repair_fixed_points([rng.randrange(8) for _ in range(8)], 8)
        f2 = repair_fixed_points([rng.randrange(8) for _ in range(8)], 8)
        worst, witness = relaxed_error_sweep(table, f1, f2, min_support=8)
        src = FlatSourcePair.full(3)
        verdict = check_relaxed_nm(table, src, f1, f2)
        expected = max(
            verdict.extraction_distance, max(verdict.optimal_distances.values())
        )
        assert worst == expected

    def test_sweep_guards(self):
        table = sample_random_extractor(3, 2, RngSeed.from_int(52))
        with pytest.raises(GuardExceeded):
            relaxed_error_sweep(table, [0] * 8, [0] * 8, min_support=4)

    def test_support_pair_guard(self):
        # n=4: 697 supports of size >= 13 fit under the guard, the 2517 of
        # size >= 12 do not, and the sweep refuses them before building.
        assert 697**2 <= DEFAULT_SWEEP_GUARD < 2517**2
        table = sample_random_extractor(4, 1, RngSeed.from_int(53))
        fpf = [(x + 1) % 16 for x in range(16)]
        worst, witness = relaxed_error_sweep(table, fpf, fpf, min_support=13)
        assert 0 < worst <= 1 and len(witness["x_support"]) >= 13
        with pytest.raises(GuardExceeded, match="6335289 support pairs"):
            relaxed_error_sweep(table, fpf, fpf, min_support=12)

    def test_support_bounds(self):
        table = sample_random_extractor(3, 1, RngSeed.from_int(54))
        fpf = [(x + 1) % 8 for x in range(8)]
        assert relaxed_error_sweep(table, fpf, fpf, min_support=9) == (0, {})
        with pytest.raises(ValueError):
            relaxed_error_sweep(table, fpf, fpf, min_support=0)

    @staticmethod
    def _inputs(n, seed):
        size = 1 << n
        rng = random.Random(seed)
        table = sample_random_extractor(n, 1, RngSeed.from_int(seed))
        f1 = repair_fixed_points([rng.randrange(size) for _ in range(size)], size)
        f2 = repair_fixed_points([rng.randrange(size) for _ in range(size)], size)
        return table, f1, f2

    @pytest.mark.parametrize("n, min_support, seeds", [
        (3, 1, [55]), (3, 4, [56]), (3, 6, range(58, 66)),
        (3, 8, range(66, 74)), (4, 14, [74]),
    ])
    def test_matches_fraction_oracle(self, n, min_support, seeds):
        for seed in seeds:
            table, f1, f2 = self._inputs(n, seed)
            got = relaxed_error_sweep(table, f1, f2, min_support)
            assert got == oracle_relaxed_error_sweep(table, f1, f2, min_support)

    def test_tied_kinds_keep_the_first(self):
        # A symmetric table with f1 == f2 gives the full pair identical
        # first-only and second-only counts; the witness names the first.
        rng = random.Random(1)
        bits = {}
        entries = [
            bits.setdefault((min(x, y), max(x, y)), rng.getrandbits(1))
            for x in range(8) for y in range(8)
        ]
        table = ExtractorTable(3, 1, entries)
        f = repair_fixed_points([rng.randrange(8) for _ in range(8)], 8)
        opt = check_relaxed_nm(table, FlatSourcePair.full(3), f, f).optimal_distances
        assert opt["first-only"] == opt["second-only"]
        worst, witness = relaxed_error_sweep(table, f, f, min_support=8)
        assert (worst, witness["pattern"]) == (Fraction(29, 192), "first-only")
        assert (worst, witness) == oracle_relaxed_error_sweep(table, f, f, 8)

    def test_chunks_give_the_same_result(self, monkeypatch):
        # Chunks of 1 and of 7 x-supports (37 supports at min_support 6)
        # against the single chunk; witnesses must agree too.
        table, f1, f2 = self._inputs(3, 75)
        whole = relaxed_error_sweep(table, f1, f2, min_support=6)
        assert whole[1]
        for cells in (1, 7 * 37):
            monkeypatch.setattr(core, "PASS_CELLS", cells)
            assert relaxed_error_sweep(table, f1, f2, min_support=6) == whole

    def test_max_fraction_decides_a_float_tie_exactly(self):
        # Both quotients round to 0.5748904736595649, so the float argmax
        # proposes the first; the second is larger exactly.
        num = np.array([1234567891, 971389245], dtype=np.int64)
        den = np.array([2147483647, 1689694454], dtype=np.int64)
        assert num[0] / den[0] == num[1] / den[1]
        assert Fraction(971389245, 1689694454) > Fraction(1234567891, 2147483647)
        assert _max_fraction(num, den) == (971389245, 1689694454)


class TestRandomTableBudget:
    def test_most_random_tables_meet_existence_budget(self):
        # At n=4, m=1 and full entropy the existence condition tolerates
        # error 1/4; most sampled tables beat it against a complementing
        # adversary on the first half.
        comp = [x ^ 0xF for x in range(16)]
        fpf = [y ^ 1 for y in range(16)]
        src = FlatSourcePair.full(4)
        within = 0
        for i in range(10):
            table = sample_random_extractor(4, 1, RngSeed.from_int(60 + i))
            verdict = check_relaxed_nm(table, src, comp, fpf)
            if max(verdict.nm_distances.values()) <= Fraction(1, 4):
                within += 1
        assert within >= 7


class TestPinnedOptima:
    """Exact optima of the SAME-marker minimax on fixed seeds, pinned from
    the two LP builders that preceded the shared one."""

    @staticmethod
    def _adversary(seed: int):
        rng = random.Random(seed)
        return [rng.randrange(8) for _ in range(8)], [rng.randrange(8) for _ in range(8)]

    @pytest.mark.parametrize(
        "m, i, value",
        [(1, 2, Fraction(6, 247)), (2, 0, Fraction(11, 84)),
         (2, 1, Fraction(37, 264)), (2, 2, Fraction(29, 112))],
    )
    def test_optimal_nm_error(self, m, i, value):
        table = sample_random_extractor(3, m, RngSeed.from_int(70 + 10 * m + i))
        f1, f2 = self._adversary(80 + 10 * m + i)
        err, ref = schemes.optimal_nm_error(ExtractorCode(table), SplitStateTamperFn(f1, f2))
        assert err == value
        assert sum(p for _, p in ref.items()) == 1

    @pytest.mark.parametrize(
        "m, i, value",
        [(1, 1, Fraction(601, 16359)), (1, 2, Fraction(659, 32670)),
         (2, 0, Fraction(31, 324)), (2, 1, Fraction(23, 236)),
         (2, 2, Fraction(60379, 908208))],
    )
    def test_optimal_nm_error_n4(self, m, i, value):
        # Pinned from the Fraction simplex that preceded the integer one.
        table = sample_random_extractor(4, m, RngSeed.from_int(170 + 10 * m + i))
        rng = random.Random(180 + 10 * m + i)
        f1, f2 = [rng.randrange(16) for _ in range(16)], [rng.randrange(16) for _ in range(16)]
        err, ref = schemes.optimal_nm_error(ExtractorCode(table), SplitStateTamperFn(f1, f2))
        assert err == value
        assert sum(p for _, p in ref.items()) == 1

    @pytest.mark.parametrize(
        "i, value",
        [(0, Fraction(127, 1344)), (1, Fraction(29, 224)),
         (2, Fraction(243, 2240)), (3, Fraction(93, 544))],
    )
    def test_min_copy_distance_two_bits(self, i, value):
        table = sample_random_extractor(3, 2, RngSeed.from_int(90 + i))
        f1, f2 = self._adversary(95 + i)
        src = FlatSourcePair.full(3)
        v, d = min_copy_distance(joint_output_dist(table, src, f1, f2))
        assert v == value
        joint = oracle.joint_output_dist(table, src, f1, f2)
        assert oracle.copy_distance(joint, oracle.first_marginal(joint), oracle.as_reference(d), [0, 1, 2, 3]) == value
