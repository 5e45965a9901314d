import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from nmcode.core import GuardExceeded, InfeasibleParams
from nmcode.gf import GF2m, IRREDUCIBLE_POLY, field, invert_matrix
from nmcode.lecss import LecssCode, LecssParams, build_lecss, verify_lecss


class TestFieldAxioms:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_axioms_exhaustively(self, m):
        fld = field(m)
        q = fld.q
        for a in range(q):
            for b in range(q):
                assert fld.mul(a, b) == fld.mul(b, a)
                for c in range(q):
                    assert fld.mul(a, fld.mul(b, c)) == fld.mul(fld.mul(a, b), c)
                    assert fld.mul(a, b ^ c) == fld.mul(a, b) ^ fld.mul(a, c)
        for a in range(1, q):
            assert fld.mul(a, fld.inv(a)) == 1

    @pytest.mark.parametrize("m", [5, 6, 7, 8])
    def test_inverses_exhaustively_larger_fields(self, m):
        fld = field(m)
        for a in range(1, fld.q):
            assert fld.mul(a, fld.inv(a)) == 1

    def test_every_pinned_modulus_builds(self):
        for m in IRREDUCIBLE_POLY:
            assert field(m).q == 1 << m

    def test_pow_and_eval(self):
        fld = field(3)
        for x in range(8):
            assert fld.pow(x, 0) == 1
            acc = 1
            for e in range(1, 5):
                acc = fld.mul(acc, x)
                assert fld.pow(x, e) == acc
        # eval_poly with x^0 = 1 convention at x = 0
        assert fld.eval_poly([5, 3, 1], 0) == 5

    def test_linear_solver_round_trip(self):
        fld = field(4)
        rng = random.Random(0)
        for _ in range(20):
            mat = [[rng.randrange(16) for _ in range(3)] for _ in range(3)]
            inv = invert_matrix(fld, mat)
            if inv is None:
                continue
            x = [rng.randrange(16) for _ in range(3)]
            rhs = [
                fld.mul(mat[i][0], x[0]) ^ fld.mul(mat[i][1], x[1]) ^ fld.mul(mat[i][2], x[2])
                for i in range(3)
            ]
            solved = [
                fld.mul(inv[i][0], rhs[0]) ^ fld.mul(inv[i][1], rhs[1]) ^ fld.mul(inv[i][2], rhs[2])
                for i in range(3)
            ]
            assert solved == x


class TestBuild:
    def test_reference_instantiation(self):
        code = build_lecss(8, 0.5)
        assert (code.q, code.n, code.k, code.k0) == (8, 8, 6, 2)
        assert code.symbol_distance == 3
        assert code.params.independent_bits == 2
        assert code.message_bits == 12 and code.block_bits == 24

    def test_rate_meets_slack_bound(self):
        for n, alpha in [(8, 0.5), (16, 0.25), (16, 0.5), (32, 0.25)]:
            code = build_lecss(n, alpha)
            assert Fraction(code.k - code.k0, code.n) >= Fraction(1) - Fraction(alpha).limit_denominator(64)

    def test_no_secrecy_randomness_rejected(self):
        with pytest.raises(InfeasibleParams):
            build_lecss(4, 0.3)  # k0 = floor(0.6) = 0

    def test_bit_target_factorization(self):
        code = LecssParams.for_bits(16, 0.5).build()
        assert (code.q, code.n, code.k, code.k0) == (16, 4, 3, 1)
        assert code.block_bits == 16 and code.message_bits == 8
        with pytest.raises(InfeasibleParams):
            LecssParams.for_bits(7, 0.5).build()

    # (k, k0) of build_lecss(n, alpha) for n = 2..19; None where infeasible.
    RATE_RULE = {
        0.25: [None] * 6 + [(7, 1), (8, 1), (9, 1), (10, 1), (11, 1), (12, 1), (13, 1),
                            (14, 1), (14, 2), (15, 2), (16, 2), (17, 2)],
        0.5: [None, None, (3, 1), (4, 1), (5, 1), (6, 1), (6, 2), (7, 2), (8, 2), (9, 2),
              (9, 3), (10, 3), (11, 3), (12, 3), (12, 4), (13, 4), (14, 4), (15, 4)],
        0.75: [None, (2, 1), (3, 1), (4, 1), (4, 2), (5, 2), (5, 3), (6, 3), (7, 3), (7, 4),
               (8, 4), (9, 4), (9, 5), (10, 5), (10, 6), (11, 6), (12, 6), (12, 7)],
    }
    # (m, n, k, k0) of LecssParams.for_bits(bits, alpha).build() for bits = 4, 8, ..., 64.
    BITS_RULE = {
        0.25: [None] * 5 + [(3, 8, 7, 1), None, (4, 8, 7, 1), (4, 9, 8, 1), (4, 10, 9, 1),
                            (4, 11, 10, 1), (4, 12, 11, 1), (4, 13, 12, 1), (4, 14, 13, 1),
                            (4, 15, 14, 1), (4, 16, 14, 2)],
        0.5: [None, (2, 4, 3, 1), (3, 4, 3, 1), (4, 4, 3, 1), (4, 5, 4, 1), (3, 8, 6, 2),
              (4, 7, 6, 1), (4, 8, 6, 2), (4, 9, 7, 2), (4, 10, 8, 2), (4, 11, 9, 2),
              (4, 12, 9, 3), (4, 13, 10, 3), (4, 14, 11, 3), (4, 15, 12, 3), (4, 16, 12, 4)],
    }

    @pytest.mark.parametrize("alpha", sorted(RATE_RULE))
    def test_rate_rule_grid(self, alpha):
        for n, want in zip(range(2, 20), self.RATE_RULE[alpha]):
            if want is None:
                with pytest.raises(InfeasibleParams):
                    build_lecss(n, alpha)
            else:
                code = build_lecss(n, alpha)
                assert (code.m, code.n, code.k, code.k0) == ((n - 1).bit_length(), n) + want

    @pytest.mark.parametrize("alpha", sorted(BITS_RULE))
    def test_bits_rule_grid(self, alpha):
        for bits, want in zip(range(4, 68, 4), self.BITS_RULE[alpha]):
            if want is None:
                with pytest.raises(InfeasibleParams):
                    LecssParams.for_bits(bits, alpha).build()
            else:
                code = LecssParams.for_bits(bits, alpha).build()
                assert (code.m, code.n, code.k, code.k0) == want
                assert code.params == LecssParams.for_bits(bits, alpha)

    def test_vandermonde_square_minors_invertible(self):
        # Any k0 columns of the first-k0-row block stay independent.
        code = build_lecss(8, 0.5)
        fld = code.field
        for cols in combinations(range(8), 2):
            mat = [[code.generator[i][j] for j in cols] for i in range(2)]
            assert invert_matrix(fld, mat) is not None


class TestEncodeDecode:
    @staticmethod
    def code():
        return build_lecss(8, 0.5)

    def test_zero_message_zero_randomness_gives_zero_word(self):
        code = self.code()
        assert code.encode_with(0, [0, 0]) == 0

    def test_linearity_witness_same_randomness(self):
        code = self.code()
        r = [3, 5]
        for s1, s2 in [(0x1A3, 0x0F0), (1, 2), (0xFFF, 0x123)]:
            a = code.encode_with(s1, r)
            b = code.encode_with(s2, r)
            zero_r = code.encode_with(s1 ^ s2, [0, 0])
            assert a ^ b == zero_r

    def test_roundtrip(self):
        code = self.code()
        rng = random.Random(1)
        for _ in range(300):
            s = rng.getrandbits(12)
            assert code.decode_int(code.encode_int(s, rng)) == s

    def test_single_symbol_marginal_uniform(self):
        code = self.code()
        for s in (0, 0x5A5):
            for coord in range(8):
                seen = {}
                for r in product(range(8), repeat=2):
                    word = code.encode_symbols(s, list(r))
                    seen[word[coord]] = seen.get(word[coord], 0) + 1
                assert all(seen.get(v, 0) == 8 for v in range(8))

    def test_encodings_flat_on_coset(self):
        code = self.code()
        words = list(code.iter_encodings_int(0x123))
        assert len(words) == 64 and len(set(words)) == 64

    def test_few_symbol_corruptions_detected(self):
        code = self.code()
        rng = random.Random(2)
        word = code.encode_int(rng.getrandbits(12), rng)
        symbols = code.unpack(word)
        for ncorrupt in (1, 2):
            for coords in combinations(range(8), ncorrupt):
                bad = list(symbols)
                for c in coords:
                    bad[c] ^= 1 + rng.randrange(7)
                assert code.decode_int(code.pack(bad)) is None

    def test_random_words_mostly_undecodable(self):
        code = self.code()
        rng = random.Random(3)
        draws = 2000
        hits = sum(
            code.decode_int(rng.getrandbits(24)) is not None for _ in range(draws)
        )
        # Codeword density is q^(k-n) = 1/64: expect about 31 hits.
        assert abs(hits - draws / 64) < 25


def scan_distance(code):
    """The least symbol weight of a nonzero codeword, by brute force over
    all q^k coefficient vectors: the oracle for verify_lecss's closed form."""
    return min(
        sum(code.field.eval_poly(coeffs, x) != 0 for x in code.points)
        for coeffs in product(range(code.q), repeat=code.k)
        if any(coeffs)
    )


def witness_weight(code, distance):
    """The symbol weight of the codeword of a distance verdict's witness,
    through encode_symbols: randomness symbols first, then the message."""
    coeffs = distance.witness["coefficients"]
    assert len(coeffs) == code.k
    s = sum(c << (j * code.m) for j, c in enumerate(coeffs[code.k0:]))
    return sum(sym != 0 for sym in code.encode_symbols(s, coeffs[: code.k0]))


#: Every (m, n, k, k0) with m <= 4 and q^k <= 2^12: 88 codes.
SMALL_CODES = [
    (m, n, k, k0)
    for m in range(1, 5)
    for n in range(2, (1 << m) + 1)
    for k in range(2, n + 1)
    if (1 << m) ** k <= 1 << 12
    for k0 in range(1, k)
]


class TestVerify:
    def test_reference_code_passes(self):
        verdicts = verify_lecss(build_lecss(8, 0.5))
        assert [v.name for v in verdicts] == ["lecss-distance", "lecss-independence", "lecss-linearity"]
        assert all(v.passed for v in verdicts)
        distance, independence, linearity = verdicts
        assert (independence.worst_value, linearity.worst_value) == (0, 0)
        assert all(v.radius == 0.0 and "mode" not in v.details for v in verdicts)

    def test_default_code_distance_is_n_minus_k_plus_1(self):
        """A sampled scan once reported 4 here: 1,000 random coefficient
        vectors of 8^6 missed every weight-3 codeword."""
        for (n, alpha), want in (((8, 0.5), 3), ((16, 0.125), 2), ((9, 0.25), 2)):
            code = build_lecss(n, alpha)
            distance = verify_lecss(code)[0]
            assert distance.worst_value == want == code.symbol_distance
            assert witness_weight(code, distance) == want

    def test_small_code_exhaustive_distance(self):
        code = LecssCode(3, 8, 4, 2)
        distance, independence, linearity = verify_lecss(code)
        assert distance.passed and independence.passed and linearity.passed
        assert distance.worst_value == distance.gate == code.symbol_distance == scan_distance(code)
        assert witness_weight(code, distance) == code.symbol_distance
        # The golden code's witness: x(x + 1), the product over points 0 and 1.
        assert verify_lecss(LecssCode(2, 4, 3, 1))[0].witness == {"coefficients": [0, 1, 1]}

    def test_closed_form_distance_equals_the_scan_on_every_small_code(self):
        assert len(SMALL_CODES) == 88
        for m, n, k, k0 in SMALL_CODES:
            code = LecssCode(m, n, k, k0)
            distance = verify_lecss(code)[0]
            assert distance.worst_value == scan_distance(code) == code.symbol_distance, (m, n, k, k0)
            assert witness_weight(code, distance) == distance.worst_value, (m, n, k, k0)

    def test_closed_form_distance_equals_the_scan_with_repeated_points(self):
        """Points with repeats: the lightest codeword vanishes on the k - 1
        most frequent of them, so the distance falls below n - k + 1, to 0
        when k - 1 distinct points cover them all."""
        rng = random.Random(7)
        seen = set()
        for m, n, k, k0 in SMALL_CODES:
            code = LecssCode(m, n, k, k0)
            distinct = rng.randint(1, n - 1)  # so some point repeats
            code.points = [rng.randrange(distinct) for _ in range(n)]
            distance = verify_lecss(code)[0]
            assert distance.worst_value == scan_distance(code), (m, n, k, k0, code.points)
            assert witness_weight(code, distance) == distance.worst_value
            assert distance.worst_value < code.symbol_distance
            seen.add(distance.worst_value > 0)
        assert seen == {False, True}

    def test_toy_concat_outer_code_passes(self):
        verdicts = verify_lecss(LecssParams.for_bits(16, 0.5).build())
        assert all(v.passed for v in verdicts)

    def test_broken_interpolation_fails_linearity_at_its_column(self):
        for col in range(4):
            code = LecssCode(3, 8, 4, 2)
            code._vinv[2][col] ^= 5
            distance, independence, linearity = verify_lecss(code)
            assert distance.passed and independence.passed
            assert not linearity.passed
            assert (linearity.worst_value, linearity.witness) == (1, {"column": col})

    def test_independence_sweep_guarded(self):
        # 16^4 encodings per message over C(64, <=4) index sets.
        with pytest.raises(GuardExceeded, match="independence sweep"):
            verify_lecss(build_lecss(16, 0.5))
