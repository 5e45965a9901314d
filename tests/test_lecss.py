import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from nmcode.core import BOTTOM, BitWord, InfeasibleParams, RngSeed
from nmcode.gf import GF2m, IRREDUCIBLE_POLY, field, invert_matrix
from nmcode.lecss import LecssCode, build_lecss, build_lecss_bits, verify_lecss


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
        assert code.independent_bits == 2
        assert code.message_bits == 12 and code.block_bits == 24

    def test_rate_meets_slack_bound(self):
        for n, alpha in [(8, 0.5), (16, 0.25), (16, 0.5), (32, 0.25)]:
            code = build_lecss(n, alpha)
            assert Fraction(code.k - code.k0, code.n) >= Fraction(1) - Fraction(alpha).limit_denominator(64)

    def test_no_secrecy_randomness_rejected(self):
        with pytest.raises(InfeasibleParams):
            build_lecss(4, 0.3)  # k0 = floor(0.6) = 0

    def test_bit_target_factorization(self):
        code = build_lecss_bits(16, 0.5)
        assert (code.q, code.n, code.k, code.k0) == (16, 4, 3, 1)
        assert code.block_bits == 16 and code.message_bits == 8
        with pytest.raises(InfeasibleParams):
            build_lecss_bits(7, 0.5)

    def test_vandermonde_square_minors_invertible(self):
        # Any k0 columns of the first-k0-row block stay independent.
        code = build_lecss(8, 0.5)
        fld = code.field
        for cols in combinations(range(8), 2):
            mat = [[code.generator[i][j] for j in cols] for i in range(2)]
            assert invert_matrix(fld, mat) is not None

    def test_descriptor_round_trip(self):
        code = build_lecss(8, 0.5)
        back = LecssCode.from_descriptor(code.descriptor())
        assert back.generator == code.generator


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

    def test_decode_rejects_wrong_length(self):
        code = self.code()
        with pytest.raises(ValueError):
            code.decode(BitWord(0, 23))


class TestVerify:
    def test_reference_code_passes(self):
        rep = verify_lecss(build_lecss(8, 0.5), trials=400, seed=RngSeed.from_int(4))
        assert rep.passed
        assert rep.details["distance_mode"] == "sampled"  # 8^6 vectors > guard

    def test_small_code_exhaustive_distance(self):
        code = LecssCode(3, 8, 4, 2)
        rep = verify_lecss(code, trials=100, seed=RngSeed.from_int(5))
        assert rep.passed
        assert rep.details["distance_mode"] == "exhaustive"
        assert rep.worst_value == code.symbol_distance  # MDS: met exactly

    def test_toy_concat_outer_code_passes(self):
        rep = verify_lecss(build_lecss_bits(16, 0.5), trials=300, seed=RngSeed.from_int(6))
        assert rep.passed
