import io
import random
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest

from nmcode.core import (
    BOTTOM,
    SAME,
    BitWord,
    FiniteDist,
    GuardExceeded,
    InfeasibleParams,
    RngSeed,
    Verdict,
    statistical_distance,
)
from nmcode import core, inner
from nmcode.inner import (
    InnerCode,
    InnerParams,
    binary_entropy,
    binary_entropy_inv,
    plan_inner_params,
    sample_inner_code,
    verify_bounded_independence,
    verify_cube_property,
    verify_error_detection,
)
from nmcode.tamper import FLIP, SET0, SET1, BitTamperFn, enumerate_bit_tampers
from nmcode import schemes


def min_pairwise_distance(code):
    """Least Hamming distance between two codewords; n + 1 with fewer than two."""
    words = [w for ws in code.codebook for w in ws]
    return min(((a ^ b).bit_count() for a, b in combinations(words, 2)), default=code.params.n + 1)


class TestEntropyInverse:
    def test_inverse_composes_with_entropy(self):
        for y in (0.01, 0.1, 0.3, 0.5, 0.9, 1.0):
            p = binary_entropy_inv(y)
            assert abs(binary_entropy(p) - y) < 1e-9
            assert 0 <= p <= 0.5

    def test_known_anchor(self):
        # Bisection oracle: entropy 0.1 inverts to about 0.0130.
        assert abs(binary_entropy_inv(0.1) - 0.013) < 5e-4


class TestPlanner:
    def test_small_slack_small_block_collapses_radius(self):
        plan = plan_inner_params(0.3, 10)
        assert plan.params.k == 7
        assert 0.012 < plan.delta < 0.015
        assert plan.delta_effective == 0.0  # radius floor(delta*n) = 0

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError, match="alpha must lie in"):
            plan_inner_params(1.0, 10)
        with pytest.raises(ValueError, match="n must be positive"):
            plan_inner_params(0.5, 0)

    def test_degenerate_message_length_rejected(self):
        with pytest.raises(InfeasibleParams):
            plan_inner_params(0.95, 10)  # k = floor(0.5) = 0

    def test_feasibility_cap_on_t(self):
        plan = plan_inner_params(0.5, 12)
        assert plan.params.k == 6
        assert plan.t_cap == (1 << 11) // (1 << 6)  # 32 at radius 0
        assert plan.params.t <= 32
        assert plan.delta_effective == 0.0

    def test_epsilon_formula(self):
        plan = plan_inner_params(0.5, 12)
        assert plan.epsilon == pytest.approx(2.0 ** (-0.5 * 12 / 27))

    def test_t_override_validated(self):
        with pytest.raises(InfeasibleParams):
            plan_inner_params(0.5, 12, t_override=33)


class TestParams:
    def test_packing_bound_enforced(self):
        with pytest.raises(InfeasibleParams):
            InnerParams(n=4, k=3, t=3)

    def test_radius_floor(self):
        assert InnerParams(n=10, k=2, t=2, delta=0.1).radius == 1
        assert InnerParams(n=10, k=2, t=2, delta=0.09).radius == 0


class TestSampling:
    def test_full_packing_is_total_bijection(self):
        # t*2^k = 2^n with radius 0 forces every word to be a codeword.
        params = InnerParams(n=4, k=4, t=1, delta=0.0)
        code = sample_inner_code(params, RngSeed.from_int(0))
        assert sorted(w for ws in code.codebook for w in ws) == list(range(16))
        assert all(code.decode_int(w) is not None for w in range(16))

    def test_small_code_counts(self):
        params = InnerParams(n=4, k=1, t=2, delta=0.0)
        code = sample_inner_code(params, RngSeed.from_int(1))
        words = [w for ws in code.codebook for w in ws]
        assert len(set(words)) == 4
        hits = sum(code.decode_int(w) is not None for w in range(16))
        assert hits == 4

    def test_determinism(self):
        params = InnerParams(n=10, k=4, t=8, delta=0.1)
        a = sample_inner_code(params, RngSeed.from_int(2))
        b = sample_inner_code(params, RngSeed.from_int(2))
        assert a.codebook == b.codebook
        c = sample_inner_code(params, RngSeed.from_int(3))
        assert a.codebook != c.codebook

    def test_exclusion_radius_respected(self):
        params = InnerParams(n=10, k=4, t=8, delta=0.1)
        code = sample_inner_code(params, RngSeed.from_int(4))
        assert min_pairwise_distance(code) > params.radius

    def test_crowd_guard_refuses_before_enumerating_the_ball(self, monkeypatch):
        # Radius 8 at n = 40: a ball of 100,146,724 masks, never listed.
        def refuse(n, radius):
            raise AssertionError("the exclusion ball was enumerated")

        monkeypatch.setattr(inner, "_ball_masks", refuse)
        with pytest.raises(GuardExceeded, match="up to 200293448 words"):
            sample_inner_code(InnerParams(n=40, k=1, t=1, delta=0.2), RngSeed.from_int(0))

    def test_overcrowded_params_fail_honestly(self):
        # Radius-2 balls cannot pack 16 codewords into 6-bit space.
        params = InnerParams(n=6, k=2, t=4, delta=0.34)
        with pytest.raises(InfeasibleParams):
            sample_inner_code(params, RngSeed.from_int(5))

    def test_roundtrip_exhaustive(self):
        params = InnerParams(n=8, k=3, t=4, delta=0.13)
        code = sample_inner_code(params, RngSeed.from_int(6))
        assert schemes.roundtrip_exhaustive(code)

    def test_encoder_close_to_uniform_over_codewords(self):
        params = InnerParams(n=8, k=2, t=4, delta=0.0)
        code = sample_inner_code(params, RngSeed.from_int(7))
        rng = RngSeed.from_int(8).stream()
        draws = [BitWord(code.encode_int(1, rng), 8) for _ in range(10_000)]
        emp = FiniteDist.from_samples(draws)
        flat = FiniteDist(
            {BitWord(w, 8): Fraction(1, 4) for w in code.codebook[1]}
        )
        assert float(statistical_distance(emp, flat)) < 0.05

    def test_single_flip_detected_at_positive_radius(self):
        params = InnerParams(n=10, k=4, t=8, delta=0.1)
        code = sample_inner_code(params, RngSeed.from_int(9))
        for words in code.codebook:
            for w in words:
                for i in range(10):
                    assert code.decode_int(w ^ (1 << i)) is None

    def test_serialization_round_trip(self):
        params = InnerParams(n=9, k=3, t=4, delta=0.12)
        code = sample_inner_code(params, RngSeed.from_int(10))
        buf = io.BytesIO()
        code.save(buf)
        buf.seek(0)
        back = InnerCode.load(buf)
        assert back.codebook == code.codebook
        assert back.params == code.params
        assert back.seed == code.seed

    @pytest.mark.parametrize("params, seed", [
        (InnerParams(n=3, k=1, t=2), None),  # saved without a seed, loaded without one
        (InnerParams(n=70, k=1, t=2), RngSeed.from_int(11)),  # codewords wider than 64 bits
    ])
    def test_round_trip_keeps_the_seed_and_wide_codewords(self, params, seed):
        code = InnerCode(params, sample_inner_code(params, RngSeed.from_int(12)).codebook, seed)
        buf = io.BytesIO()
        code.save(buf)
        back = InnerCode.load(io.BytesIO(buf.getvalue()))
        assert (back.params, back.codebook, back.seed) == (params, code.codebook, seed)
        assert max(w for words in back.codebook for w in words).bit_length() <= params.n

    def test_load_rejects_headers_without_the_params_fields(self):
        for header in (b'{"n": 3, "k": 1, "t": 2}', b"[3, 1, 2, 0.0]", b'{"n": "3", "k": 1, "t": 2, "delta": 0.0}'):
            with pytest.raises(ValueError, match='needs the fields "n", "k", "t" and "delta"'):
                InnerCode.load(io.BytesIO(header + b"\n\0"))

    def test_load_rejects_files_the_header_does_not_describe(self):
        buf = io.BytesIO()
        sample_inner_code(InnerParams(8, 4, 4), RngSeed.from_int(2)).save(buf)
        raw = buf.getvalue()
        for data, match in (
            (raw[:-1], "inner code bitstream holds 63 bytes, not the 64 of its header"),
            (raw + b"\0", "inner code bitstream holds 65 bytes, not the 64 of its header"),
            (raw[:12], "inner code header is not a JSON line"),
            (raw[:8], "inner code header is not a JSON line"),
        ):
            with pytest.raises(ValueError, match=match):
                InnerCode.load(io.BytesIO(data))

    def test_malformed_codebook_rejected(self):
        params = InnerParams(n=3, k=1, t=2)
        for codebook, match in (
            ([[0, 1], [2, 3], [4, 5]], r"3 messages, not 2\^1"),
            ([[0, 1], [2]], "message 1 holds 1 codewords, not t=2"),
            ([[0, 9], [2, 3]], r"codeword 9 of message 0 lies outside \[0, 2\^3\)"),
        ):
            with pytest.raises(ValueError, match=match):
                InnerCode(params, codebook)


class TestCubeProperty:
    def test_total_decoder_fails(self):
        code = InnerCode(InnerParams(n=3, k=3, t=1), [[s] for s in range(8)])
        rep = verify_cube_property(code)
        assert not rep.passed
        assert rep.worst_value == 0
        assert set(rep.witness) == {"frozen_mask", "frozen_values"}

    def test_sparse_spread_code_passes(self):
        params = InnerParams(n=10, k=4, t=8, delta=0.1)
        code = sample_inner_code(params, RngSeed.from_int(11))
        rep = verify_cube_property(code)
        assert rep.passed and rep.worst_value == Fraction(1, 2)
        # The first codeword's size-2 cube across bit 0.
        mask = (1 << 10) - 2
        assert rep.witness == {"frozen_mask": mask, "frozen_values": code.codebook[0][0] & mask}

    def test_exact_fraction_on_handmade_code(self):
        # Codewords 000 and 011: the cube freezing bit0=0 holds both of
        # its four words... failure fraction = 2/4.
        code = InnerCode(InnerParams(n=3, k=1, t=1), [[0b000], [0b011]])
        rep = verify_cube_property(code)
        assert rep.passed
        assert rep.worst_value == Fraction(1, 2)

    def test_n13_codes_equal_oracle(self):
        sparse = sample_inner_code(InnerParams(n=13, k=1, t=4), RngSeed.from_int(4250))
        dense = InnerCode(InnerParams(n=13, k=1, t=2), [[0, 1], [2, 3]])
        for code in (sparse, dense):
            assert verify_cube_property(code) == oracle_cube_property(code)
        assert verify_cube_property(sparse).passed and not verify_cube_property(dense).passed

    def test_decode_table_guard_stops_n21(self):
        wide = InnerCode(InnerParams(n=21, k=1, t=1), [[0], [3]])
        with pytest.raises(GuardExceeded, match="decode table"):
            verify_cube_property(wide)
        assert wide._tables is None


class TestBoundedIndependence:
    def test_balanced_full_packing_single_index_exact(self):
        # Full packing with complementary pairs: every single-bit marginal
        # is exactly uniform.
        code = InnerCode(
            InnerParams(n=2, k=1, t=2), [[0b00, 0b11], [0b01, 0b10]]
        )
        rep = verify_bounded_independence(code, ell=1, eps=0.0)
        assert rep.passed and rep.worst_value == 0

    def test_vacuous_at_order_zero(self):
        code = InnerCode(InnerParams(n=2, k=1, t=1), [[0], [3]])
        rep = verify_bounded_independence(code, ell=0, eps=0.0)
        assert rep.passed and rep.details["vacuous"]

    def test_negative_eps_rejected(self):
        code = InnerCode(InnerParams(n=2, k=1, t=1), [[0], [3]])
        with pytest.raises(ValueError, match="eps"):
            verify_bounded_independence(code, ell=1, eps=-1.0)

    def test_worst_case_reported_with_witness(self):
        code = InnerCode(InnerParams(n=2, k=1, t=1), [[0], [3]])
        rep = verify_bounded_independence(code, ell=1, eps=0.1)
        assert not rep.passed
        assert rep.worst_value == Fraction(1, 2)
        assert rep.witness in ({"message": 0, "indices": [0]}, {"message": 0, "indices": [1]})

    def test_correlated_code_fails_at_acceptance_size(self):
        # Control for acceptance criterion 4's size: every codeword repeats
        # bit 0 in bit 1, so the (0, 1) marginal sits on {00, 11} at
        # distance 1/2 from uniform however many codewords there are.
        words = [w for w in range(1 << 12) if (w & 1) == (w >> 1) & 1]
        random.Random(24).shuffle(words)
        code = InnerCode(
            InnerParams(n=12, k=1, t=1024), [words[:1024], words[1024:]]
        )
        rep = verify_bounded_independence(code, ell=2, eps=0.15)
        assert not rep.passed
        assert rep.worst_value == Fraction(1, 2)
        assert rep.witness["indices"] == [0, 1]

    def test_distance_matches_direct_enumeration(self):
        params = InnerParams(n=8, k=2, t=8, delta=0.0)
        code = sample_inner_code(params, RngSeed.from_int(12))
        rep = verify_bounded_independence(code, ell=2, eps=1.0)
        # Recompute the reported worst marginal independently.
        worst = Fraction(0)
        for msg, words in enumerate(code.codebook):
            for i in range(8):
                for j in range(i + 1, 8):
                    counts = {}
                    for w in words:
                        v = ((w >> i) & 1) | (((w >> j) & 1) << 1)
                        counts[v] = counts.get(v, 0) + 1
                    acc = sum(
                        abs(Fraction(counts.get(v, 0), 8) - Fraction(1, 4))
                        for v in range(4)
                    )
                    worst = max(worst, acc / 2)
            for i in range(8):
                counts = {}
                for w in words:
                    counts[(w >> i) & 1] = counts.get((w >> i) & 1, 0) + 1
                acc = sum(
                    abs(Fraction(counts.get(v, 0), 8) - Fraction(1, 2))
                    for v in range(2)
                )
                worst = max(worst, acc / 2)
        assert rep.worst_value == worst

    def test_guard(self):
        params = InnerParams(n=10, k=4, t=8, delta=0.0)
        code = sample_inner_code(params, RngSeed.from_int(13))
        with pytest.raises(GuardExceeded):
            verify_bounded_independence(code, ell=5, eps=0.5, guard=100)


class TestErrorDetection:
    def test_identity_and_constants_excluded(self):
        params = InnerParams(n=4, k=1, t=2, delta=0.0)
        code = sample_inner_code(params, RngSeed.from_int(14))
        rep = verify_error_detection(code)
        assert rep.details["adversaries_tested"] == 4**4 - 1 - 2**4

    def test_worst_case_is_min_over_adversary_message(self):
        params = InnerParams(n=6, k=2, t=4, delta=0.17)
        code = sample_inner_code(params, RngSeed.from_int(15))
        rep = verify_error_detection(code)
        # Recompute the witness pair's failure probability independently.
        f = BitTamperFn.from_str(rep.witness["adversary"])
        s = rep.witness["message"]
        misses = sum(
            code.decode_int(f.apply_int(w)) is None for w in code.codebook[s]
        )
        assert Fraction(misses, 4) == rep.worst_value

    def test_guard(self):
        params = InnerParams(n=8, k=2, t=4, delta=0.0)
        code = sample_inner_code(params, RngSeed.from_int(18))
        with pytest.raises(GuardExceeded):
            verify_error_detection(code, guard=100)


class TestReferenceDistribution:
    @staticmethod
    def _code():
        params = InnerParams(n=8, k=3, t=4, delta=0.13)
        return sample_inner_code(params, RngSeed.from_int(19))

    def test_identity_gives_pure_same(self):
        code = self._code()
        ref = schemes.reference_dist(code, BitTamperFn.identity(8))
        assert ref == FiniteDist.point_mass(SAME)

    def test_constant_to_noncodeword_gives_pure_bottom(self):
        code = self._code()
        w = next(v for v in range(256) if code.decode_int(v) is None)
        ref = schemes.reference_dist(code, BitTamperFn.constant(w, 8))
        assert ref == FiniteDist.point_mass(BOTTOM)

    def test_constant_to_codeword_splits_same_mass(self):
        code = self._code()
        target = code.codebook[5][0]
        ref = schemes.reference_dist(code, BitTamperFn.constant(target, 8))
        assert ref.prob(SAME) == Fraction(1, 8)
        assert ref.prob(BitWord(5, 3)) == Fraction(7, 8)

    def test_exact_reference_sums_to_one_without_fixed_points(self):
        code = self._code()
        ref = schemes.reference_dist(code, BitTamperFn.complement(8))
        assert sum(p for _, p in ref.items()) == 1
        assert ref.prob(SAME) == 0  # complement never fixes a word

    def test_sampled_reference_close_to_exact(self):
        code = self._code()
        f = BitTamperFn.from_str("KKF0KKK1")
        exact = schemes.reference_dist(code, f)
        sampled = schemes.reference_dist(
            code, f, samples=20000, rng=RngSeed.from_int(20).stream()
        )
        assert float(statistical_distance(exact, sampled)) < 0.02


class TestNmError:
    @staticmethod
    def _code():
        params = InnerParams(n=8, k=2, t=4, delta=0.13)
        return sample_inner_code(params, RngSeed.from_int(21))

    def test_identity_with_matching_reference_is_zero(self):
        code = self._code()
        f = BitTamperFn.identity(8)
        ref = schemes.reference_dist(code, f)
        assert schemes.nm_error(code, f, ref).value == 0

    def test_adversarial_reference_against_identity_is_one(self):
        code = self._code()
        rep = schemes.nm_error(
            code, BitTamperFn.identity(8), FiniteDist.point_mass(BOTTOM)
        )
        assert rep.value == 1

    def test_sampler_reference_within_constant_of_optimum(self):
        code = self._code()
        for pattern in ("KKF0KKK1", "FFKKKK01", "0KKKKKKK"):
            f = BitTamperFn.from_str(pattern)
            ref = schemes.reference_dist(code, f)
            with_ref = schemes.nm_error(code, f, ref).value
            optimal, _ = schemes.optimal_nm_error(code, f)
            assert optimal <= with_ref
            # On these three patterns the standard sampler's reference stays
            # within a small constant factor of the optimum; in general the
            # gap can be total (the next test).
            assert with_ref <= 3 * optimal + Fraction(1, 100)

    def test_canonical_reference_gap_can_be_total(self):
        # The constant adversary onto message 0's codeword: the canonical
        # reference splits its mass between SAME and message 0, so message
        # 1 sits 1/2 from it, while the point mass on message 0 is exact.
        code = sample_inner_code(InnerParams(6, 1, 8), RngSeed.from_int(1))
        f = BitTamperFn.constant(code.codebook[0][0], 6)
        rep = schemes.nm_error(code, f, schemes.reference_dist(code, f))
        assert rep.per_message == {0: 0, 1: Fraction(1, 2)}
        optimal, _ = schemes.optimal_nm_error(code, f)
        assert optimal == 0

    def test_optimal_reference_beats_random_candidates(self):
        code = self._code()
        f = BitTamperFn.from_str("KF0KK1KK")
        optimal, ref = schemes.optimal_nm_error(code, f)
        assert schemes.nm_error(code, f, ref).value == optimal
        rng = random.Random(22)
        outcomes = [BitWord(v, 2) for v in range(4)] + [BOTTOM, SAME]
        for _ in range(100):
            raw = [rng.randint(0, 9) for _ in outcomes]
            tot = sum(raw) or 1
            cand = FiniteDist(
                {o: Fraction(c, tot) for o, c in zip(outcomes, raw) if c}
            )
            assert schemes.nm_error(code, f, cand).value >= optimal

    def test_confidence_radius_attached_in_sampled_mode(self):
        code = self._code()
        f = BitTamperFn.complement(8)
        ref = schemes.reference_dist(code, f)
        rep = schemes.nm_error(
            code, f, ref, samples=2000, rng=RngSeed.from_int(23).stream()
        )
        assert rep.radius > 0
        assert rep.samples == 2000


class TestSanityAnchors:
    def test_full_packing_code_has_no_detection_at_all(self):
        # Total decoder: no adversary can ever produce a failure, so the
        # detection sweep bottoms out at probability 0.
        code = InnerCode(InnerParams(n=3, k=3, t=1), [[s] for s in range(8)])
        rep = verify_error_detection(code)
        assert not rep.passed
        assert rep.worst_value == 0

    def test_single_codeword_encoder_is_deterministic(self):
        params = InnerParams(n=4, k=2, t=1, delta=0.0)
        code = sample_inner_code(params, RngSeed.from_int(40))
        rng = RngSeed.from_int(41).stream()
        outs = {code.encode_int(2, rng) for _ in range(50)}
        assert outs == {code.codebook[2][0]}


# ---------------------------------------------------------------------------
# Scalar oracles of the cube and detection sweeps
# ---------------------------------------------------------------------------


def oracle_cube_property(code):
    """The dict loop: count codewords per (frozen mask, frozen values) cube
    in (codeword, mask) order, then take the first strict minimum of the
    failure fraction in insertion order. At 1/2, the least possible value
    with no codeword pair (the verifier's proof), the witness is the first
    codeword's cube across bit 0, which must reach it."""
    n = code.params.n
    counts = {}
    for w in (w for ws in code.codebook for w in ws):
        for frozen_mask in range(1 << n):
            key = (frozen_mask, w & frozen_mask)
            counts[key] = counts.get(key, 0) + 1
    worst = Fraction(1)
    witness = None
    full = (1 << n) - 1
    for (mask, vals), hits in counts.items():
        if mask == full:
            continue
        size = 1 << (n - mask.bit_count())
        bottom_frac = Fraction(size - hits, size)
        if bottom_frac < worst:
            worst = bottom_frac
            witness = (mask, vals)
    if worst == Fraction(1, 2):
        witness = (full ^ 1, code.codebook[0][0] & (full ^ 1))
        assert counts[witness] == 1
    return Verdict(
        name="cube-property",
        worst_value=worst,
        gate=Fraction(1, 2),
        at_least=True,
        witness={"frozen_mask": witness[0], "frozen_values": witness[1]},
    )


def oracle_error_detection(code):
    """The per-adversary loop through apply_int and decode_int; the first
    minimum in (adversary, message) order is the witness."""
    p = code.params
    worst = witness = None
    tested = 0
    for f in enumerate_bit_tampers(p.n):
        if f.is_identity() or set(f.actions) <= {SET0, SET1}:
            continue
        tested += 1
        for s, words in enumerate(code.codebook):
            misses = sum(code.decode_int(f.apply_int(w)) is None for w in words)
            frac = Fraction(misses, p.t)
            if worst is None or frac < worst:
                worst = frac
                witness = (f.to_str(), s)
    return Verdict(
        name="error-detection",
        worst_value=worst,
        gate=Fraction(1, 3),
        at_least=True,
        witness={"adversary": witness[0], "message": witness[1]},
        details={"adversaries_tested": tested, "mode": "exhaustive"},
    )


def _sweep_codes():
    """Sampled and handmade codes, passing, failing and tie-heavy."""
    for i, (n, k, t, delta) in enumerate(
        [(6, 2, 4, 0.17), (6, 2, 4, 0.0), (5, 1, 2, 0.0), (6, 3, 8, 0.0), (4, 4, 1, 0.0),
         (4, 1, 2, 0.0), (7, 1, 4, 0.15), (5, 2, 2, 0.2), (3, 1, 2, 0.0), (6, 4, 2, 0.0)]
    ):
        yield sample_inner_code(InnerParams(n=n, k=k, t=t, delta=delta), RngSeed.from_int(4200 + i))
    yield InnerCode(InnerParams(n=3, k=3, t=1), [[s] for s in range(8)])  # total decoder
    yield InnerCode(InnerParams(n=3, k=1, t=1), [[0b000], [0b011]])
    yield InnerCode(InnerParams(n=4, k=1, t=2), [[0b0000, 0b1111], [0b0011, 0b1100]])


class TestSweepOracles:
    def test_cube_reports_equal_oracle(self):
        reports = []
        for code in _sweep_codes():
            rep = verify_cube_property(code)
            assert rep == oracle_cube_property(code), code.codebook
            reports.append(rep)
        big = sample_inner_code(InnerParams(n=10, k=3, t=64), RngSeed.from_int(4220))
        assert verify_cube_property(big) == oracle_cube_property(big)
        assert {r.passed for r in reports} == {True, False}

    def test_detection_reports_equal_oracle(self):
        reports = []
        for code in _sweep_codes():
            rep = verify_error_detection(code)
            assert rep == oracle_error_detection(code), code.codebook
            reports.append(rep)
        # Every code has a zero-failure pair, so the tie-break decides the witness.
        assert len({r.witness["adversary"] for r in reports}) > 5

    def test_chunks_of_one_adversary(self, monkeypatch):
        monkeypatch.setattr(core, "PASS_CELLS", 1)
        for code in list(_sweep_codes())[:4] + list(_sweep_codes())[-3:]:
            assert verify_error_detection(code) == oracle_error_detection(code), code.codebook


def _random_codebooks(count, seed):
    """Seeded codebooks with n from 1 to 7 in three kinds: uniform random
    words; tie-heavy words in Hamming-distance-1 pairs; even-weight words,
    which pass (every cube of size >= 2 is half even-weight words)."""
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 3
        n = 1 + i // 3 % 7
        if kind == 2 and n == 1:
            n = 2  # one even-weight 1-bit word cannot fill two messages
        pool = [w for w in range(1 << n) if kind != 2 or w.bit_count() % 2 == 0]
        k = rng.randint(1, len(pool).bit_length() - 1)
        t = rng.randint(1, max(1, len(pool) >> k + rng.randrange(3)))
        if kind == 1:
            words = []
            for w in rng.sample(range(1 << n), 1 << n):
                for v in (w, w ^ (1 << rng.randrange(n))):
                    if v not in words:
                        words.append(v)
        else:
            words = rng.sample(pool, len(pool))
        words = words[: t << k]
        yield InnerCode(InnerParams(n=n, k=k, t=t), [words[s * t:(s + 1) * t] for s in range(1 << k)])


class TestCubeOracle:
    def test_random_codebooks_equal_oracle(self):
        passed = set()
        for code in _random_codebooks(210, 4260):
            rep = verify_cube_property(code)
            assert rep == oracle_cube_property(code), code.codebook
            passed.add((code.params.n, rep.passed))
        assert {n for n, _ in passed} == set(range(1, 8))
        assert {ok for _, ok in passed} == {True, False}

    def test_oracle_worst_is_zero_or_half_by_min_distance(self):
        # The neighbour test's theorem, checked on the oracle alone: the
        # worst cube fails with fraction 0 or 1/2, and 1/2 exactly when no
        # two codewords lie at distance 1.
        for code in chain(_sweep_codes(), _random_codebooks(210, 4260)):
            rep = oracle_cube_property(code)
            assert rep.worst_value in (0, Fraction(1, 2)), code.codebook
            assert rep.passed == (min_pairwise_distance(code) >= 2), code.codebook

    def test_criterion_2_codes_pass_and_equal_oracle(self):
        for seed in (2000, 2001, 2002):
            code = sample_inner_code(InnerParams(n=10, k=4, t=8, delta=0.1), RngSeed.from_int(seed))
            rep = verify_cube_property(code)
            assert rep.passed
            assert rep == oracle_cube_property(code)


class TestCriterion3Infeasible:
    """The proof in the module docstring of tests/test_acceptance.py: no
    message with t=4 codewords meets detection >= 1/3."""

    def test_balanced_four_sets_are_planes_their_flip_fixes(self):
        counts = {}
        for n in (4, 5, 6):
            sets = np.fromiter(
                chain.from_iterable(combinations(range(1 << n), 4)), dtype=np.int64
            ).reshape(-1, 4)
            balanced = np.ones(len(sets), dtype=bool)
            for b in range(n):
                balanced &= ((sets >> b) & 1).sum(axis=1) == 2
            sets = sets[balanced]
            counts[n] = len(sets)
            assert (np.bitwise_xor.reduce(sets, axis=1) == 0).all()
            flip = sets[:, 0] ^ sets[:, 1]
            assert (np.sort(sets ^ flip[:, None], axis=1) == sets).all()
        assert counts == {4: 52, 5: 320, 6: 1936}

    def test_every_message_of_the_criterion_codes_fails(self):
        params = InnerParams(n=6, k=2, t=4, delta=0.17)
        n = params.n
        qualified = []
        for i in range(40):
            if len(qualified) == 10:
                break
            try:
                code = sample_inner_code(params, RngSeed.from_int(3000 + i))
            except InfeasibleParams:
                continue
            if schemes.roundtrip_exhaustive(code) and verify_cube_property(code).passed:
                qualified.append(code)
        assert len(qualified) == 10
        for code in qualified:
            for s, words in enumerate(code.codebook):
                # Keep bit i and set the rest to u's bits: it sends every
                # codeword agreeing with u on bit i to u.
                advs = [
                    sum((SET0 + (u >> b & 1)) << 2 * b for b in range(n) if b != i)
                    for i in range(n)
                    for u in words
                ]
                # Flip the bits of w1 ^ w2: it maps a balanced set onto itself.
                advs += [
                    sum(FLIP << 2 * b for b in range(n) if (w1 ^ w2) >> b & 1)
                    for w1, w2 in combinations(words, 2)
                ]
                misses, tested = inner._detection_misses(code, np.array(advs, dtype=np.int64))
                assert tested.all()
                assert misses[:, s].min() < 2, (code.codebook, s)
