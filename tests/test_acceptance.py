"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 runs at n=12, k=1, t=1024 with radius 0, where each message's
codewords are a uniform 1024-subset of the cube. A Hoeffding union bound
over every marginal cell, computed in the test from its own parameters,
puts the chance that one code misses the 0.15 budget at about 0.0105, and
the test asserts that this bound and the sampling bound
t*2^k*Vol(radius) <= 2^(n-1) still hold.
At t=64 the sampling noise of the codeword sets alone exceeds 0.15.

Criterion 3 is expected to FAIL and runs as stated (n=6, k=2, t=4,
radius 1). No code with t=4 codewords per message can pass, at any n and
k, so its failure is a theorem and not a sampling shortfall:

1. Take a codeword u of a message and a bit i. The adversary that keeps
   bit i and sets every other bit to u's value is neither the identity
   nor constant, so it is tested. It sends every codeword w with
   w_i = u_i to u, which decodes. Detection >= 1/3 with four codewords
   needs two failures, so at least two of the message's codewords differ
   from u on bit i. With u on either side of the bit, every coordinate
   splits 2/2.
2. Every bit is then set in an even number of the four codewords, so
   they XOR to 0: they form the affine plane {w1, w2, w3, w1^w2^w3}.
3. The adversary that flips the bits of w1^w2 swaps w1 with w2 and w3
   with w1^w2^w3. It maps the plane onto itself, every tampered word
   decodes to the same message, and its detection probability is 0.

`tests/test_inner.py::TestCriterion3Infeasible` checks steps 2 and 3 on
every 2/2-balanced 4-set for n from 4 to 6, and checks on this test's
ten codes that every message fails against one of these adversaries.
The failure line names the first failing code's witness.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from nmcode.core import (
    BOTTOM,
    SAME,
    BitWord,
    FiniteDist,
    InfeasibleParams,
    RngSeed,
    confidence_radius,
    statistical_distance,
)
from nmcode.inner import (
    InnerParams,
    sample_inner_code,
    verify_bounded_independence,
    verify_cube_property,
    verify_error_detection,
)
from nmcode.lecss import build_lecss
import split_state_oracle as oracle
from nmcode.lp import min_copy_distance_m1
from nmcode.concat import attack_experiment, build_concat, toy_concat_plan
from nmcode.nmext import (
    FlatSourcePair,
    check_extraction,
    check_strict_nm,
    joint_output_dist,
    relaxed_error_sweep,
    repair_fixed_points,
    sample_random_extractor,
    verify_reduction,
)
from nmcode.tamper import BitTamperFn, case1_family, random_tamper
from nmcode import schemes


def _record(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"CRITERION {num:2d} [{status}] {desc}{suffix}"
    print("\n" + line)
    assert ok, line


def test_criterion_01_block_code_round_trip():
    start = time.monotonic()
    ok = True
    for delta in (0.0, 0.1):  # exclusion radius 0 and 1
        params = InnerParams(n=10, k=4, t=8, delta=delta)
        code = sample_inner_code(params, RngSeed.from_int(1001))
        ok = ok and schemes.roundtrip_exhaustive(code)
    elapsed = time.monotonic() - start
    _record(
        1,
        "block-code round trip, exhaustive over messages x codewords",
        ok and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_02_subcube_failure_property():
    start = time.monotonic()
    params = InnerParams(n=10, k=4, t=8, delta=0.1)  # t*2^k = 2^n / 8
    passes = 0
    for i in range(20):
        code = sample_inner_code(params, RngSeed.from_int(2000 + i))
        if verify_cube_property(code).passed:
            passes += 1
    elapsed = time.monotonic() - start
    _record(
        2,
        "sub-cube decoding-failure >= 1/2, distance-1 neighbour test, >= 18/20 seeds",
        passes >= 18 and elapsed < 300,
        f"{passes}/20 seeds in {elapsed:.1f}s",
    )


def test_criterion_03_error_detection_sweep():
    start = time.monotonic()
    params = InnerParams(n=6, k=2, t=4, delta=0.17)  # exclusion radius 1
    qualified = []
    i = 0
    while len(qualified) < 10 and i < 40:
        try:
            code = sample_inner_code(params, RngSeed.from_int(3000 + i))
        except InfeasibleParams:
            i += 1
            continue
        i += 1
        if schemes.roundtrip_exhaustive(code) and verify_cube_property(code).passed:
            qualified.append(code)
    reports = [verify_error_detection(code) for code in qualified]
    detections = sum(rep.passed for rep in reports)
    elapsed = time.monotonic() - start
    detail = f"{detections}/{len(qualified)} seeds in {elapsed:.1f}s"
    failed = next((rep for rep in reports if not rep.passed), None)
    if failed is not None:
        cex = failed.witness
        detail += (
            f"; first failing code: adversary {cex['adversary']} on message "
            f"{cex['message']} fails with probability {failed.worst_value}"
        )
    _record(
        3,
        "worst-case detection probability >= 1/3 over all 4^6 adversaries, >= 8/10 seeds",
        len(qualified) == 10 and detections >= 8 and elapsed < 120,
        detail,
    )


def test_criterion_04_bounded_independence():
    start = time.monotonic()
    params = InnerParams(n=12, k=1, t=1024, delta=0.0)
    ell, eps = 2, 0.15
    # At radius 0 the sampler draws uniformly among unused words, so each
    # message's codewords form a uniform t-subset of the cube. A j-bit
    # index set stays within eps when each of its 2^j cell frequencies
    # stays within eps / 2^(j-1) of uniform; Hoeffding's bound, which
    # holds for sampling without replacement (Hoeffding 1963, section 6),
    # caps each cell's chance of straying at 2 exp(-2 t a^2). The union
    # over messages, index sets and cells bounds the chance that a code
    # fails; the asserts keep the size where that bound is small and the
    # planner's sampling rule t*2^k*Vol(radius) <= 2^(n-1) holds.
    fail_bound = (1 << params.k) * sum(
        math.comb(params.n, j)
        * (1 << j)
        * 2
        * math.exp(-2 * params.t * (eps / (1 << (j - 1))) ** 2)
        for j in range(1, ell + 1)
    )
    assert params.codeword_count * params.ball_volume() <= 1 << (params.n - 1)
    assert fail_bound <= 1 / 50, fail_bound
    passes = 0
    for i in range(10):
        code = sample_inner_code(params, RngSeed.from_int(4000 + i))
        if verify_bounded_independence(code, ell=ell, eps=eps).passed:
            passes += 1
    elapsed = time.monotonic() - start
    _record(
        4,
        "every pair marginal of every encoding within 0.15 of uniform, >= 9/10 seeds",
        passes >= 9 and elapsed < 10,
        f"{passes}/10 seeds in {elapsed:.1f}s",
    )


def test_criterion_05_outer_code_exactness():
    start = time.monotonic()
    code = build_lecss(8, 0.5)
    assert (code.q, code.n, code.k, code.k0) == (8, 8, 6, 2)
    rng = RngSeed.from_int(5000).stream("criterion5")

    # (a) every pair of symbol coordinates exactly uniform over the 64
    # randomness vectors, for 256 sampled messages.
    pair_uniform = True
    messages = [rng.getrandbits(12) for _ in range(256)]
    for s in messages:
        tuples = [code.encode_symbols(s, [r1, r2]) for r1 in range(8) for r2 in range(8)]
        for i, j in combinations(range(8), 2):
            seen = {(t[i], t[j]) for t in tuples}
            if len(seen) != 64:
                pair_uniform = False

    # (b) every corruption of at most 2 symbol coordinates is caught.
    detect_ok = True
    for _ in range(100):
        word = code.encode_int(rng.getrandbits(12), rng)
        symbols = code.unpack(word)
        for ncorrupt in (1, 2):
            for coords in combinations(range(8), ncorrupt):
                bad = list(symbols)
                for c in coords:
                    bad[c] ^= 1 + rng.randrange(7)
                if code.decode_int(code.pack(bad)) is not None:
                    detect_ok = False

    # (c) linearity on 1000 decodable pairs.
    violations = 0
    for _ in range(1000):
        s1, s2 = rng.getrandbits(12), rng.getrandbits(12)
        w1, w2 = code.encode_int(s1, rng), code.encode_int(s2, rng)
        if code.decode_int(w1 ^ w2) != s1 ^ s2:
            violations += 1

    elapsed = time.monotonic() - start
    _record(
        5,
        "outer code: exact pair uniformity, 2-symbol detection, linearity",
        pair_uniform and detect_ok and violations == 0 and elapsed < 60,
        f"{elapsed:.1f}s",
    )


def test_criterion_06_concatenated_round_trip():
    start = time.monotonic()
    code = build_concat(toy_concat_plan(), RngSeed.from_int(6000))
    rng = RngSeed.from_int(6001).stream("criterion6")
    failures = 0
    for s in range(1 << code.message_bits):
        for _ in range(100):
            if code.decode_int(code.encode_int(s, rng)) != s:
                failures += 1
    elapsed = time.monotonic() - start
    _record(
        6,
        "concatenated round trip over all messages x 100 draws",
        failures == 0 and elapsed < 60,
        f"{elapsed:.1f}s",
    )


def test_criterion_07_frozen_payload_message_independence():
    start = time.monotonic()
    code = build_concat(toy_concat_plan(t_block=2), RngSeed.from_int(7000))
    rng = random.Random(7001)
    all_equal = True
    for name, f in case1_family(code, 10, rng):
        dists = [code.exact_outcome_dist(f, s) for s in range(1 << code.message_bits)]
        if not all(d == dists[0] for d in dists[1:]):
            all_equal = False
    elapsed = time.monotonic() - start
    _record(
        7,
        "frozen-payload adversaries: exact outcome equality across all messages",
        all_equal and elapsed < 600,
        f"10 adversaries in {elapsed:.1f}s",
    )


def test_criterion_08_tampering_fuzz():
    start = time.monotonic()
    code = build_concat(toy_concat_plan(), RngSeed.from_int(8000))
    gen = RngSeed.from_int(8001).stream("criterion8.adversaries")
    samples = 10_000
    radius = confidence_radius(samples)
    worst = 0.0
    nmsg = 16
    for i in range(200):
        raw = [gen.random() for _ in range(3)]
        total = sum(raw)
        f = random_tamper(code.block_bits, tuple(r / total for r in raw), gen)
        seed = RngSeed.from_int(8100 + i)
        msgs = [gen.getrandbits(code.message_bits) for _ in range(nmsg)]
        report = attack_experiment(
            code, f, messages=msgs, samples=samples, seed=seed, adversary_id=f"fuzz-{i}"
        )
        worst = max(worst, report.eps_hat)
    elapsed = time.monotonic() - start
    _record(
        8,
        "200 random adversaries: worst per-message error within 0.25 + radius",
        worst <= 0.25 + radius and elapsed < 900,
        f"worst {float(worst):.4f}, radius {radius:.4f}, {elapsed:.0f}s",
    )


def test_criterion_09_extractor_reduction():
    start = time.monotonic()
    # The reference-minimizer, the closed form on the count kernel's
    # output, is validated against a brute-force grid of the Fraction-dict
    # distance before being trusted inside the reduction bound.
    grid_ok = True
    steps = 50
    for i in range(3):
        table = sample_random_extractor(4, 1, RngSeed.from_int(9300 + i))
        rng = random.Random(9400 + i)
        f1 = [rng.randrange(16) for _ in range(16)]
        f2 = [rng.randrange(16) for _ in range(16)]
        (c00, c01), (c10, c11) = joint_output_dist(table, FlatSourcePair.full(4), f1, f2)
        num, den = min_copy_distance_m1(c01, c11, c00 + c01, c10 + c11, 256)
        opt = Fraction(int(num), int(den))
        joint = oracle.joint_output_dist(table, FlatSourcePair.full(4), f1, f2)
        marg = oracle.first_marginal(joint)
        grid_min = None
        for u in range(steps + 1):
            for v in range(steps + 1 - u):
                cand = {
                    0: Fraction(u, steps),
                    1: Fraction(v, steps),
                    SAME: Fraction(steps - u - v, steps),
                }
                val = oracle.copy_distance(joint, marg, cand, [0, 1])
                if grid_min is None or val < grid_min:
                    grid_min = val
        if not (opt <= grid_min <= opt + Fraction(2, steps)):
            grid_ok = False

    all_within = True
    worst_margin = None
    for i in range(20):
        table = sample_random_extractor(4, 1, RngSeed.from_int(9000 + i))
        verdict = verify_reduction(table, adversaries=100, seed=RngSeed.from_int(9100 + i)).verdict
        all_within = all_within and verdict.passed
        margin = float(-verdict.worst_value)  # the least slack, bound - code_error, of the rows
        if worst_margin is None or margin < worst_margin:
            worst_margin = margin
    elapsed = time.monotonic() - start
    _record(
        9,
        "code from extractor: exact error <= extractor error x (2^k + 1)",
        grid_ok and all_within and elapsed < 600,
        f"20 tables x 100 adversaries, min slack {worst_margin:.4f}, {elapsed:.0f}s",
    )


def _consistent_relaxed_error(table, f1, f2, k=3):
    """Largest-support sweep consistent with its own entropy reduction:
    the measured error must cover flat sources with min-entropy at least
    k - log2(1/error), i.e. supports of at least 2^k * error points."""
    sigma = 1 << k
    while True:
        eps, _ = relaxed_error_sweep(table, f1, f2, min_support=sigma)
        if eps <= 0:
            required = 1
        else:
            required = max(1, math.ceil((1 << k) * eps))
        if required >= sigma:
            return eps
        sigma = required


def test_criterion_10_relaxed_to_strict_factor():
    start = time.monotonic()
    rng = random.Random(10_000)
    ok = True
    checked = 0
    for i in range(4):
        table = sample_random_extractor(3, 1, RngSeed.from_int(10_100 + i))
        for j in range(3):
            f1 = [rng.randrange(8) for _ in range(8)]
            f2 = [rng.randrange(8) for _ in range(8)]
            f1_rep = repair_fixed_points(f1, 8)
            f2_rep = repair_fixed_points(f2, 8)
            eps_rel = _consistent_relaxed_error(table, f1_rep, f2_rep)
            strict = check_strict_nm(table, FlatSourcePair.full(3), f1, f2)
            checked += 1
            if max(strict.extraction_distance, *strict.optimal_distances.values()) > 4 * eps_rel:
                ok = False
    elapsed = time.monotonic() - start
    _record(
        10,
        "strict error <= 4x relaxed error at reduced entropies, every instance",
        ok and checked == 12 and elapsed < 600,
        f"{checked} instances in {elapsed:.0f}s",
    )
