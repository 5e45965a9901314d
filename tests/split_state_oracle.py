"""Fraction-dict oracles for the split-state checks.

These are the scalar definitions that `nmext.joint_output_dist`,
`lp.min_copy_distance`, `lp.min_copy_distance_m1` and
`nmext.verify_reduction` compute on count arrays: the (output, tampered
output) law as a dict of Fractions built by a Python double loop, the
distance of that law from the explanation induced by a reference
distribution, its exact minimum (closed form at one output bit, the
SAME-marker LP otherwise), and the reduction rows through
`schemes.optimal_nm_error` on the extractor code.
"""

from fractions import Fraction

from nmcode import schemes
from nmcode.core import SAME, RngSeed
from nmcode.lp import same_minimax
from nmcode.nmext import ExtractorCode, FlatSourcePair, check_extraction
from nmcode.tamper import SplitStateTamperFn

_ZERO = Fraction(0)
_ONE = Fraction(1)


def joint_output_dist(ext, src, f1, f2):
    """Joint law {(output, tampered output): probability}; a half-tampering
    given as None is the identity."""
    counts = {}
    n = ext.n
    for x in src.xs:
        tx = f1[x] if f1 is not None else x
        for y in src.ys:
            ty = f2[y] if f2 is not None else y
            key = (ext.entries[(x << n) | y], ext.entries[(tx << n) | ty])
            counts[key] = counts.get(key, 0) + 1
    total = src.pairs
    return {k: Fraction(c, total) for k, c in counts.items()}


def joint_from_counts(counts):
    """The dict law of a (2^m, 2^m) count matrix, zero cells left out."""
    total = int(counts.sum())
    return {
        (a, b): Fraction(int(c), total)
        for a, row in enumerate(counts)
        for b, c in enumerate(row)
        if c
    }


def first_marginal(joint):
    marg = {}
    for (a, _), p in joint.items():
        marg[a] = marg.get(a, _ZERO) + p
    return marg


def product_with_uniform_distance(joint, m):
    """Distance between the joint and (uniform first coordinate) x (same
    second marginal)."""
    second = {}
    for (_, b), p in joint.items():
        second[b] = second.get(b, _ZERO) + p
    unif = Fraction(1, 1 << m)
    acc = _ZERO
    for b, pb in second.items():
        for a in range(1 << m):
            acc += abs(joint.get((a, b), _ZERO) - unif * pb)
    return acc / 2


def copy_distance(joint, marginal, d, outputs):
    """Statistical distance between `joint` and the explanation induced by d.

    d assigns mass to each output value and to SAME; the explanation places
    probability p_a * (d[b] + d[SAME]*[a==b]) on the pair (a, b).
    """
    ds = Fraction(d.get(SAME, 0))
    acc = _ZERO
    for a, pa in marginal.items():
        for b in outputs:
            model = pa * (Fraction(d.get(b, 0)) + (ds if a == b else _ZERO))
            acc += abs(joint.get((a, b), _ZERO) - model)
    return acc / 2


def min_copy_distance(joint, marginal, outputs):
    """Exact minimizer of `copy_distance`: one `same_minimax` group holding
    every (a, b) cell with weight p_a."""
    cells = [
        (bi, Fraction(pa), Fraction(joint.get((a, b), _ZERO)), a == b)
        for a, pa in marginal.items()
        if pa > 0
        for bi, b in enumerate(outputs)
    ]
    value, x = same_minimax([cells], len(outputs))
    d = {b: x[bi] for bi, b in enumerate(outputs)}
    d[SAME] = x[len(outputs)]
    return value, d


def min_copy_distance_m1(joint, marginal):
    """Closed form of `min_copy_distance` for a single output bit: the
    objective |J(0,1) - p0*d1| + |J(1,0) - p1*d0| is 0 when the
    unconstrained optimum fits inside the simplex, and otherwise is
    minimized on the d_same = 0 face at a breakpoint."""
    p0 = Fraction(marginal.get(0, _ZERO))
    p1 = Fraction(marginal.get(1, _ZERO))
    j01 = Fraction(joint.get((0, 1), _ZERO))
    j10 = Fraction(joint.get((1, 0), _ZERO))
    if p0 == 0 or p1 == 0:
        if p0 == 0 and p1 == 0:
            return _ZERO, {0: _ZERO, 1: _ZERO, SAME: _ONE}
        if p0 == 0:
            u = j10 / p1
            return _ZERO, {0: u, 1: _ZERO, SAME: _ONE - u}
        v = j01 / p0
        return _ZERO, {0: _ZERO, 1: v, SAME: _ONE - v}
    u0 = j10 / p1
    v0 = j01 / p0
    if u0 + v0 <= 1:
        return _ZERO, {0: u0, 1: v0, SAME: _ONE - u0 - v0}

    def g(v):
        return abs(j01 - p0 * v) + abs(j10 - p1 * (_ONE - v))

    candidates = {_ZERO, _ONE}
    for v in (v0, _ONE - u0):
        if _ZERO <= v <= _ONE:
            candidates.add(v)
    best_v = min(candidates, key=g)
    return g(best_v), {0: _ONE - best_v, 1: best_v, SAME: _ZERO}


def strict_distance(joint, m):
    """Minimum distance to an explanation by an independent reference
    output plus a SAME marker: closed form at m = 1, the LP above."""
    marginal = first_marginal(joint)
    if m == 1:
        return min_copy_distance_m1(joint, marginal)
    return min_copy_distance(joint, marginal, list(range(1 << m)))


def reduction_rows(ext, adversaries, seed=None):
    """(extractor_error, code_error, bound) per adversary on the RNG stream
    of `nmext.verify_reduction`: the dict strict distance on full sources
    and `schemes.optimal_nm_error` of the extractor code."""
    rng = (seed or RngSeed.from_int(0)).stream("nmext.reduction")
    full = FlatSourcePair.full(ext.n)
    eps_ext = check_extraction(ext, full)
    code = ExtractorCode(ext)
    size = 1 << ext.n
    rows = []
    for _ in range(adversaries):
        f1 = [rng.randrange(size) for _ in range(size)]
        f2 = [rng.randrange(size) for _ in range(size)]
        strict, _ = strict_distance(joint_output_dist(ext, full, f1, f2), ext.m)
        eps_f = max(eps_ext, strict)
        code_err, _ = schemes.optimal_nm_error(code, SplitStateTamperFn(f1, f2))
        rows.append((eps_f, code_err, eps_f * ((1 << ext.m) + 1)))
    return rows
