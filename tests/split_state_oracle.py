"""Fraction-dict oracles for the split-state checks.

These are the scalar definitions that `nmext.joint_output_dist`,
`lp.min_copy_distance`, `lp.min_copy_distance_m1` and
`nmext.verify_reduction` compute on count arrays: the (output, tampered
output) law as a dict of Fractions built by a Python double loop, the
distance of that law from the explanation induced by a reference
distribution, its exact minimum (closed form at one output bit, the
SAME-marker LP in its two-inequality-rows form, `two_row_minimax`,
otherwise), and the reduction rows through the dict `optimal_nm_error` of
`bit_tamper_oracle` on the extractor code, which solves its minimax with
`two_row_minimax` too.

It also holds the scheme-shaped side of the reduction, which
`nmext.verify_reduction` never builds: `ExtractorCode`, the split-state
code whose decoder is the extractor table, with the batch interface of
`schemes`, and `random_split_tamper`, the random split-state adversaries
of the batch and scheme tests.
"""

import random
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

import bit_tamper_oracle
from minimax_oracle import two_row_minimax
from nmcode.core import SAME, RngSeed
from nmcode.nmext import ExtractorTable, FlatSourcePair, check_extraction
from nmcode.tamper import SplitStateTamperFn

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _swap_halves(t, n: int):
    """Table index (x << n) | y to word x | (y << n), and back; works on
    ints and integer arrays alike."""
    return ((t & ((1 << n) - 1)) << n) | (t >> n)


class ExtractorCode:
    """Split-state scheme whose decoder is the extractor table.

    Codeword layout: first source in the low half, so word x | (y << n)
    decodes to entries[(x << n) | y]. The encodings of every output lie
    end to end in `flat`, output s at `starts[s]` with `sizes[s]` words in
    table order; `by_word` is the output of every word. Raises
    InfeasibleParams when an output has no encoding.
    """

    def __init__(self, ext: ExtractorTable):
        self.ext = ext
        self.message_bits = ext.m
        self.block_bits = 2 * ext.n
        n = ext.n
        entries = ext.as_array().ravel()
        self.sizes = ext.preimage_sizes
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.flat = _swap_halves(np.argsort(entries, kind="stable"), n).astype(np.uint64)
        self.by_word = entries[_swap_halves(np.arange(1 << self.block_bits, dtype=np.int64), n)]

    def encode_int(self, s: int, rng: random.Random) -> int:
        return int(self.flat[self.starts[s] + rng.randrange(int(self.sizes[s]))])

    def decode_int(self, w: int) -> Optional[int]:
        return int(self.ext.as_array().flat[_swap_halves(w, self.ext.n)])

    def iter_encodings_int(self, s: int) -> Iterable[int]:
        for t in np.flatnonzero(self.ext.as_array() == s).tolist():
            yield _swap_halves(t, self.ext.n)

    def encoding_count(self, s):
        """Encodings of s; for an int64 array of messages, one count per entry."""
        return self.sizes[s] if np.ndim(s) else int(self.sizes[s])

    def encodings_many(self, s: int) -> np.ndarray:
        return self.flat[self.starts[s] : self.starts[s] + self.sizes[s]]

    def encode_many(self, msgs: np.ndarray, index: np.ndarray) -> np.ndarray:
        return self.flat[self.starts[msgs] + index]

    def decode_many(self, words: np.ndarray) -> np.ndarray:
        return self.by_word.take(words.astype(np.intp))


def random_split_tamper(n: int, fixed_point_free: bool, rng: random.Random) -> SplitStateTamperFn:
    """Uniform random half tables of an n-bit split-state adversary; with
    `fixed_point_free`, each entry equal to its index is redrawn until it
    differs. Raises ValueError on odd n, and on n = 0 with
    `fixed_point_free`, where a one-entry half has no other value."""
    if n % 2:
        raise ValueError("split-state adversaries need an even length")
    size = 1 << (n // 2)
    if fixed_point_free and size < 2:
        raise ValueError("a one-entry half table has no fixed-point-free value")
    tables = []
    for _ in range(2):
        t = []
        for x in range(size):
            v = rng.randrange(size)
            while fixed_point_free and v == x:
                v = rng.randrange(size)
            t.append(v)
        tables.append(t)
    return SplitStateTamperFn(tables[0], tables[1])


def joint_output_dist(ext, src, f1, f2):
    """Joint law {(output, tampered output): probability}; a half-tampering
    given as None is the identity."""
    counts = {}
    n = ext.n
    entries = ext.as_array().ravel().tolist()
    for x in src.xs:
        tx = f1[x] if f1 is not None else x
        for y in src.ys:
            ty = f2[y] if f2 is not None else y
            key = (entries[(x << n) | y], entries[(tx << n) | ty])
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


def as_reference(d):
    """`lp.min_copy_distance`'s reference [d_0, ..., d_same] as the
    {output: mass, SAME: mass} dict that `copy_distance` reads."""
    return {**dict(enumerate(d[:-1])), SAME: d[-1]}


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
    """Exact minimizer of `copy_distance`: one `two_row_minimax` group holding
    every (a, b) cell with weight p_a."""
    cells = [
        (bi, Fraction(pa), Fraction(joint.get((a, b), _ZERO)), a == b)
        for a, pa in marginal.items()
        if pa > 0
        for bi, b in enumerate(outputs)
    ]
    value, x = two_row_minimax([cells], len(outputs))
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
    and the dict `optimal_nm_error` of the extractor code."""
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
        code_err, _ = bit_tamper_oracle.optimal_nm_error(code, SplitStateTamperFn(f1, f2))
        rows.append((eps_f, code_err, eps_f * ((1 << ext.m) + 1)))
    return rows
