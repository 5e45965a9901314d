"""Two-source non-malleable extractor experiments on explicit tables.

Everything here is exact-by-enumeration behind hard size guards: an
extractor on two n-bit sources is a full lookup table with 2^(2n) entries
(n <= 8). Checks cover plain extraction, the relaxed non-malleability
conditions for fixed-point-free tampering, the strict condition for
arbitrary tampering via the distance-minimizing reference distribution,
and the extractor-to-code reduction with its (2^k + 1) error blowup.

Every split-state verdict reads integer counts. `joint_output_dist` is
the one count kernel: the (2^m, 2^m) matrix of (output, tampered output)
cells of a flat source pair, from one `np.bincount`. The relaxed and
strict checks and the reduction read their distances off it, through
`lp.min_copy_distance_m1` on plain ints at one output bit and the `lp`
minimax LPs otherwise. Source sweeps range over flat sources only; a flat
pair is given by the two supports. The sweep over every support pair gets
its counts from incidence-matrix products instead, runs the closed form on
int64 arrays of them, and finds the largest value by cross-multiplication:
a float quotient only proposes a candidate and integers decide, so
reported distances stay exact Fractions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import core
from .core import GuardExceeded, InfeasibleParams, RngSeed, uniform_distance
from .lp import message_minimax, min_copy_distance, min_copy_distance_m1

EXTRACTION_GUARD_N = 8
STRICT_GUARD_N = 6
# Flat source pairs one relaxed_error_sweep may visit.
DEFAULT_SWEEP_GUARD = 1 << 20

PATTERNS = ("first-only", "second-only", "both")


def _check_widths(n: int, m: int) -> None:
    """Raise GuardExceeded past the table guard, and ValueError for m < 0
    or m > 2n: an m-bit output of 2n input bits cannot cover its range."""
    if n > EXTRACTION_GUARD_N:
        raise GuardExceeded(f"n = {n} exceeds table guard {EXTRACTION_GUARD_N}")
    if not 0 <= m <= 2 * n:
        raise ValueError(f"m = {m} must lie in [0, 2n] = [0, {2 * n}]")


class ExtractorTable:
    """Explicit function of two n-bit inputs to an m-bit output."""

    def __init__(self, n: int, m: int, entries: Sequence[int], seed: Optional[RngSeed] = None):
        _check_widths(n, m)
        size = 1 << (2 * n)
        if len(entries) != size:
            raise ValueError(f"need {size} entries, got {len(entries)}")
        top = 1 << m
        ent = list(entries)
        if any(not 0 <= e < top for e in ent):
            raise ValueError("entry out of range")
        self.n = n
        self.m = m
        self.entries = ent
        self.seed = seed
        self._array = np.asarray(ent, dtype=np.int64).reshape(1 << n, 1 << n)
        self._array.flags.writeable = False

    def lookup(self, x: int, y: int) -> int:
        return self.entries[(x << self.n) | y]

    def as_array(self) -> np.ndarray:
        """The table as a read-only (2^n, 2^n) int64 array, built once."""
        return self._array

    # -- serialization: one JSON header line, then a little-endian bitstream

    def save(self, fp) -> None:
        header = {"n": self.n, "m": self.m}
        if self.seed is not None:
            header["seed"] = self.seed.to_json()
        fp.write(json.dumps(header).encode() + b"\n")
        acc = 0
        for i, e in enumerate(self.entries):
            acc |= e << (i * self.m)
        nbytes = (len(self.entries) * self.m + 7) // 8
        fp.write(acc.to_bytes(nbytes, "little"))

    @classmethod
    def load(cls, fp) -> "ExtractorTable":
        """Read a file written by `save`; raises ValueError on a header
        without integer "n" and "m" or with a malformed seed, and on a
        bitstream of another length than the header implies or with
        padding bits set."""
        header = json.loads(fp.readline().decode())
        if not isinstance(header, dict) or not all(isinstance(header.get(key), int) for key in ("n", "m")):
            raise ValueError('extractor header needs integer "n" and "m"')
        n, m = header["n"], header["m"]
        _check_widths(n, m)
        count = 1 << (2 * n)
        body, nbytes = fp.read(), (count * m + 7) // 8
        if len(body) != nbytes:
            raise ValueError(f"extractor bitstream holds {len(body)} bytes, not the {nbytes} of its header")
        raw = int.from_bytes(body, "little")
        if raw >> (count * m):
            raise ValueError("extractor bitstream sets padding bits past its last entry")
        mask = (1 << m) - 1
        entries = [(raw >> (i * m)) & mask for i in range(count)]
        seed = RngSeed.from_json(header["seed"]) if "seed" in header else None
        return cls(n, m, entries, seed)

    def __repr__(self):
        return f"ExtractorTable(n={self.n}, m={self.m})"


def sample_random_extractor(n: int, m: int, seed: RngSeed) -> ExtractorTable:
    _check_widths(n, m)  # before drawing 2^(2n) entries
    rng = seed.stream("nmext.sample")
    size = 1 << (2 * n)
    return ExtractorTable(n, m, [rng.getrandbits(m) for _ in range(size)], seed)


def inner_product_table(n: int) -> ExtractorTable:
    entries = [
        ((x & y).bit_count() & 1)
        for x in range(1 << n)
        for y in range(1 << n)
    ]
    return ExtractorTable(n, 1, entries)


def parity_table(n: int) -> ExtractorTable:
    entries = [
        ((x << n | y).bit_count() & 1)
        for x in range(1 << n)
        for y in range(1 << n)
    ]
    return ExtractorTable(n, 1, entries)


@dataclass(frozen=True)
class FlatSourcePair:
    """Two independent flat sources given by their supports."""

    xs: Tuple[int, ...]
    ys: Tuple[int, ...]

    def __post_init__(self):
        if not self.xs or not self.ys:
            raise ValueError("supports must be nonempty")
        if len(set(self.xs)) != len(self.xs) or len(set(self.ys)) != len(self.ys):
            raise ValueError("support entries must be distinct")

    @classmethod
    def full(cls, n: int) -> "FlatSourcePair":
        space = tuple(range(1 << n))
        return cls(space, space)

    @property
    def pairs(self) -> int:
        return len(self.xs) * len(self.ys)


def _check_supports(n: int, xs: Sequence[int], ys: Sequence[int]) -> None:
    """Raise ValueError unless the supports xs and ys lie in [0, 2^n).
    Plain Python, which at 8 entries costs less than one numpy call."""
    size = 1 << n
    for name, support in (("first", xs), ("second", ys)):
        if not all(0 <= x < size for x in support):
            raise ValueError(f"{name} support has an entry outside [0, {size})")


def _check_tamperings(n: int, f1: Sequence[int], f2: Sequence[int], xs: Sequence[int],
                      ys: Sequence[int], fixed_point_free: bool) -> None:
    """Raise ValueError unless f1 and f2 are tables of 2^n entries in
    [0, 2^n) and `_check_supports` accepts xs and ys; with
    `fixed_point_free`, also when f1 has a fixed point on xs or f2 one on
    ys."""
    _check_supports(n, xs, ys)
    size = 1 << n
    for name, table, support in (("first", f1, xs), ("second", f2, ys)):
        if len(table) != size:
            raise ValueError(f"{name} tampering has {len(table)} entries, not 2^{n} = {size}")
        if not all(0 <= v < size for v in table):
            raise ValueError(f"{name} tampering has an entry outside [0, {size})")
        if fixed_point_free and any(table[x] == x for x in support):
            raise ValueError(f"{name} tampering has a fixed point on the support")


def repair_fixed_points(table: Sequence[int], size: int) -> List[int]:
    """Nearest fixed-point-free modification: bump fixed points by one."""
    out = list(table)
    for x in range(size):
        if out[x] == x:
            out[x] = (x + 1) % size
    return out


# ---------------------------------------------------------------------------
# Exact checks
# ---------------------------------------------------------------------------


def check_extraction(ext: ExtractorTable, src: FlatSourcePair) -> Fraction:
    """Exact distance of the output distribution from uniform. Raises
    ValueError on supports outside [0, 2^n)."""
    _check_supports(ext.n, src.xs, src.ys)
    outputs = ext.as_array()[np.asarray(src.xs)[:, None], src.ys].ravel()
    return uniform_distance(np.bincount(outputs, minlength=1 << ext.m), src.pairs, 1 << ext.m)


def joint_output_dist(
    ext: ExtractorTable,
    src: FlatSourcePair,
    f1: Optional[Sequence[int]],
    f2: Optional[Sequence[int]],
) -> np.ndarray:
    """(2^m, 2^m) int64 counts C[a, b] of the source cells (x, y) with
    output a and tampered output b = ext(f1[x], f2[y]); a half-tampering
    given as None is the identity. C / src.pairs is the joint law."""
    table = ext.as_array()
    xs, ys = np.asarray(src.xs), np.asarray(src.ys)
    tx = xs if f1 is None else np.asarray(f1)[xs]
    ty = ys if f2 is None else np.asarray(f2)[ys]
    size = 1 << ext.m
    cells = table[xs[:, None], ys] * size + table[tx[:, None], ty]
    return np.bincount(cells.ravel(), minlength=size * size).reshape(size, size)


def product_with_uniform_distance(counts: np.ndarray) -> Fraction:
    """Distance between the law of (output, tampered output) and (uniform
    output) x (its tampered marginal): the sufficient-condition quantity
    for relaxed non-malleability. Exact, from the counts of
    `joint_output_dist`."""
    size = len(counts)
    acc = int(np.abs(size * counts - counts.sum(axis=0)).sum())
    return Fraction(acc, 2 * size * int(counts.sum()))


def _copy_distance(counts: np.ndarray) -> Fraction:
    """Exact minimum distance to an explanation by an independent
    reference output plus a SAME marker: the closed form at one output
    bit, the LP otherwise."""
    if len(counts) != 2:
        return min_copy_distance(counts)[0]
    (c00, c01), (c10, c11) = counts.tolist()
    return Fraction(*min_copy_distance_m1(c01, c11, c00 + c01, c10 + c11, c00 + c01 + c10 + c11))


@dataclass
class NmVerdict:
    extraction_distance: Fraction
    nm_distances: Dict[str, Fraction]
    optimal_distances: Dict[str, Fraction] = field(default_factory=dict)
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "extraction_distance": float(self.extraction_distance),
            "nm_distances": {k: float(v) for k, v in self.nm_distances.items()},
            "optimal_distances": {k: float(v) for k, v in self.optimal_distances.items()},
            "witness": self.witness,
        }


def _patterns(f1, f2, active: str):
    if active == "first-only":
        return f1, None
    if active == "second-only":
        return None, f2
    return f1, f2


def check_relaxed_nm(
    ext: ExtractorTable,
    src: FlatSourcePair,
    f1: Sequence[int],
    f2: Sequence[int],
) -> NmVerdict:
    """Relaxed non-malleability for fixed-point-free half-tamperings.

    For each of the three patterns (first tampered, second tampered, both)
    the reported nm distance is the joint-vs-(uniform x tampered marginal)
    quantity; the distance-minimizing reference value is carried alongside
    since it is the one the strict comparison is stated against. Active
    slots must be fixed-point-free on the relevant support; out-of-range
    tables and supports raise ValueError too.
    """
    _check_tamperings(ext.n, f1, f2, src.xs, src.ys, fixed_point_free=True)
    nm: Dict[str, Fraction] = {}
    opt: Dict[str, Fraction] = {}
    worst = None
    for name in PATTERNS:
        g1, g2 = _patterns(f1, f2, name)
        counts = joint_output_dist(ext, src, g1, g2)
        nm[name] = product_with_uniform_distance(counts)
        opt[name] = _copy_distance(counts)
        if worst is None or nm[name] > nm[worst]:
            worst = name
    return NmVerdict(
        extraction_distance=check_extraction(ext, src),
        nm_distances=nm,
        optimal_distances=opt,
        witness={"worst_pattern": worst},
    )


def check_strict_nm(
    ext: ExtractorTable,
    src: FlatSourcePair,
    f1: Sequence[int],
    f2: Sequence[int],
) -> NmVerdict:
    """Strict non-malleability for arbitrary half-tamperings: the exact
    minimum, over reference distributions with a SAME marker, of the
    distance between (output, tampered output) and the explained joint.
    The witness is the LP's minimizing reference, at every m. Raises
    ValueError on out-of-range tables and supports."""
    _check_tamperings(ext.n, f1, f2, src.xs, src.ys, fixed_point_free=False)
    value, ref = min_copy_distance(joint_output_dist(ext, src, f1, f2))
    return NmVerdict(
        extraction_distance=check_extraction(ext, src),
        nm_distances={"both": value},
        optimal_distances={"both": value},
        witness={"reference": {str(k): float(v) for k, v in ref.items()}},
    )


# ---------------------------------------------------------------------------
# Extractor-defined coding scheme
# ---------------------------------------------------------------------------


def _swap_halves(t, n: int):
    """Table index (x << n) | y to word x | (y << n), and back; works on
    ints and integer arrays alike."""
    return ((t & ((1 << n) - 1)) << n) | (t >> n)


def _preimage_sizes(ext: ExtractorTable) -> np.ndarray:
    """Table cells per output, an int64 array of length 2^m; raises
    InfeasibleParams when an output has none, as no code can encode it."""
    sizes = np.bincount(ext.as_array().ravel(), minlength=1 << ext.m)
    if not sizes.all():
        raise InfeasibleParams(f"output {int(np.argmin(sizes))} has an empty preimage")
    return sizes


class ExtractorCode:
    """Split-state scheme whose decoder is the extractor table.

    Codeword layout: first source in the low half, so word x | (y << n)
    decodes to entries[(x << n) | y]. The encodings of every output lie
    end to end in `flat`, output s at `starts[s]` with `sizes[s]` words in
    table order; `by_word` is the output of every word.
    """

    def __init__(self, ext: ExtractorTable):
        self.ext = ext
        self.message_bits = ext.m
        self.block_bits = 2 * ext.n
        n = ext.n
        entries = ext.as_array().ravel()
        self.sizes = _preimage_sizes(ext)
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


@dataclass
class ReductionRow:
    adversary_id: int
    extractor_error: Fraction
    code_error: Fraction
    bound: Fraction

    @property
    def ok(self) -> bool:
        return self.code_error <= self.bound


@dataclass
class ReductionReport:
    extraction_distance: Fraction
    rows: List[ReductionRow]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def worst(self) -> Optional[ReductionRow]:
        bad = [r for r in self.rows if not r.ok]
        if bad:
            return max(bad, key=lambda r: r.code_error - r.bound)
        return max(self.rows, key=lambda r: r.code_error) if self.rows else None


def verify_reduction(
    ext: ExtractorTable,
    adversaries: int = 100,
    seed: Optional[RngSeed] = None,
) -> ReductionReport:
    """Verify the extractor code's error <= (measured extractor error) *
    (2^k+1) for sampled split-state adversaries.

    Per adversary (f1, f2), both errors are exact and read off the counts
    C = `joint_output_dist` on full-entropy sources. The extractor error
    is the max of the table's extraction distance and the strict
    non-malleability distance of C. The code error is the minimax, over
    reference distributions d on messages, decoder failure and SAME, of
    the worst message's distance; message s decodes to b with probability
    C[s, b] / r_s, r_s its encoding count. Decoding never fails, so mass
    on failure only adds to every distance. At m = 1, with a = c01/r0 and
    b = c10/r1, the distances for messages 0 and 1 are then |a - d1| and
    |b - d0|; the optimum over d0 + d1 <= 1 of max(|a - d1|, |b - d0|) is
    max(0, (a + b - 1)/2), as the two sum to at least a + b - 1 and
    d1 = a - t, d0 = b - t with t = (a + b - 1)/2 attains it. That is
    max(0, c01*r1 + c10*r0 - r0*r1) / (2*r0*r1), the term whose sign
    decides the zero branch of `min_copy_distance_m1`. At m != 1 the
    distance of message s is sum_b (C[s, b] / r_s - d_b - [b = s] d_SAME)+,
    as both sides sum to 1, and `lp.message_minimax` minimizes the largest
    of them over d on messages and SAME alone (see `_code_error`) through
    the LP dual of that positive-part form.
    """
    seed = seed or RngSeed.from_int(0)
    rng = seed.stream("nmext.reduction")
    sizes = _preimage_sizes(ext)
    eps_ext = uniform_distance(sizes, 1 << (2 * ext.n), 1 << ext.m)  # the code's encoding bias
    sizes = sizes.tolist()
    full = FlatSourcePair.full(ext.n)
    size = 1 << ext.n
    blowup = (1 << ext.m) + 1
    rows: List[ReductionRow] = []
    for i in range(adversaries):
        f1 = [rng.randrange(size) for _ in range(size)]
        f2 = [rng.randrange(size) for _ in range(size)]
        counts = joint_output_dist(ext, full, f1, f2)
        eps_f = max(eps_ext, _copy_distance(counts))
        rows.append(
            ReductionRow(
                adversary_id=i,
                extractor_error=eps_f,
                code_error=_code_error(counts.tolist(), sizes),
                bound=eps_f * blowup,
            )
        )
    return ReductionReport(extraction_distance=eps_ext, rows=rows)


def _code_error(counts: List[List[int]], sizes: List[int]) -> Fraction:
    """Exact error of the extractor code against the adversary behind the
    counts; see `verify_reduction`.

    The LP at m != 1 leaves out the decoder-failure output. Decoding never
    fails, so no message has mass on failure, and a reference mass d_fail
    there lowers none of the positive parts that make up a message's
    distance, while moving it onto d_SAME raises none of them; so the
    optimum over d with d_fail = 0 is the optimum over all d."""
    if len(counts) == 2:
        (_, c01), (c10, _) = counts
        r0, r1 = sizes
        return Fraction(max(0, c01 * r1 + c10 * r0 - r0 * r1), 2 * r0 * r1)
    return message_minimax(counts, sizes, range(len(counts)))[0]


# ---------------------------------------------------------------------------
# Flat-source sweeps (vectorized, exact counts)
# ---------------------------------------------------------------------------


def _supports_of_min_size(n: int, min_size: int) -> List[Tuple[int, ...]]:
    space = range(1 << n)
    out: List[Tuple[int, ...]] = []
    for size in range(min_size, (1 << n) + 1):
        out.extend(combinations(space, size))
    return out


def _max_fraction(num: np.ndarray, den: np.ndarray) -> Tuple[int, int]:
    """Exact maximum of num/den (den > 0) over flat int64 arrays. The float
    quotient's argmax only proposes a candidate; cross-multiplied integer
    comparisons against every entry decide, and an entry that beats the
    candidate replaces it, so no float decides the result."""
    i = int(np.argmax(num / den))
    while (beats := num * den[i] > num[i] * den).any():
        i = int(np.argmax(beats))
    return int(num[i]), int(den[i])


def relaxed_error_sweep(
    ext: ExtractorTable,
    f1: Sequence[int],
    f2: Sequence[int],
    min_support: int,
) -> Tuple[Fraction, dict]:
    """Max over all flat source pairs with supports >= min_support of
    max(extraction distance, per-pattern optimal reference distance),
    for the fixed-point-free tamperings (f1, f2).

    Exhaustive over source pairs and exact. With S the 0/1 incidence
    matrix of the supports, every (x-support, y-support) cell count is an
    entry of S @ M @ S.T for a 0/1 table M: the seven tables M (the
    output, then per pattern the cells tampering to 1 under output 0 and
    under output 1) take one product with S.T and each chunk of S one
    more, in float64, which sums 0/1 products of at most 4^n <= 2^12 terms
    exactly. The closed form of `min_copy_distance_m1` runs once on the
    three patterns' int64 counts, and `_max_fraction` finds the largest of
    the four kinds' values: the float quotient's argmax only proposes it,
    and cross-multiplied integer comparisons (every product below 2^50 at
    n <= 6) decide, so one Fraction is built, for the maximum. x-supports
    run in chunks of at most core.PASS_CELLS (x-support, y-support) cells,
    so memory does not grow with the support count. The witness is the
    first pair in (x, y) order reaching the maximum, with the first kind
    reaching the pair's value in the order extraction, first-only,
    second-only, both; it is empty when the maximum is 0.
    Only m = 1 tables are supported, which keeps the per-pair
    minimization in closed form. Tables out of range or with a fixed
    point raise ValueError.
    """
    if ext.m != 1:
        raise GuardExceeded("sweep supports single-bit outputs only")
    if ext.n > STRICT_GUARD_N:
        raise GuardExceeded(f"sweep guard is n <= {STRICT_GUARD_N}")
    if min_support < 1:
        raise ValueError("min_support must be at least 1")
    size = 1 << ext.n
    _check_tamperings(ext.n, f1, f2, range(size), range(size), fixed_point_free=True)
    count = sum(comb(size, k) for k in range(min_support, size + 1))
    if count * count > DEFAULT_SWEEP_GUARD:
        raise GuardExceeded(
            f"{count * count} support pairs exceed sweep guard {DEFAULT_SWEEP_GUARD}"
        )
    if count == 0:
        return Fraction(0), {}
    supports = _supports_of_min_size(ext.n, min_support)
    sizes = np.array([len(s) for s in supports])
    # float64, so the products run in BLAS; exact, as the docstring shows.
    incidence = np.zeros((len(supports), size))
    incidence[np.repeat(np.arange(len(supports)), sizes),
              np.fromiter(chain.from_iterable(supports), dtype=np.intp)] = 1
    table = ext.as_array()
    f1a = np.asarray(f1, dtype=np.int64)
    f2a = np.asarray(f2, dtype=np.int64)
    # Right factors M @ S.T: the output, then per pattern the cells with
    # tampered output 1 under output 0, then those under output 1.
    tampered = np.stack([table[f1a, :], table[:, f2a], table[f1a[:, None], f2a]])
    right = np.concatenate([table[None], (1 - table) * tampered, table * tampered]) @ incidence.T
    kinds = ("extraction",) + PATTERNS
    rows = max(1, core.PASS_CELLS // len(supports))
    worst_num, worst_den = 0, 1
    witness: dict = {}
    for lo in range(0, len(supports), rows):
        counts = (incidence[lo : lo + rows] @ right).astype(np.int64)
        ones = counts[0]
        total = np.outer(sizes[lo : lo + rows], sizes)
        num, den = min_copy_distance_m1(counts[1:4], counts[4:7], total - ones, ones, total)
        # Kinds in witness order: extraction, then the patterns.
        nums = np.concatenate([abs(2 * ones - total)[None], num])
        dens = np.concatenate([(2 * total)[None], den])
        best_num, best_den = _max_fraction(nums.ravel(), dens.ravel())
        if best_num * worst_den > worst_num * best_den:
            worst_num, worst_den = best_num, best_den
            hits = nums * best_den == best_num * dens
            first = int(np.argmax(hits.any(axis=0)))
            xi, yi = divmod(first, len(supports))
            witness = {
                "x_support": supports[lo + xi],
                "y_support": supports[yi],
                "pattern": kinds[int(np.argmax(hits[:, xi, yi]))],
            }
    return Fraction(worst_num, worst_den), witness
