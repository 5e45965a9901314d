"""Two-source non-malleable extractor experiments on explicit tables.

Everything here is exact-by-enumeration behind hard size guards: an
extractor on two n-bit sources is a full lookup table with 2^(2n) entries
(n <= 8). Checks cover plain extraction, the relaxed non-malleability
conditions for fixed-point-free tampering, the strict condition for
arbitrary tampering via the distance-minimizing reference distribution,
and the extractor-to-code reduction with its (2^k + 1) error blowup.

Every split-state verdict reads integer counts. `joint_output_dist` is
the one count kernel: the (2^m, 2^m) matrix of (output, tampered output)
cells of a flat source pair, from one `np.bincount`. Every check and
reduction row reads its distances off it through the `lp` minimax LPs,
except a reduction row at one output bit: it evaluates the closed form
`lp.min_copy_distance_m1` once, on plain ints. Source sweeps range over
flat sources only; a flat pair is given by the two supports. The sweep
over every support pair gets its counts from incidence-matrix products
instead, runs the closed form on int64 arrays of them, and finds the
largest value by cross-multiplication: a float quotient only proposes a
candidate and integers decide, so reported distances stay exact Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import core
from .core import GuardExceeded, InfeasibleParams, RngSeed, Verdict, uniform_distance
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
    """Explicit function of two n-bit inputs to an m-bit output; entry
    (x << n) | y is the output at (x, y). Raises ValueError on entries that
    are not integers in [0, 2^m)."""

    def __init__(self, n: int, m: int, entries: Sequence[int], seed: Optional[RngSeed] = None):
        _check_widths(n, m)
        size = 1 << (2 * n)
        if len(entries) != size:
            raise ValueError(f"need {size} entries, got {len(entries)}")
        array = np.array(entries)
        if array.dtype.kind not in "iub":
            raise ValueError(f"entries must be integers, not {array.dtype}")
        if array.min() < 0 or array.max() >= 1 << m:
            raise ValueError("entry out of range")
        self.n = n
        self.m = m
        self.seed = seed
        self._array = array.astype(np.int64, copy=False).reshape(1 << n, 1 << n)
        self._array.flags.writeable = False

    def as_array(self) -> np.ndarray:
        """The table as a read-only (2^n, 2^n) int64 array, the one copy of
        its entries."""
        return self._array

    @cached_property
    def preimage_sizes(self) -> np.ndarray:
        """Table cells per output, a read-only int64 array of length 2^m
        counted on first use; raises InfeasibleParams when an output has
        none, as no code can encode it."""
        sizes = np.bincount(self._array.ravel(), minlength=1 << self.m)
        if not sizes.all():
            raise InfeasibleParams(f"output {int(np.argmin(sizes))} has an empty preimage")
        sizes.flags.writeable = False
        return sizes

    @cached_property
    def encoding_bias(self) -> Fraction:
        """The output's distance from uniform on uniform inputs: the bias of
        the extractor code's encodings, counted on first use."""
        return uniform_distance(self.preimage_sizes, 1 << (2 * self.n), 1 << self.m)

    # -- serialization: `core.write_packed`, one m-bit field per entry

    def save(self, fp) -> None:
        header = {"n": self.n, "m": self.m}
        if self.seed is not None:
            header["seed"] = self.seed.to_json()
        core.write_packed(fp, header, self._array.ravel().tolist(), self.m)

    @classmethod
    def load(cls, fp) -> "ExtractorTable":
        """Read a file written by `save`; raises ValueError on a header
        without integer "n" and "m" or with a malformed seed, and where
        `core.read_packed` does."""

        def layout(header) -> Tuple[int, int]:
            if not isinstance(header, dict) or not all(isinstance(header.get(key), int) for key in ("n", "m")):
                raise ValueError('extractor header needs integer "n" and "m"')
            _check_widths(header["n"], header["m"])
            return 1 << (2 * header["n"]), header["m"]

        header, entries = core.read_packed(fp, "extractor", layout)
        seed = RngSeed.from_json(header["seed"]) if "seed" in header else None
        return cls(header["n"], header["m"], entries, seed)

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


@dataclass
class NmDistances:
    """The exact distances of one relaxed or strict check, with no gate."""

    extraction_distance: Fraction
    nm_distances: Dict[str, Fraction]
    optimal_distances: Dict[str, Fraction] = field(default_factory=dict)
    witness: Optional[dict] = None


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
) -> NmDistances:
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
        opt[name] = min_copy_distance(counts)[0]
        if worst is None or nm[name] > nm[worst]:
            worst = name
    return NmDistances(
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
) -> NmDistances:
    """Strict non-malleability for arbitrary half-tamperings: the exact
    minimum, over reference distributions with a SAME marker, of the
    distance between (output, tampered output) and the explained joint.
    The witness is the LP's minimizing reference, at every m. Raises
    ValueError on out-of-range tables and supports."""
    _check_tamperings(ext.n, f1, f2, src.xs, src.ys, fixed_point_free=False)
    value, ref = min_copy_distance(joint_output_dist(ext, src, f1, f2))
    keys = [str(b) for b in range(len(ref) - 1)] + ["SAME"]
    return NmDistances(
        extraction_distance=check_extraction(ext, src),
        nm_distances={"both": value},
        optimal_distances={"both": value},
        witness={"reference": {k: float(v) for k, v in zip(keys, ref)}},
    )


# ---------------------------------------------------------------------------
# The extractor-to-code reduction
# ---------------------------------------------------------------------------


@dataclass
class ReductionRow:
    adversary_id: int
    extractor_error: Fraction
    code_error: Fraction
    bound: Fraction


@dataclass
class ReductionReport:
    extraction_distance: Fraction
    rows: List[ReductionRow]

    @property
    def verdict(self) -> Verdict:
        """The largest code_error - bound over the rows, at most 0 to pass,
        built when read. The witness is the first row with that least
        slack; with no rows the value is 0 and there is no witness."""
        tight = max(self.rows, key=lambda r: r.code_error - r.bound, default=None)
        if tight is None:
            return Verdict("reduction", Fraction(0), 0)
        witness = {"adversary_id": tight.adversary_id, "code_error": str(tight.code_error), "bound": str(tight.bound)}
        return Verdict("reduction", tight.code_error - tight.bound, 0, witness=witness)


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
    max(0, c01*r1 + c10*r0 - r0*r1) / (2*r0*r1), over the numerator of
    `min_copy_distance_m1`, so an m = 1 row evaluates that closed form
    once for both errors, and code_error * 2*r0*r1 = copy * total *
    max(r0, r1) for C's strict copy distance copy and total = r0 + r1:
    with rho = max(r0, r1) / min(r0, r1), code_error = (1 + rho)/2 * copy,
    and the bound code_error <= 3 * max(eps_ext, copy) cannot fail. At
    rho <= 5 the factor is at most 3; at rho > 5 the bias eps_ext =
    (rho - 1)/(2(rho + 1)) exceeds 1/3 while code_error <= 1/2, as
    c01 <= r0 and c10 <= r1. An m = 1 row catches a wrong count, never a
    counterexample. At m != 1 the distance of message s is
    sum_b (C[s, b] / r_s - d_b - [b = s] d_SAME)+, as both sides sum to
    1, and `lp.message_minimax` minimizes the largest of them over d on
    messages and SAME alone through the LP dual of that positive-part form.
    """
    seed = seed or RngSeed.from_int(0)
    rng = seed.stream("nmext.reduction")
    eps_ext = ext.encoding_bias
    full = FlatSourcePair.full(ext.n)
    size = 1 << ext.n
    blowup = (1 << ext.m) + 1
    rows: List[ReductionRow] = []
    for i in range(adversaries):
        f1 = [rng.randrange(size) for _ in range(size)]
        f2 = [rng.randrange(size) for _ in range(size)]
        counts = joint_output_dist(ext, full, f1, f2)
        if ext.m == 1:
            (c00, c01), (c10, c11) = counts.tolist()
            r0, r1 = c00 + c01, c10 + c11
            num, den = min_copy_distance_m1(c01, c11, r0, r1)
            copy, code_error = Fraction(num, den), Fraction(num, 2 * r0 * r1)
        else:
            copy = min_copy_distance(counts)[0]
            # The LP leaves out the decoder-failure output: decoding never fails, so
            # no message has mass there, a reference mass d_fail lowers no positive
            # part of a message's distance, and moving it onto d_SAME raises none;
            # so the optimum over d with d_fail = 0 is the optimum over all d.
            code_error = message_minimax(counts.tolist(), range(len(counts)))[0]
        eps_f = max(eps_ext, copy)
        rows.append(ReductionRow(i, eps_f, code_error, eps_f * blowup))
    return ReductionReport(extraction_distance=eps_ext, rows=rows)


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
        num, den = min_copy_distance_m1(counts[1:4], counts[4:7], total - ones, ones)
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
