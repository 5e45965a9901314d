"""Seed-derived permutations of bit positions.

Two backends share one interface. "prf-shuffle" hashes the seed into a
keyed stream that drives a Fisher-Yates shuffle: deterministic and usable
at any size, but its closeness to a uniform permutation is a heuristic
assumption and is reported as such. "exact-tiny" (n <= 8) unranks the seed
into the factorial table; over its accepted seed range every permutation
is hit equally often, so uniformity is exact and testable by enumeration.

`derive_forwards` is the only code that turns a seed into a permutation:
it maps a batch of seeds to their forward maps as one int32 array. The
shuffle backend reseeds one `random.Random` from the SHA-256 of the spec
and each seed and runs its `shuffle` on range(n). `derive_permutation` is
its one-row case.

`seed_table(spec)` holds every seed's forward map, derived once per
process: a read-only (2^seed_bits, n) int32 array, memoised while it has
at most core.TABLE_CELLS cells. The exhaustive l-wise test and
`ConcatCode`'s scatter tables both read it, so every seed of a spec is
derived in one place.

`test_lwise_dependence` keys each image tuple by Horner's rule. When its
index sets times n^l keys fit core.PASS_CELLS (8 x 32^2 = 8,192 at n=32,
l=2), one `bincount` per pass counts all sets into one dense array;
otherwise one sorted tally of (set, key) pairs holds them. Both paths score
every set in one step, with one Fraction built at the end.

Applying a permutation moves input bit i to output position forward[i].
Applications run through per-byte scatter tables, so a 64-bit word costs
eight lookups instead of 64 bit moves.
"""

from __future__ import annotations

import functools
import hashlib
import random
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import core
from .core import (
    _INT64_MAX,
    GuardExceeded,
    InfeasibleParams,
    PropertyReport,
    RngSeed,
    confidence_radius,
)

PRF_SHUFFLE = "prf-shuffle"
EXACT_TINY = "exact-tiny"
#: Index sets test_lwise_dependence checks when there are more to pick from.
LWISE_INDEX_SETS = 8


@dataclass(frozen=True)
class PermSpec:
    n: int
    ell: int = 1
    seed_bits: int = 128
    backend: str = PRF_SHUFFLE

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.ell <= self.n:
            raise ValueError("need 0 <= ell <= n")
        if self.seed_bits < 1:
            raise ValueError("seed_bits must be positive")
        if self.backend not in (PRF_SHUFFLE, EXACT_TINY):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == EXACT_TINY:
            if self.n > 8:
                raise InfeasibleParams("exact-tiny backend needs n <= 8")
            if (1 << self.seed_bits) < factorial(self.n):
                raise InfeasibleParams(
                    f"2^{self.seed_bits} seeds cannot cover {self.n}! permutations"
                )

    def seed_space(self) -> int:
        """Number of accepted seed values.

        The factorial backend accepts only the largest multiple of n! so
        that accepted seeds hit every permutation equally often; the
        shuffle backend accepts everything.
        """
        total = 1 << self.seed_bits
        if self.backend == EXACT_TINY:
            f = factorial(self.n)
            return (total // f) * f
        return total

    def sample_seed(self, rng: random.Random) -> int:
        return rng.randrange(self.seed_space())


class Permutation:
    """Bijection on bit positions; byte-scatter tables built on first use."""

    __slots__ = ("n", "forward", "inverse", "_fwd_tables", "_inv_tables")

    def __init__(self, forward: Sequence[int]):
        fwd = tuple(forward)
        n = len(fwd)
        if sorted(fwd) != list(range(n)):
            raise ValueError("forward map is not a bijection on [n]")
        inv = [0] * n
        for i, j in enumerate(fwd):
            inv[j] = i
        self.n = n
        self.forward = fwd
        self.inverse = tuple(inv)
        self._fwd_tables: Optional[List[List[int]]] = None
        self._inv_tables: Optional[List[List[int]]] = None

    @staticmethod
    def _build_tables(mapping: Sequence[int]) -> List[List[int]]:
        n = len(mapping)
        tables = []
        for base in range(0, n, 8):
            width = min(8, n - base)
            table = [0] * 256
            for byte in range(1 << width):
                acc = 0
                b = byte
                while b:
                    low = b & -b
                    acc |= 1 << mapping[base + low.bit_length() - 1]
                    b ^= low
                table[byte] = acc
            tables.append(table)
        return tables

    @staticmethod
    def _apply_tables(tables: List[List[int]], x: int) -> int:
        acc = 0
        for table in tables:
            acc |= table[x & 0xFF]
            x >>= 8
        return acc

    def scatter_tables(self) -> Tuple[List[List[int]], List[List[int]]]:
        """The (forward, inverse) byte-scatter tables; table j maps byte j
        of a word to the bits it lands on."""
        if self._fwd_tables is None:
            self._fwd_tables = self._build_tables(self.forward)
        if self._inv_tables is None:
            self._inv_tables = self._build_tables(self.inverse)
        return self._fwd_tables, self._inv_tables

    def apply_int(self, x: int) -> int:
        if self._fwd_tables is None:
            self._fwd_tables = self._build_tables(self.forward)
        return self._apply_tables(self._fwd_tables, x)

    def invert_int(self, x: int) -> int:
        if self._inv_tables is None:
            self._inv_tables = self._build_tables(self.inverse)
        return self._apply_tables(self._inv_tables, x)

    def to_json(self) -> dict:
        return {"forward": list(self.forward)}

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.forward == other.forward

    def __hash__(self):
        return hash(self.forward)

    def __repr__(self):
        return f"Permutation({list(self.forward)})"


def _unrank(index: int, n: int) -> List[int]:
    """Lehmer-code unranking into the lexicographic factorial table."""
    digits = []
    for radix in range(1, n + 1):
        digits.append(index % radix)
        index //= radix
    digits.reverse()
    pool = list(range(n))
    return [pool.pop(d) for d in digits]


def _mt_seed(spec: PermSpec, z: int) -> int:
    """The shuffle backend's Mersenne Twister seed for seed z: the SHA-256
    of the spec and the seed."""
    material = b"nmcode.perm.prf:%d:%d:" % (spec.n, spec.seed_bits)
    material += z.to_bytes((spec.seed_bits + 7) // 8, "little")
    return int.from_bytes(hashlib.sha256(material).digest(), "big")


def derive_forwards(spec: PermSpec, seeds: Sequence[int]) -> np.ndarray:
    """Forward maps of the seeds' permutations, one int32 row of length n
    per seed; the seeds are Python ints in [0, 2^seed_bits). This is the
    only code that turns a seed into a permutation: the shuffle backend
    reseeds one `random.Random` with `_mt_seed` and shuffles range(n), and
    the factorial backend unranks z mod n!."""
    n = spec.n
    forwards = np.empty((len(seeds), n), dtype=np.int32)
    gen = random.Random()
    for r, z in enumerate(seeds):
        if spec.backend == EXACT_TINY:
            row = _unrank(z % factorial(n), n)
        else:
            gen.seed(_mt_seed(spec, z))
            row = list(range(n))
            gen.shuffle(row)
        forwards[r] = row
    return forwards


@functools.lru_cache(maxsize=4)
def seed_table(spec: PermSpec) -> np.ndarray:
    """Every seed's forward map, row z for seed z in [0, 2^seed_bits): a
    read-only int32 array derived by `derive_forwards` in passes of at most
    core.PASS_CELLS cells and memoised per spec. Raises GuardExceeded,
    and memoises nothing, when the table would exceed core.TABLE_CELLS."""
    seeds = 1 << spec.seed_bits
    if seeds * spec.n > core.TABLE_CELLS:
        raise GuardExceeded(f"{seeds} x {spec.n} seed-table cells exceed guard {core.TABLE_CELLS}")
    rows = max(1, core.PASS_CELLS // spec.n)
    table = np.concatenate([
        derive_forwards(spec, range(lo, min(seeds, lo + rows))) for lo in range(0, seeds, rows)
    ])
    table.setflags(write=False)
    return table


def derive_permutation(spec: PermSpec, z: int) -> Permutation:
    """Deterministic permutation of seed value z: row z of
    `derive_forwards`. Raises ValueError unless z lies in
    [0, spec.seed_space())."""
    if not 0 <= z < spec.seed_space():
        raise ValueError(f"seed {z} outside [0, {spec.seed_space()})")
    return Permutation(derive_forwards(spec, [z])[0].tolist())


def uniform_tuple_probability(n: int, size: int) -> Fraction:
    """Chance a uniform permutation maps a fixed ordered index set to a
    fixed ordered tuple of distinct positions."""
    denom = 1
    for i in range(size):
        denom *= n - i
    return Fraction(1, denom)


def _unrank_combination(n: int, ell: int, rank: int) -> Tuple[int, ...]:
    """The combination of `combinations(range(n), ell)` at index `rank`."""
    out = []
    x = 0
    for left in range(ell, 0, -1):
        while rank >= (below := comb(n - x - 1, left - 1)):
            rank -= below
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def _choose_index_sets(n: int, ell: int, rng: random.Random) -> List[Tuple[int, ...]]:
    """Every ell-subset of range(n) when there are at most LWISE_INDEX_SETS,
    else that many drawn without replacement. `rng.sample` draws the same
    indices from a range as from the list of all subsets, so the subsets
    are unranked instead of listed."""
    total = comb(n, ell)
    if total <= LWISE_INDEX_SETS:
        return list(combinations(range(n), ell))
    return [_unrank_combination(n, ell, r) for r in rng.sample(range(total), LWISE_INDEX_SETS)]


_Tally = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _merge_pairs(tally: _Tally, blocks: List[np.ndarray]) -> _Tally:
    """Add the (seeds, index sets) key blocks to `tally`: the distinct
    (index set, key) pairs sorted by set, then key, and their counts."""
    keys = np.concatenate(blocks)
    sets = np.concatenate([tally[0], np.tile(np.arange(keys.shape[1], dtype=np.int64), len(keys))])
    flat = np.concatenate([tally[1], keys.ravel()])
    counts = np.concatenate([tally[2], np.ones(keys.size, dtype=np.int64)])
    order = np.lexsort((flat, sets))
    sets, flat = sets[order], flat[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (sets[1:] != sets[:-1]) | (flat[1:] != flat[:-1])
    starts = np.flatnonzero(first)
    return sets[starts], flat[starts], np.add.reduceat(counts[order], starts)


def test_lwise_dependence(
    spec: PermSpec,
    trials: int = 10000,
    seed: Optional[RngSeed] = None,
) -> PropertyReport:
    """Compare marginals of derived permutations against a uniform one.

    For each sampled index set T of size spec.ell, the distribution of the
    image tuple (perm(t) for t in T) over random seeds is compared with the
    exact uniform-permutation marginal. When the backend's accepted seed
    space is at most `trials` the sweep enumerates it and the distance is
    exact; otherwise `trials` seeds are drawn and a confidence radius is
    attached. Either way the seeds' forward maps are tallied in passes of
    at most core.PASS_CELLS cells. An exhaustive sweep reads its passes
    from `seed_table(spec)` when the table fits core.TABLE_CELLS; a
    sampled one derives each pass's seeds with `derive_forwards`.

    Each image tuple is keyed by Horner's rule, key = sum(forward[t_i] *
    n^(ell-1-i)), below n^ell. When the index sets times n^ell fit
    core.PASS_CELLS, set s's keys are offset by s * n^ell and one
    `bincount` per pass adds them to a dense count; otherwise one sorted
    tally of the distinct (set, key) pairs holds every set (pairs rather
    than offset keys, which can pass 2^63 while n^ell does not, as at
    n=17, ell=15), and passes are merged into it once their keys outnumber
    its pairs. Both paths score alike: set s's distance is 1/2 * sum
    over the (n)_ell possible tuples of |c/total - 1/(n)_ell|, whose
    numerator over 2 * total * (n)_ell is the sum over the present tuples
    of |c * (n)_ell - total| plus total per absent one. The worst set is
    the first with the largest numerator, with no witness when it is 0.
    GuardExceeded is raised when n^ell or an int64 score could overflow.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    n, ell = spec.n, spec.ell
    if n**ell > 1 << 63:  # keys run up to n^ell - 1
        raise GuardExceeded(f"{n}^{ell} image tuples exceed the 64-bit tally key")
    rng = (seed or RngSeed.from_int(0)).stream("perm.lwise")
    space = spec.seed_space()
    exhaustive = space <= trials
    total = space if exhaustive else trials
    cells = uniform_tuple_probability(n, ell).denominator  # ordered image tuples
    chosen = _choose_index_sets(n, ell, rng)
    nsets, span = len(chosen), n**ell
    index = np.array(chosen, dtype=np.intp)  # (index sets, ell)
    dense = nsets * span <= core.PASS_CELLS
    counts = np.zeros(nsets * span if dense else 0, dtype=np.int64)
    tally: _Tally = (np.zeros(0, dtype=np.int64),) * 3  # the sorted path's (set, key) pairs and counts
    pending: List[np.ndarray] = []  # its key blocks not yet merged
    # Horner's rule from s folds the offset s * n^ell into set s's keys.
    start = np.arange(nsets, dtype=np.int64) if dense else np.zeros(nsets, dtype=np.int64)
    table = None
    if exhaustive:
        with suppress(GuardExceeded):  # over core.TABLE_CELLS: derive each pass
            table = seed_table(spec)
    rows = max(1, core.PASS_CELLS // n)
    for lo in range(0, total, rows):
        hi = min(total, lo + rows)
        if table is not None:
            forwards = table[lo:hi]
        else:
            forwards = derive_forwards(spec, range(lo, hi) if exhaustive else [spec.sample_seed(rng) for _ in range(hi - lo)])
        keys = start
        for column in index.T:
            keys = keys * n + forwards[:, column]
        keys = np.broadcast_to(keys, (hi - lo, nsets))  # (seeds, index sets), also at ell = 0
        if dense:
            counts += np.bincount(keys.ravel(), minlength=len(counts))
            continue
        pending.append(keys)
        # Merging once the pending keys outnumber the tally's pairs re-sorts
        # each pair O(log passes) times rather than once per pass.
        if sum(block.size for block in pending) >= len(tally[0]):
            tally, pending = _merge_pairs(tally, pending), []
    if dense:
        present_keys = (counts != 0).nonzero()[0]  # a bool mask's nonzero is several times faster
        set_of, counts = present_keys // span, counts[present_keys]
    else:
        set_of, _, counts = _merge_pairs(tally, pending) if pending else tally
    starts = np.searchsorted(set_of, np.arange(nsets))
    ends = starts.tolist()[1:] + [len(set_of)]
    present = [b - a for a, b in zip(starts.tolist(), ends)]
    # Each term |c * cells - total| is at most c * cells + total, so a
    # set's int64 sum stays below (cells + present) * total.
    if (cells + max(present)) * total > _INT64_MAX:
        raise GuardExceeded(f"{max(present)} tallies of {total} draws over {cells} tuples overflow int64")
    sums = np.add.reduceat(np.abs(counts * cells - total), starts).tolist()
    numerators = [a + (cells - p) * total for a, p in zip(sums, present)]
    s = numerators.index(max(numerators))
    worst = Fraction(numerators[s], 2 * total * cells)
    witness = chosen[s] if numerators[s] else None
    radius = 0.0 if exhaustive else confidence_radius(trials)
    passed = float(worst) <= radius
    counterexample = None
    if not passed:
        counterexample = {"indices": list(witness or ()), "distance": float(worst)}
    return PropertyReport(
        name="permutation-limited-independence",
        passed=passed,
        worst_case=f"max marginal distance {float(worst):.6g} over {len(chosen)} index sets",
        worst_value=worst,
        counterexample=counterexample,
        details={
            "ell": ell,
            "mode": "exhaustive" if exhaustive else "sampled",
            "radius": radius,
            "uniformity": "exact" if spec.backend == EXACT_TINY else "assumed",
        },
    )
