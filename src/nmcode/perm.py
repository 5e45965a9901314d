"""Seed-derived permutations of bit positions.

Two backends share one interface. "prf-shuffle" hashes the seed into a
keyed stream that drives a Fisher-Yates shuffle: deterministic and usable
at any size, but its closeness to a uniform permutation is a heuristic
assumption and is reported as such. "exact-tiny" (n <= 8) unranks the seed
into the factorial table; over its accepted seed range every permutation
is hit equally often, so uniformity is exact and testable by enumeration.

Applying a permutation moves input bit i to output position forward[i].
Applications run through per-byte scatter tables, so a 64-bit word costs
eight lookups instead of 64 bit moves.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .core import (
    BitWord,
    InfeasibleParams,
    PropertyReport,
    RngSeed,
    confidence_radius,
    uniform_distance,
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

    def apply(self, x: BitWord) -> BitWord:
        if len(x) != self.n:
            raise ValueError("length mismatch")
        return BitWord(self.apply_int(x.value), self.n)

    def invert(self, x: BitWord) -> BitWord:
        if len(x) != self.n:
            raise ValueError("length mismatch")
        return BitWord(self.invert_int(x.value), self.n)

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


def derive_permutation(spec: PermSpec, seed) -> Permutation:
    """Deterministic permutation from a seed value (int or BitWord)."""
    z = seed.value if isinstance(seed, BitWord) else int(seed)
    if isinstance(seed, BitWord) and len(seed) != spec.seed_bits:
        raise ValueError("seed width mismatch")
    if not 0 <= z < (1 << spec.seed_bits):
        raise ValueError("seed out of range")
    if spec.backend == EXACT_TINY:
        return Permutation(_unrank(z % factorial(spec.n), spec.n))
    material = b"nmcode.perm.prf:%d:%d:" % (spec.n, spec.seed_bits)
    material += z.to_bytes((spec.seed_bits + 7) // 8, "little")
    rng = random.Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))
    arr = list(range(spec.n))
    for i in range(spec.n - 1, 0, -1):
        j = rng.randrange(i + 1)
        arr[i], arr[j] = arr[j], arr[i]
    return Permutation(arr)


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
        while rank >= comb(n - x - 1, left - 1):
            rank -= comb(n - x - 1, left - 1)
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


def test_lwise_dependence(
    spec: PermSpec,
    ell: Optional[int] = None,
    trials: int = 10000,
    seed: Optional[RngSeed] = None,
    derive_fn: Optional[Callable[[PermSpec, int], Permutation]] = None,
    eta: float = 1e-6,
) -> PropertyReport:
    """Compare marginals of derived permutations against a uniform one.

    For each sampled index set T, the distribution of the image tuple
    (perm(t) for t in T) over random seeds is compared with the exact
    uniform-permutation marginal. When the backend's accepted seed space
    is small enough the sweep enumerates it and the distance is exact;
    otherwise `trials` seeds are drawn and a confidence radius is attached.
    Either way each seed's permutation is derived once and tallied for
    every index set.
    `derive_fn` substitutes a custom derivation (degenerate controls in
    tests).
    """
    ell = spec.ell if ell is None else ell
    rng = (seed or RngSeed.from_int(0)).stream("perm.lwise")
    derive = derive_fn or derive_permutation
    n = spec.n
    space = spec.seed_space()
    exhaustive = space <= trials
    cells = uniform_tuple_probability(n, ell).denominator  # ordered image tuples
    chosen = _choose_index_sets(n, ell, rng)
    tallies: List[Dict[Tuple[int, ...], int]] = [{} for _ in chosen]

    def tally(perm: Permutation, counts: Dict[Tuple[int, ...], int], t_set) -> None:
        key = tuple(perm.forward[t] for t in t_set)
        counts[key] = counts.get(key, 0) + 1

    if exhaustive:
        total = space
        seeds: Iterable[int] = range(space)
    else:
        total = trials
        seeds = (spec.sample_seed(rng) for _ in range(trials))
    for z in seeds:
        perm = derive(spec, z)
        for counts, t_set in zip(tallies, chosen):
            tally(perm, counts, t_set)
    worst = Fraction(0)
    witness: Optional[Tuple[int, ...]] = None
    for counts, t_set in zip(tallies, chosen):
        dist = uniform_distance(counts.values(), total, cells)
        if dist > worst:
            worst = dist
            witness = t_set
    radius = 0.0 if exhaustive else confidence_radius(trials, eta)
    passed = float(worst) <= radius if exhaustive or radius else worst == 0
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
