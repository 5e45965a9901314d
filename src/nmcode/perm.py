"""Seed-derived permutations of bit positions.

Two backends share one interface. "prf-shuffle" hashes the seed into a
keyed stream that drives a Fisher-Yates shuffle: deterministic and usable
at any size, but its closeness to a uniform permutation is a heuristic
assumption and is reported as such. "exact-tiny" (n <= 8) unranks the seed
into the factorial table; over its accepted seed range every permutation
is hit equally often, so uniformity is exact and testable by enumeration.

`derive_forwards` is the one derivation kernel: it maps a batch of seeds
to their forward maps as one array. For the shuffle backend it seeds one
Mersenne Twister per seed, pulls each seed's raw 32-bit outputs in one
`getrandbits` call, and replays CPython's `randrange` rejection sampling
and the Fisher-Yates swaps across all seeds at once in numpy, so its rows
equal what `random.Random.randrange` would shuffle. `derive_permutation`
is its one-row call.

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
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    BitWord,
    GuardExceeded,
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
#: Most seeds x n forward-map cells test_lwise_dependence derives in one pass.
LWISE_PASS_CELLS = 1 << 16


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


def _word_budget(n: int) -> int:
    """32-bit outputs drawn per seed before the shuffle replay; a seed that
    needs more is drawn again with twice as many."""
    return 3 * n // 2 + 16


def _mt_words(spec: PermSpec, seeds: Sequence[int], budget: int) -> np.ndarray:
    """Each seed's first `budget` Mersenne Twister outputs, one row per
    seed, followed by n zero words.

    The generator is seeded with the SHA-256 of the spec and the seed.
    `getrandbits(32 * budget)` returns the outputs with the first one in
    the lowest 32 bits, so the little-endian bytes are the outputs in
    order. A zero word is accepted by every randrange draw, so a row that
    runs past its budget ends inside the padding instead of past the array.
    """
    head = b"nmcode.perm.prf:%d:%d:" % (spec.n, spec.seed_bits)
    width = (spec.seed_bits + 7) // 8
    row = 4 * (budget + spec.n)
    raw = bytearray(row * len(seeds))
    gen = random.Random()
    for r, z in enumerate(seeds):
        gen.seed(int.from_bytes(hashlib.sha256(head + z.to_bytes(width, "little")).digest(), "big"))
        raw[r * row : r * row + 4 * budget] = gen.getrandbits(32 * budget).to_bytes(4 * budget, "little")
    return np.frombuffer(raw, dtype="<u4").reshape(len(seeds), budget + spec.n)


def _replay_shuffle(words: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Fisher-Yates over every row of `words` at once.

    For i = n-1 .. 1, CPython's randrange(i + 1) takes the top k bits of
    the next output, k = (i + 1).bit_length(), and draws again while they
    exceed i; then positions i and j swap. Returns the forward maps and
    the number of outputs each row used.
    """
    count, width = words.shape
    flat = words.ravel()
    start = np.arange(count, dtype=np.int64) * width
    pos = start.copy()  # each row's next output in `flat`
    forward = np.tile(np.arange(n, dtype=np.int32), (count, 1))
    cells = forward.ravel()
    base = np.arange(count, dtype=np.int64) * n
    for i in range(n - 1, 0, -1):
        shift = 32 - (i + 1).bit_length()
        j = flat[pos] >> shift
        redo = (j > i).nonzero()[0]
        while redo.size:
            again = pos[redo] + 1
            pos[redo] = again
            drawn = flat[again] >> shift
            j[redo] = drawn
            redo = redo[drawn > i]
        pos += 1
        at = base + j
        picked = cells[at]
        cells[at] = forward[:, i]
        forward[:, i] = picked
    return forward, pos - start


def _shuffle_forwards(spec: PermSpec, seeds: Sequence[int], budget: int) -> np.ndarray:
    """The shuffle backend's rows, `budget` outputs per seed; rows that
    ran past it are derived again with twice the budget."""
    forward, used = _replay_shuffle(_mt_words(spec, seeds, budget), spec.n)
    short = np.flatnonzero(used > budget)
    if short.size:
        forward[short] = _shuffle_forwards(spec, [seeds[r] for r in short], 2 * budget)
    return forward


def derive_forwards(spec: PermSpec, seeds: Sequence[int]) -> np.ndarray:
    """Forward maps of the seeds' permutations, one int32 row of length n
    per seed; the seeds are Python ints in [0, 2^seed_bits)."""
    if spec.backend == EXACT_TINY:
        f = factorial(spec.n)
        return np.array([_unrank(z % f, spec.n) for z in seeds], dtype=np.int32).reshape(len(seeds), spec.n)
    return _shuffle_forwards(spec, seeds, _word_budget(spec.n))


def derive_permutation(spec: PermSpec, seed) -> Permutation:
    """Deterministic permutation from a seed value (int or BitWord)."""
    z = seed.value if isinstance(seed, BitWord) else int(seed)
    if isinstance(seed, BitWord) and len(seed) != spec.seed_bits:
        raise ValueError("seed width mismatch")
    if not 0 <= z < (1 << spec.seed_bits):
        raise ValueError("seed out of range")
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


def _add_counts(keys: np.ndarray, counts: np.ndarray, new: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Add the occurrences of `new` to the sorted, distinct `keys` and
    their `counts`."""
    found, found_counts = np.unique(new, return_counts=True)
    if not keys.size:
        return found, found_counts
    merged, where = np.unique(np.concatenate([keys, found]), return_inverse=True)
    total = np.zeros(len(merged), dtype=np.int64)
    total[where[: len(keys)]] = counts
    total[where[len(keys) :]] += found_counts
    return merged, total


def test_lwise_dependence(
    spec: PermSpec,
    trials: int = 10000,
    seed: Optional[RngSeed] = None,
    derive_fn: Optional[Callable[[PermSpec, Sequence[int]], np.ndarray]] = None,
) -> PropertyReport:
    """Compare marginals of derived permutations against a uniform one.

    For each sampled index set T of size spec.ell, the distribution of the
    image tuple (perm(t) for t in T) over random seeds is compared with the
    exact uniform-permutation marginal. When the backend's accepted seed
    space is at most `trials` the sweep enumerates it and the distance is
    exact; otherwise `trials` seeds are drawn and a confidence radius is
    attached. Either way the seeds' forward maps are derived in passes of
    at most LWISE_PASS_CELLS cells, and each image tuple is counted as the
    mixed-radix key sum(forward[t_i] * n^(ell-1-i)).
    `derive_fn(spec, seeds)` substitutes a custom batch derivation
    (degenerate controls in tests).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    n, ell = spec.n, spec.ell
    if n**ell > 1 << 63:  # keys run up to n^ell - 1
        raise GuardExceeded(f"{n}^{ell} image tuples exceed the 64-bit tally key")
    rng = (seed or RngSeed.from_int(0)).stream("perm.lwise")
    derive = derive_fn or derive_forwards
    space = spec.seed_space()
    exhaustive = space <= trials
    total = space if exhaustive else trials
    cells = uniform_tuple_probability(n, ell).denominator  # ordered image tuples
    chosen = _choose_index_sets(n, ell, rng)
    index = np.array(chosen, dtype=np.int64)  # (index sets, ell)
    radix = n ** np.arange(ell - 1, -1, -1, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    tallies = [(empty, empty)] * len(chosen)  # (sorted keys, counts) per index set
    rows = max(1, LWISE_PASS_CELLS // n)
    for lo in range(0, total, rows):
        hi = min(total, lo + rows)
        seeds = range(lo, hi) if exhaustive else [spec.sample_seed(rng) for _ in range(hi - lo)]
        keys = derive(spec, seeds)[:, index] @ radix  # (seeds, index sets)
        tallies = [_add_counts(k, c, keys[:, s]) for s, (k, c) in enumerate(tallies)]
    worst = Fraction(0)
    witness: Optional[Tuple[int, ...]] = None
    for (_, counts), t_set in zip(tallies, chosen):
        dist = uniform_distance(counts, total, cells)
        if dist > worst:
            worst = dist
            witness = t_set
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
