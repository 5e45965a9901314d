"""Linear error-correcting secret sharing built on Reed-Solomon codes.

The generator matrix is Vandermonde: row i evaluates x^i at the first n
field elements (0, 1, 2, ...), so the code is MDS with symbol distance
n - k + 1, and the first k0 rows span a code whose every k0 columns are
linearly independent. Encoding prepends k0 uniformly random symbols to the
message symbols, which makes any k0 codeword symbols (hence any k0
codeword bits) exactly uniform regardless of the message.

Decoding interpolates the unique degree-<k polynomial through the first k
coordinates and re-evaluates everywhere: membership testing only, no error
correction. Bits pack little-endian within each symbol, symbols in
coordinate order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import core
from .core import GuardExceeded, InfeasibleParams, PropertyReport, RngSeed, worst_marginal
from .gf import GF2m, field, invert_matrix
from .inner import DEFAULT_INDEP_GUARD

#: Most coefficient vectors verify_lecss scans for the exact distance.
EXHAUSTIVE_DISTANCE_GUARD = 1 << 16


@dataclass(frozen=True)
class LecssParams:
    """Symbol width m (q = 2^m), length n, dimension k and k0 randomness
    symbols of a Reed-Solomon LECSS, with the sizes they fix; planning
    reads these without building the code."""

    m: int
    n: int
    k: int
    k0: int

    def __post_init__(self):
        if not 1 <= self.k0 < self.k <= self.n:
            raise InfeasibleParams(f"need 1 <= k0 < k <= n, got k0 = {self.k0}, k = {self.k}, n = {self.n}")
        if self.n > 1 << self.m:
            raise InfeasibleParams(f"n = {self.n} exceeds field size q = {1 << self.m}")

    @classmethod
    def for_rate(cls, m: int, n: int, alpha: float) -> "LecssParams":
        """The rate rule: k = ceil(n(1-alpha/2)), k0 = floor(alpha*n/2)."""
        k = int(-((-n * (2 - alpha)) // 2))
        return cls(m=m, n=n, k=k, k0=int(n * alpha / 2))

    @classmethod
    def for_bits(cls, block_bits: int, alpha: float) -> "LecssParams":
        """The rate rule at the smallest m with n*m = block_bits that fits;
        raises when no factorization fits."""
        for m in range(1, 13):
            if block_bits % m == 0:
                try:
                    return cls.for_rate(m, block_bits // m, alpha)
                except InfeasibleParams:
                    continue
        raise InfeasibleParams(f"no (m, n) factorization of {block_bits} bits fits")

    def build(self) -> "LecssCode":
        return LecssCode(self.m, self.n, self.k, self.k0)

    @property
    def block_bits(self) -> int:
        return self.n * self.m

    @property
    def message_bits(self) -> int:
        return (self.k - self.k0) * self.m

    @property
    def independent_bits(self) -> int:
        """Any this-many codeword bits are exactly uniform."""
        return self.k0

    @property
    def distance_bits_bound(self) -> int:
        """Conservative bit-distance parameter used by the outer planner."""
        return self.n - self.k


class LecssCode:
    def __init__(self, m: int, n: int, k: int, k0: int):
        self.params = LecssParams(m, n, k, k0)
        fld = field(m)
        self.field: GF2m = fld
        self.m = m
        self.q = fld.q
        self.n = n
        self.k = k
        self.k0 = k0
        self.points = list(range(n))
        # G[i][j] = points[j]^i ; rows 0..k-1
        self.generator = [
            [fld.pow(x, i) for x in self.points] for i in range(k)
        ]
        vk = [[fld.pow(self.points[r], i) for i in range(k)] for r in range(k)]
        vinv = invert_matrix(fld, vk)
        if vinv is None:
            raise InfeasibleParams("interpolation matrix singular")
        self._vinv = vinv
        self.block_bits = self.params.block_bits
        self.message_bits = self.params.message_bits
        self.randomness_count = self.q**k0
        self._tables: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def symbol_distance(self) -> int:
        """Exact minimum symbol distance (the code is MDS)."""
        return self.n - self.k + 1

    # -- symbol/bit packing ----------------------------------------------

    def pack(self, symbols: Sequence[int]) -> int:
        acc = 0
        for j, sym in enumerate(symbols):
            acc |= sym << (j * self.m)
        return acc

    def unpack(self, word: int) -> List[int]:
        mask = self.q - 1
        return [(word >> (j * self.m)) & mask for j in range(self.n)]

    def message_symbols(self, s: int) -> List[int]:
        mask = self.q - 1
        return [(s >> (j * self.m)) & mask for j in range(self.k - self.k0)]

    # -- encode / decode ------------------------------------------------------

    def encode_symbols(self, s: int, randomness: Sequence[int]) -> List[int]:
        coeffs = list(randomness) + self.message_symbols(s)
        fld = self.field
        return [fld.eval_poly(coeffs, x) for x in self.points]

    def encode_with(self, s: int, randomness: Sequence[int]) -> int:
        return self.pack(self.encode_symbols(s, randomness))

    def encode_int(self, s: int, rng: random.Random) -> int:
        randomness = [rng.randrange(self.q) for _ in range(self.k0)]
        return self.encode_with(s, randomness)

    def decode_int(self, w: int) -> Optional[int]:
        symbols = self.unpack(w)
        fld = self.field
        coeffs = [0] * self.k
        for r in range(self.k):
            row = self._vinv[r]
            acc = 0
            for i in range(self.k):
                acc ^= fld.mul(row[i], symbols[i])
            coeffs[r] = acc
        for j in range(self.k, self.n):
            if fld.eval_poly(coeffs, self.points[j]) != symbols[j]:
                return None
        msg = 0
        for j, sym in enumerate(coeffs[self.k0 :]):
            msg |= sym << (j * self.m)
        return msg

    def _codeword_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every codeword as a uint64 array, and the index of the codeword
        through each value of the first k symbols; built on first use.

        Entry v is the codeword whose coefficient vector has base-q digits
        v (randomness symbols low, message symbols high), so entry
        r + s*q^k0 is encode_with(s, digits of r); by linearity it is the
        XOR over rows i of row i scaled by digit i. The code is MDS, so its
        first k symbols determine a codeword, as in decode_int. The batch
        kernels read both through `take` with np.intp indices, words cast
        only after masking to their first k symbols.
        """
        if self._tables is None:
            total = self.q**self.k
            if total > core.TABLE_CELLS:
                raise GuardExceeded(f"q^k = {total} codewords exceed guard {core.TABLE_CELLS}")
            index = np.arange(total, dtype=np.int64)
            words = np.zeros(total, dtype=np.uint64)
            for i, row in enumerate(self.generator):
                scaled = [self.pack([self.field.mul(c, g) for g in row]) for c in range(self.q)]
                digit = (index >> (i * self.m)) & (self.q - 1)
                words ^= np.array(scaled, dtype=np.uint64)[digit]
            by_prefix = np.empty(total, dtype=np.int64)
            by_prefix[words & (total - 1)] = index
            self._tables = (words, by_prefix)
        return self._tables

    def encode_many(self, msgs: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Encoding `index` of each message: the randomness value index,
        row s*q^k0 + index of the codeword table."""
        words, _ = self._codeword_tables()
        return words.take((msgs << (self.k0 * self.m)) | index)

    def decode_many(self, words: np.ndarray) -> np.ndarray:
        """Look up the codeword through the first k symbols; accept it when
        the whole word matches (membership testing, as decode_int)."""
        table, by_prefix = self._codeword_tables()
        v = by_prefix.take((words & (len(table) - 1)).astype(np.intp))
        return np.where(table.take(v) == words, v >> (self.k0 * self.m), -1)

    def encoding_count(self, s: int) -> int:
        return self.randomness_count

    def encodings_many(self, s: int) -> np.ndarray:
        """Every encoding of s in randomness-value order: rows s*q^k0 + r
        of the codeword table, r = 0, 1, ..., q^k0 - 1."""
        words, _ = self._codeword_tables()
        return words[s * self.randomness_count : (s + 1) * self.randomness_count]

    def iter_encodings_int(self, s: int) -> Iterable[int]:
        """The words of encodings_many(s): randomness value r puts its
        base-q digit i (least significant first) in symbol i."""
        if self.randomness_count > core.TABLE_CELLS:
            raise GuardExceeded(
                f"q^k0 = {self.randomness_count} randomness vectors exceed guard {core.TABLE_CELLS}"
            )
        for r in range(self.randomness_count):
            yield self.encode_with(s, [(r >> (i * self.m)) & (self.q - 1) for i in range(self.k0)])

    def descriptor(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "k": self.k,
            "k0": self.k0,
            "modulus": self.field.poly,
            "eval_points": self.points,
        }

    @classmethod
    def from_descriptor(cls, obj: dict) -> "LecssCode":
        code = cls(obj["q"].bit_length() - 1, obj["n"], obj["k"], obj["k0"])
        if code.field.poly != obj["modulus"]:
            raise ValueError("modulus mismatch")
        return code

    def __repr__(self):
        return f"LecssCode(q={self.q}, n={self.n}, k={self.k}, k0={self.k0})"


def build_lecss(n: int, alpha: float) -> LecssCode:
    """Standard instantiation: q the least power of two >= n and the rate
    rule of LecssParams.for_rate."""
    if not 0.0 < alpha < 1.0:
        raise InfeasibleParams("alpha must lie in (0, 1)")
    if n < 2:
        raise InfeasibleParams("need n >= 2")
    return LecssParams.for_rate(max(1, (n - 1).bit_length()), n, alpha).build()


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def _symbol_weight(symbols: Sequence[int]) -> int:
    return sum(1 for s in symbols if s)


def verify_lecss(
    code: LecssCode,
    trials: int = 1000,
    seed: Optional[RngSeed] = None,
) -> PropertyReport:
    """Distance, bounded independence, and linearity checks.

    Distance scans all q^k coefficient vectors when that count is under
    EXHAUSTIVE_DISTANCE_GUARD, else `trials` random nonzero vectors (a
    one-sided check). Independence enumerates all q^k0 randomness vectors
    of two messages and asserts exactly uniform marginals on every
    bit-index set of size <= k0; raises GuardExceeded when that sweep
    exceeds DEFAULT_INDEP_GUARD. Linearity checks
    decode(w + w') = decode(w) + decode(w') on sampled codeword pairs.
    """
    ell = code.params.independent_bits
    work = 2 * code.randomness_count * sum(comb(code.block_bits, j) for j in range(1, ell + 1))
    if work > DEFAULT_INDEP_GUARD:
        raise GuardExceeded(f"independence sweep size {work} exceeds guard {DEFAULT_INDEP_GUARD}")
    rng = (seed or RngSeed.from_int(0)).stream("lecss.verify")
    fld = code.field
    failures = []

    # (a) distance
    total = code.q**code.k
    min_weight = code.n + 1
    if total <= EXHAUSTIVE_DISTANCE_GUARD:
        for coeffs in product(range(code.q), repeat=code.k):
            if not any(coeffs):
                continue
            w = _symbol_weight([fld.eval_poly(coeffs, x) for x in code.points])
            if w < min_weight:
                min_weight = w
        mode = "exhaustive"
    else:
        for _ in range(trials):
            coeffs = [rng.randrange(code.q) for _ in range(code.k)]
            if not any(coeffs):
                coeffs[0] = 1 + rng.randrange(code.q - 1)
            w = _symbol_weight([fld.eval_poly(coeffs, x) for x in code.points])
            if w < min_weight:
                min_weight = w
        mode = "sampled"
    if min_weight < code.symbol_distance:
        failures.append(
            {"check": "distance", "observed": min_weight, "required": code.symbol_distance}
        )

    # (b) bounded independence: every bit-index set of size <= k0 exactly uniform
    msgs = [0]
    if code.message_bits:
        msgs.append(rng.getrandbits(code.message_bits))
    encodings = [list(code.iter_encodings_int(s)) for s in msgs]
    worst_indep = worst_marginal(encodings, code.block_bits, ell)[0]
    if worst_indep != 0:
        failures.append({"check": "independence", "distance": float(worst_indep)})

    # (c) linearity on sampled decodable pairs
    violations = 0
    for _ in range(trials):
        s1 = rng.getrandbits(code.message_bits)
        s2 = rng.getrandbits(code.message_bits)
        w1 = code.encode_int(s1, rng)
        w2 = code.encode_int(s2, rng)
        d = code.decode_int(w1 ^ w2)
        if d is None or d != s1 ^ s2:
            violations += 1
    if violations:
        failures.append({"check": "linearity", "violations": violations})

    passed = not failures
    return PropertyReport(
        name="lecss-properties",
        passed=passed,
        worst_case=(
            f"min symbol weight {min_weight} ({mode}), "
            f"max marginal distance {float(worst_indep):.3g}, "
            f"linearity violations {violations}"
        ),
        worst_value=Fraction(min_weight),
        counterexample=None if passed else {"failures": failures},
        details={"distance_mode": mode, "trials": trials},
    )
