"""Probabilistic lookup-table codes with a distance exclusion zone.

Codewords are drawn one message at a time: each draw is a uniformly random
word outside the Hamming balls already claimed by earlier codewords, so
any two codewords end up more than radius apart. Encoding picks uniformly
among a message's codewords; decoding is exact-match table lookup (error
detection by distance, not correction).

The module also hosts the exhaustive verifiers the concatenated
construction leans on: the sub-cube decoding-failure property, bounded
independence of encodings, and per-adversary error detection.
"""

from __future__ import annotations

import io
import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, log2
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import core
from .core import (
    GuardExceeded,
    InfeasibleParams,
    PropertyReport,
    RngSeed,
    hamming_ball_volume,
    worst_marginal,
)
from .tamper import BitTamperFn

REJECTION_BUDGET = 1 << 16
DEFAULT_DETECTION_GUARD = 1 << 26
DEFAULT_INDEP_GUARD = 1 << 24
_REMOVED_SET_GUARD = 1 << 26


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * log2(p) - (1.0 - p) * log2(1.0 - p)


def binary_entropy_inv(y: float) -> float:
    """Inverse of the binary entropy on [0, 1/2], by bisection to 10^-12."""
    if not 0.0 <= y <= 1.0:
        raise ValueError("entropy value must lie in [0, 1]")
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass(frozen=True)
class InnerParams:
    """Block length, message length, codewords per message, exclusion radius."""

    n: int
    k: int
    t: int
    delta: float = 0.0

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")
        if self.t < 1:
            raise ValueError("need t >= 1")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must lie in [0, 1)")
        if self.t << self.k > 1 << self.n:
            raise InfeasibleParams(
                f"t*2^k = {self.t << self.k} exceeds 2^n = {1 << self.n}"
            )

    @property
    def radius(self) -> int:
        return int(self.delta * self.n)

    @property
    def codeword_count(self) -> int:
        return self.t << self.k

    def ball_volume(self) -> int:
        return hamming_ball_volume(self.n, self.radius)

    def sampling_headroom(self) -> Fraction:
        """t*2^k*Vol(radius) over 2^(n-1); above 1 rejection may run hot.

        The planner refuses such parameters; direct construction is still
        allowed and relies on the rejection budget to fail honestly.
        """
        return Fraction(self.codeword_count * self.ball_volume(), 1 << (self.n - 1))


@dataclass(frozen=True)
class InnerPlan:
    params: InnerParams
    alpha: float
    epsilon: float
    delta: float
    delta_effective: float
    t_raw: int
    t_cap: int

    @property
    def k_bound(self) -> float:
        """Message-length ceiling n(1-h(delta)) - log t - 3 log(1/eps); the
        additive constant is unknowable at desk scale and taken as 0."""
        p = self.params
        return (
            p.n * (1.0 - binary_entropy(self.delta))
            - log2(p.t)
            - 3.0 * log2(1.0 / self.epsilon)
        )


def plan_inner_params(
    alpha: float, n: int, t_override: Optional[int] = None
) -> InnerPlan:
    """Derive block parameters from a rate-slack target.

    epsilon = 2^(-alpha*n/27), delta inverts the binary entropy at alpha/3,
    t grows like n/epsilon^6 but is clamped so sampling stays feasible,
    and k = floor(n*(1-alpha)). The asymptotic constant inside t is not
    trustworthy at desk scale, so t may be overridden.
    """
    if not 0.0 < alpha < 1.0:
        raise InfeasibleParams("alpha must lie in (0, 1)")
    if n < 1:
        raise InfeasibleParams("n must be positive")
    k = int(n * (1.0 - alpha))
    if k < 1:
        raise InfeasibleParams(f"k = floor(n*(1-alpha)) = {k}; no message bits")
    epsilon = 2.0 ** (-alpha * n / 27.0)
    delta = binary_entropy_inv(alpha / 3.0)
    radius = int(delta * n)
    delta_effective = radius / n
    vol = hamming_ball_volume(n, radius)
    t_cap = (1 << (n - 1)) // ((1 << k) * vol)
    t_raw = ceil(n / epsilon**6)
    if t_override is not None:
        t = t_override
    else:
        t = min(t_raw, t_cap)
    if t < 1 or t > t_cap:
        raise InfeasibleParams(
            f"t = {t} violates t*2^k*Vol(radius) <= 2^(n-1) "
            f"(cap {t_cap} at n={n}, k={k}, radius={radius})"
        )
    params = InnerParams(n=n, k=k, t=t, delta=delta)
    return InnerPlan(
        params=params,
        alpha=alpha,
        epsilon=epsilon,
        delta=delta,
        delta_effective=delta_effective,
        t_raw=t_raw,
        t_cap=t_cap,
    )


class InnerCode:
    """Sampled lookup-table code; immutable once built."""

    def __init__(
        self,
        params: InnerParams,
        codebook: Sequence[Sequence[int]],
        seed: Optional[RngSeed] = None,
    ):
        self.params = params
        self.codebook: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(ws) for ws in codebook
        )
        self.seed = seed
        self.message_bits = params.k
        self.block_bits = params.n
        if len(self.codebook) != 1 << params.k:
            raise ValueError(f"codebook holds {len(self.codebook)} messages, not 2^{params.k}")
        decode: Dict[int, int] = {}
        for s, words in enumerate(self.codebook):
            if len(words) != params.t:
                raise ValueError(f"message {s} holds {len(words)} codewords, not t={params.t}")
            for w in words:
                if not 0 <= w < 1 << params.n:
                    raise ValueError(f"codeword {w} of message {s} lies outside [0, 2^{params.n})")
                if w in decode:
                    raise ValueError("duplicate codeword in codebook")
                decode[w] = s
        self._decode = decode
        self._tables: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- scheme interface ---------------------------------------------------

    def encode_int(self, s: int, rng: random.Random) -> int:
        return self.codebook[s][rng.randrange(self.params.t)]

    def decode_int(self, w: int) -> Optional[int]:
        return self._decode.get(w)

    def iter_encodings_int(self, s: int) -> Iterable[int]:
        return self.codebook[s]

    def encoding_count(self, s: int) -> int:
        return self.params.t

    def encodings_many(self, s: int) -> np.ndarray:
        return self._batch_tables()[0][s]

    def _batch_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """The codebook as a (2^k, t) uint64 array and the decode table
        (message of every n-bit word, -1 off the code); built on first use.

        The batch kernels read both as flat tables through `take` with
        np.intp indices: codeword c of message s is entry s * t + c of the
        codebook, and words are cast to np.intp to index the decode table.
        An intp gather is two to three times as fast as a uint64 one.
        """
        if self._tables is None:
            if 1 << self.block_bits > core.TABLE_CELLS:
                raise GuardExceeded(
                    f"2^{self.block_bits}-entry decode table exceeds guard {core.TABLE_CELLS}"
                )
            book = np.array(self.codebook, dtype=np.uint64)
            decode = np.full(1 << self.block_bits, -1, dtype=np.int64)
            decode[book] = np.arange(len(book), dtype=np.int64)[:, None]
            self._tables = (book, decode)
        return self._tables

    def encode_many(self, msgs: np.ndarray, index: np.ndarray) -> np.ndarray:
        return self._batch_tables()[0].take(msgs * self.params.t + index)

    def decode_many(self, words: np.ndarray) -> np.ndarray:
        return self._batch_tables()[1].take(words.astype(np.intp))

    def min_pairwise_distance(self) -> int:
        words = [w for ws in self.codebook for w in ws]
        pairs = combinations(words, 2)
        return min(((a ^ b).bit_count() for a, b in pairs), default=self.params.n + 1)

    # -- serialization --------------------------------------------------

    _MAGIC = b"NMIC1\n"

    def save(self, fp: io.BufferedIOBase) -> None:
        p = self.params
        fp.write(self._MAGIC)
        frac = Fraction(p.delta)
        num = frac.numerator.to_bytes((frac.numerator.bit_length() + 7) // 8 or 1, "little")
        den = frac.denominator.to_bytes((frac.denominator.bit_length() + 7) // 8 or 1, "little")
        seed = self.seed or RngSeed(bytes(32), 0)
        fp.write(struct.pack("<HHI", p.n, p.k, p.t))
        fp.write(struct.pack("<H", len(num)) + num)
        fp.write(struct.pack("<H", len(den)) + den)
        fp.write(seed.seed + struct.pack("<Q", seed.stream_id))
        nbytes = (p.n + 7) // 8
        for words in self.codebook:
            for w in words:
                fp.write(w.to_bytes(nbytes, "little"))

    @classmethod
    def load(cls, fp: io.BufferedIOBase) -> "InnerCode":
        """Read a file written by `save`; raises ValueError when the file
        holds more or fewer bytes than its header implies."""

        def read(size: int) -> bytes:
            data = fp.read(size)
            if len(data) != size:
                raise ValueError(f"inner code file ends {size - len(data)} bytes short of its header")
            return data

        if read(len(cls._MAGIC)) != cls._MAGIC:
            raise ValueError("bad magic")
        n, k, t = struct.unpack("<HHI", read(8))
        (num_len,) = struct.unpack("<H", read(2))
        num = int.from_bytes(read(num_len), "little")
        (den_len,) = struct.unpack("<H", read(2))
        den = int.from_bytes(read(den_len), "little")
        seed_bytes = read(32)
        (stream_id,) = struct.unpack("<Q", read(8))
        params = InnerParams(n=n, k=k, t=t, delta=num / den if den else 0.0)
        nbytes = (n + 7) // 8
        body = fp.read()  # to the end, so a size from a bad header allocates nothing
        if len(body) != params.codeword_count * nbytes:
            raise ValueError(
                f"codebook holds {len(body)} bytes, not the {params.codeword_count} x {nbytes} of its header"
            )
        words = [int.from_bytes(body[i : i + nbytes], "little") for i in range(0, len(body), nbytes)]
        codebook = [words[s * t : (s + 1) * t] for s in range(1 << k)]
        return cls(params, codebook, RngSeed(seed_bytes, stream_id))


def _ball_masks(n: int, radius: int) -> List[int]:
    """Flip masks of weight 0 to radius, lightest first."""
    return [sum(1 << i for i in idxs)
            for w in range(radius + 1) for idxs in combinations(range(n), w)]


def sample_inner_code(params: InnerParams, seed: RngSeed) -> InnerCode:
    """Draw the code: messages in integer order, words by rejection sampling.

    A draw is rejected while it falls inside the exclusion ball of any
    earlier codeword; a run of 2^16 consecutive rejections aborts the
    construction and flags the parameters as infeasible.
    """
    n, k, t = params.n, params.k, params.t
    ball = _ball_masks(n, params.radius)
    if params.codeword_count * len(ball) > _REMOVED_SET_GUARD:
        raise GuardExceeded(
            f"exclusion set would hold up to {params.codeword_count * len(ball)} words"
        )
    rng = seed.stream("inner.sample")
    removed = set()
    codebook: List[List[int]] = []
    for s in range(1 << k):
        words: List[int] = []
        for _ in range(t):
            for _attempt in range(REJECTION_BUDGET):
                w = rng.getrandbits(n)
                if w not in removed:
                    break
            else:
                raise InfeasibleParams(
                    f"rejection budget exhausted at message {s}; "
                    f"t*2^k*Vol = {params.codeword_count * len(ball)} "
                    f"crowds 2^n = {1 << n}"
                )
            words.append(w)
            for m in ball:
                removed.add(w ^ m)
        codebook.append(words)
    return InnerCode(params, codebook, seed)


# ---------------------------------------------------------------------------
# Property verifiers
# ---------------------------------------------------------------------------


def verify_cube_property(code: InnerCode) -> PropertyReport:
    """Every sub-cube of size >= 2 decodes to failure with probability >= 1/2.

    A sub-cube freezes some coordinates and leaves the rest uniform. The
    worst one fails with fraction 0 if two codewords lie at Hamming
    distance 1, and with 1/2 otherwise. Proof: pair a cube's words across
    any free bit; a cube more than half codewords holds a codeword pair,
    which is a size-2 cube with failure 0. And every codeword lies in a
    size-2 cube with failure at most 1/2. So n decode-table lookups per
    codeword decide the check. The witness is the least-index codeword
    with a codeword neighbour and the least frozen mask whose cube around
    it is all codewords. Freezing a bit keeps a cube all codewords, so
    freeing each bit, top bit first, whose doubled cube stays all
    codewords gives that least mask.
    """
    n = code.params.n
    book, decode = code._batch_tables()
    words = book.reshape(-1).astype(np.intp)
    bits = 1 << np.arange(n, dtype=np.intp)
    paired = (decode.take(words[:, None] ^ bits) >= 0).any(axis=1)
    passed = not paired.any()
    worst = Fraction(1, 2) if passed else Fraction(0)
    counterexample = None
    if not passed:
        w = int(words[paired.argmax()])
        cube, mask = np.array([w], dtype=np.intp), (1 << n) - 1
        for bit in bits[::-1]:
            doubled = cube ^ bit
            if (decode.take(doubled) >= 0).all():
                cube, mask = np.concatenate([cube, doubled]), mask ^ int(bit)
        counterexample = {"frozen_mask": mask, "frozen_values": w & mask, "bottom_fraction": 0.0}
    return PropertyReport(
        name="cube-property",
        passed=passed,
        worst_case=f"min over sub-cubes of failure fraction = {worst}",
        worst_value=worst,
        counterexample=counterexample,
    )


def verify_bounded_independence(
    code: InnerCode,
    ell: int,
    eps: float,
    guard: int = DEFAULT_INDEP_GUARD,
) -> PropertyReport:
    """Marginals of every encoding on every index set of size <= ell are
    within eps of uniform; distances are exact frequency arithmetic, every
    message scored in one `worst_marginal` pass. The witness is the
    first worst message, then size, then `combinations` order."""
    n = code.params.n
    if ell < 0 or ell > n:
        raise ValueError("need 0 <= ell <= n")
    if eps < 0:
        raise ValueError("need eps >= 0")
    work = sum(comb(n, j) * (1 << j) for j in range(1, ell + 1)) * (
        1 << code.params.k
    )
    if work > guard:
        raise GuardExceeded(f"sweep size {work} exceeds guard {guard}")
    eps_frac = Fraction(eps).limit_denominator(10**9) if isinstance(eps, float) else Fraction(eps)
    worst, message, idxs = worst_marginal(code.codebook, n, ell)
    passed = worst <= eps_frac
    counterexample = None
    if not passed:
        counterexample = {"message": message, "indices": list(idxs), "distance": float(worst)}
    return PropertyReport(
        name="bounded-independence",
        passed=passed,
        worst_case=f"max over (message, index set) of marginal distance = {float(worst):.6g}",
        worst_value=worst,
        counterexample=counterexample,
        details={"ell": ell, "eps": float(eps_frac), "vacuous": ell == 0},
    )


#: Shifts and masks that pack bits 0, 2, 4, ... of an int64 into its low bits.
_PACK_EVEN_BITS = (
    (1, 0x3333333333333333),
    (2, 0x0F0F0F0F0F0F0F0F),
    (4, 0x00FF00FF00FF00FF),
    (8, 0x0000FFFF0000FFFF),
    (16, 0x00000000FFFFFFFF),
)


def _even_bits(x: np.ndarray, n: int) -> np.ndarray:
    """Bits 0, 2, ..., 2n - 2 of each entry of x, as an n-bit mask."""
    x = x & 0x5555555555555555
    for shift, keep in _PACK_EVEN_BITS:
        if shift >= n:
            break
        x = (x | (x >> shift)) & keep
    return x


def _detection_misses(code: InnerCode, advs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Decoder failures per (adversary, message) over every codeword of the
    message, and which adversaries are neither the identity nor constant.

    advs holds int64 adversary indices in base 4: digit b is the action on
    bit b (KEEP 0, FLIP 1, SET0 2, SET1 3). The digits' low bits `lo` and
    high bits `hi` are n-bit masks, and a word w tampers to (w & ~hi) ^ lo:
    bits in hi are set to lo, the others are flipped where lo is set.
    """
    book, decode = code._batch_tables()
    n = code.params.n
    lo, hi = _even_bits(advs, n), _even_bits(advs >> 1, n)
    # Words codeword-major and adversaries along the contiguous axis, so the
    # count over a message's t codewords sums t long rows.
    tampered = book.T.reshape(-1, 1).astype(np.intp) & ~hi
    tampered ^= lo
    hits = (decode < 0).take(tampered).reshape(book.shape[1], -1)
    misses = hits.sum(axis=0).reshape(book.shape[0], -1).T
    tested = (advs != 0) & (hi != (1 << n) - 1)
    return misses, tested


def verify_error_detection(code: InnerCode, guard: int = DEFAULT_DETECTION_GUARD) -> PropertyReport:
    """Every non-identity, non-constant per-bit adversary sends every
    message to decoder failure with probability >= 1/3.

    The probability is exact over the encoder's uniform codeword choice,
    and the sweep is exhaustive over all 4^n adversaries in base-4 counting
    order; it raises GuardExceeded when 4^n times the codeword count
    exceeds `guard`. Adversaries run in chunks of at most core.PASS_CELLS
    (adversary, codeword) cells, as base-4 indices, through the dense
    decode table; the witness is the first strict minimum in
    (adversary, message) order.
    """
    p = code.params
    threshold = Fraction(1, 3)
    work = (4**p.n) * p.codeword_count
    if work > guard:
        raise GuardExceeded(f"exhaustive sweep size {work} exceeds guard {guard}")
    per_chunk = max(1, core.PASS_CELLS // p.codeword_count)
    fewest = p.t  # failure probability 1 until a tested pair falls below it
    witness = None
    tested = 0
    for lo in range(0, 4**p.n, per_chunk):
        advs = np.arange(lo, min(lo + per_chunk, 4**p.n), dtype=np.int64)
        misses, ok = _detection_misses(code, advs)
        tested += int(ok.sum())
        misses[~ok] = p.t
        row, s = divmod(int(misses.argmin()), misses.shape[1])
        if misses[row, s] < fewest:
            fewest = int(misses[row, s])
            witness = (int(advs[row]), s)
    worst = Fraction(fewest, p.t)
    passed = worst >= threshold
    counterexample = None
    if not passed:
        adv, s = witness
        counterexample = {
            "adversary": BitTamperFn([(adv >> 2 * b) & 3 for b in range(p.n)]).to_str(),
            "message": s,
            "bottom_probability": float(worst),
        }
    return PropertyReport(
        name="error-detection",
        passed=passed,
        worst_case=f"min over (adversary, message) of failure probability = {worst}",
        worst_value=worst,
        counterexample=counterexample,
        details={"adversaries_tested": tested, "mode": "exhaustive"},
    )
