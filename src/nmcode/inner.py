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

import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, log2
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import core
from .core import (
    GuardExceeded,
    InfeasibleParams,
    RngSeed,
    Verdict,
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


@dataclass(frozen=True)
class InnerPlan:
    params: InnerParams
    epsilon: float
    delta: float
    delta_effective: float
    t_cap: int


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
        raise ValueError("alpha must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be positive")
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
        epsilon=epsilon,
        delta=delta,
        delta_effective=delta_effective,
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
        """decode_int on a uint64 array of words: -1 off the code, as for
        every word with a bit at or past n, found by one OR-reduction."""
        decode, n = self._batch_tables()[1], self.block_bits
        if np.bitwise_or.reduce(words) >> n:
            return np.where(words >> n, -1, decode.take((words & ((1 << n) - 1)).astype(np.intp)))
        return decode.take(words.astype(np.intp))

    # -- serialization: `core.write_packed`, one n-bit field per codeword

    def save(self, fp) -> None:
        header = asdict(self.params)
        if self.seed is not None:
            header["seed"] = self.seed.to_json()
        core.write_packed(fp, header, [w for words in self.codebook for w in words], self.params.n)

    @staticmethod
    def _header_params(header) -> InnerParams:
        try:
            return InnerParams(**{key: header[key] for key in ("n", "k", "t", "delta")})
        except (KeyError, TypeError):
            raise ValueError('inner code header needs the fields "n", "k", "t" and "delta"') from None

    @classmethod
    def load(cls, fp) -> "InnerCode":
        """Read a file written by `save`; raises ValueError on a header
        without the fields of InnerParams or with a malformed seed, and
        where `core.read_packed` does."""
        header, words = core.read_packed(
            fp, "inner code", lambda header: (cls._header_params(header).codeword_count, header["n"])
        )
        params, t = cls._header_params(header), header["t"]
        seed = RngSeed.from_json(header["seed"]) if "seed" in header else None
        return cls(params, [words[s * t : (s + 1) * t] for s in range(1 << params.k)], seed)


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
    crowd = params.codeword_count * params.ball_volume()
    if crowd > _REMOVED_SET_GUARD:
        raise GuardExceeded(f"exclusion set would hold up to {crowd} words")
    ball = _ball_masks(n, params.radius)
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
                    f"t*2^k*Vol = {crowd} "
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


def verify_cube_property(code: InnerCode) -> Verdict:
    """Every sub-cube of size >= 2 decodes to failure with probability >= 1/2.

    A sub-cube freezes some coordinates and leaves the rest uniform. The
    worst one fails with fraction 0 if two codewords lie at Hamming
    distance 1, and with 1/2 otherwise. Proof: pair a cube's words across
    any free bit; a cube more than half codewords holds a codeword pair,
    which is a size-2 cube with failure 0. And every codeword lies in a
    size-2 cube with failure at most 1/2. So n decode-table lookups per
    codeword decide the check. At 0 the witness is the least-index codeword
    with a codeword neighbour and the least frozen mask whose cube around
    it is all codewords. Freezing a bit keeps a cube all codewords, so
    freeing each bit, top bit first, whose doubled cube stays all
    codewords gives that least mask. At 1/2 it is the size-2 cube of the
    first codeword across bit 0.
    """
    n = code.params.n
    book, decode = code._batch_tables()
    words = book.reshape(-1).astype(np.intp)
    bits = 1 << np.arange(n, dtype=np.intp)
    paired = (decode.take(words[:, None] ^ bits) >= 0).any(axis=1)
    worst, w, mask = Fraction(1, 2), int(words[0]), ((1 << n) - 1) ^ 1
    if paired.any():
        worst, w = Fraction(0), int(words[paired.argmax()])
        cube, mask = np.array([w], dtype=np.intp), (1 << n) - 1
        for bit in bits[::-1]:
            doubled = cube ^ bit
            if (decode.take(doubled) >= 0).all():
                cube, mask = np.concatenate([cube, doubled]), mask ^ int(bit)
    return Verdict(
        name="cube-property",
        worst_value=worst,
        gate=Fraction(1, 2),
        at_least=True,
        witness={"frozen_mask": mask, "frozen_values": w & mask},
    )


def verify_bounded_independence(
    code: InnerCode,
    ell: int,
    eps: float,
    guard: int = DEFAULT_INDEP_GUARD,
) -> Verdict:
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
    worst, message, idxs = worst_marginal(code.codebook, n, ell)
    return Verdict(
        name="bounded-independence",
        worst_value=worst,
        gate=Fraction(eps).limit_denominator(10**9) if isinstance(eps, float) else Fraction(eps),
        witness=None if idxs is None else {"message": message, "indices": list(idxs)},
        details={"ell": ell, "vacuous": ell == 0},
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


def verify_error_detection(code: InnerCode, guard: int = DEFAULT_DETECTION_GUARD) -> Verdict:
    """Every non-identity, non-constant per-bit adversary sends every
    message to decoder failure with probability >= 1/3.

    The probability is exact over the encoder's uniform codeword choice,
    and the sweep is exhaustive over all 4^n adversaries in base-4 counting
    order; it raises GuardExceeded when 4^n times the codeword count
    exceeds `guard`. Adversaries run in chunks of at most core.PASS_CELLS
    (adversary, codeword) cells, as base-4 indices, through the dense
    decode table; the witness is the first minimum in (adversary, message)
    order.
    """
    p = code.params
    work = (4**p.n) * p.codeword_count
    if work > guard:
        raise GuardExceeded(f"exhaustive sweep size {work} exceeds guard {guard}")
    per_chunk = max(1, core.PASS_CELLS // p.codeword_count)
    fewest = p.t + 1  # above every count, so the first tested pair is taken
    witness = None
    tested = 0
    for lo in range(0, 4**p.n, per_chunk):
        advs = np.arange(lo, min(lo + per_chunk, 4**p.n), dtype=np.int64)
        misses, ok = _detection_misses(code, advs)
        tested += int(ok.sum())
        misses[~ok] = p.t + 1
        row, s = divmod(int(misses.argmin()), misses.shape[1])
        if misses[row, s] < fewest:
            fewest = int(misses[row, s])
            witness = (int(advs[row]), s)
    adv, s = witness  # n >= 1, so some adversary is tested
    return Verdict(
        name="error-detection",
        worst_value=Fraction(fewest, p.t),
        gate=Fraction(1, 3),
        at_least=True,
        witness={"adversary": BitTamperFn([(adv >> 2 * b) & 3 for b in range(p.n)]).to_str(), "message": s},
        details={"adversaries_tested": tested, "mode": "exhaustive"},
    )
