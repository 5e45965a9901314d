"""Concatenated tamper-resilient scheme: secret-sharing outer layer, small
lookup-table codes on fixed-width blocks, a seed-derived permutation of the
block payload, and a second small code protecting the permutation seed.

Encoding: draw a seed, encode it with the seed code (first segment);
secret-share the message, split the sharing into blocks, encode each block
with the block code, permute the concatenated payload by the seed-derived
permutation (second segment). Decoding inverts the pipeline and fails if
any block decodes to failure or the sharing is off the outer code; a seed
segment that fails to decode is identified with the all-zero seed.

A plan object carries the parameter ledger: every inequality the error
analysis leans on is evaluated and reported individually, so infeasible
toy plans are constructible but carry their violations on record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import core
from .core import FiniteDist, GuardExceeded, InfeasibleParams, RngSeed
from .inner import InnerCode, InnerParams, plan_inner_params, sample_inner_code
from .lecss import LecssCode, LecssParams
from .perm import PRF_SHUFFLE, PermSpec, Permutation, derive_permutation, seed_table
from .tamper import KEEP, SET0, SET1, BitTamperFn
from . import schemes


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    formula: str
    status: str  # "ok" | "violated" | "assumed"
    lhs: float
    rhs: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "formula": self.formula,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass(frozen=True)
class ConcatPlan:
    """Parameter sheet for one instance of the concatenated scheme."""

    gamma0: float
    inner: InnerParams
    c1: InnerParams
    lecss: LecssParams
    ell: int

    def __post_init__(self):
        if self.lecss.block_bits % self.inner.k:
            raise InfeasibleParams("block width must divide the sharing length")

    # -- layout -----------------------------------------------------------

    @property
    def block_in(self) -> int:  # b: message bits per block
        return self.inner.k

    @property
    def block_out(self) -> int:  # B: encoded bits per block
        return self.inner.n

    @property
    def sharing_bits(self) -> int:  # n2
        return self.lecss.block_bits

    @property
    def block_count(self) -> int:  # n_b
        return self.sharing_bits // self.block_in

    @property
    def payload_bits(self) -> int:  # n
        return self.block_count * self.block_out

    @property
    def seed_bits(self) -> int:  # n1
        return self.c1.n

    @property
    def seed_message_bits(self) -> int:  # k1
        return self.c1.k

    @property
    def total_bits(self) -> int:  # N
        return self.seed_bits + self.payload_bits

    @property
    def message_bits(self) -> int:  # K
        return self.lecss.message_bits

    @property
    def gamma1(self) -> Fraction:
        return Fraction(self.seed_bits, self.payload_bits)

    @property
    def gamma2(self) -> Fraction:
        return 1 - Fraction(self.message_bits, self.sharing_bits)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.message_bits, self.total_bits)

    # -- analysis parameters ------------------------------------------------

    @property
    def independent_payload_bits(self) -> int:  # t2 (bits)
        return self.lecss.independent_bits

    @property
    def distance_bits(self) -> int:  # delta2 * n2 (conservative bound)
        return self.lecss.distance_bits_bound

    @property
    def delta2(self) -> Fraction:
        return Fraction(self.distance_bits, self.sharing_bits)

    @property
    def gamma2_prime(self) -> Fraction:
        return Fraction(self.independent_payload_bits, self.sharing_bits)

    @property
    def gamma2_doubleprime(self) -> Fraction:
        n2, b, n = self.sharing_bits, self.block_in, self.payload_bits
        return self.delta2 * self.gamma2_prime * Fraction(n2, 2 * b * n) ** 2

    @property
    def case1_freeze_bits(self) -> int:
        """Least payload freeze count that lands in the many-frozen case."""
        bound = self.payload_bits - Fraction(self.independent_payload_bits, self.block_in)
        return max(0, ceil(bound))

    @property
    def case21_keep_bits(self) -> int:
        """Least untouched-payload count for the few-errors sub-case."""
        bound = self.payload_bits - self.delta2 * self.block_count
        if bound.denominator == 1:
            return int(bound) + 1
        return ceil(bound)

    def perm_spec(self) -> PermSpec:
        return PermSpec(
            n=self.payload_bits,
            ell=self.ell,
            seed_bits=self.seed_message_bits,
        )

    # -- the constraint ledger ------------------------------------------

    def constraints(self) -> List[ConstraintCheck]:
        b, big_b = self.block_in, self.block_out
        n, n2 = self.payload_bits, self.sharing_bits
        return [
            ConstraintCheck(
                "block-divides-sharing",
                "b | n2",
                "ok" if n2 % b == 0 else "violated",
                n2 % b,
                0,
            ),
            ConstraintCheck(
                "length-split",
                "N = n1 + n",
                "ok" if self.total_bits == self.seed_bits + n else "violated",
                self.total_bits,
                self.seed_bits + n,
            ),
            ConstraintCheck(
                "seed-slack-range",
                "gamma0/2 <= gamma1 <= gamma0",
                "ok"
                if Fraction(self.gamma0) / 2 <= self.gamma1 <= Fraction(self.gamma0)
                else "violated",
                float(self.gamma1),
                self.gamma0,
            ),
            ConstraintCheck(
                "independence-covers-distance",
                "gamma2' >= delta2",
                "ok" if self.gamma2_prime >= self.delta2 else "violated",
                float(self.gamma2_prime),
                float(self.delta2),
            ),
            ConstraintCheck(
                "payload-dominates-block",
                "n >= 32*B^2",
                "ok" if n >= 32 * big_b * big_b else "violated",
                n,
                32 * big_b * big_b,
            ),
            ConstraintCheck(
                "perm-order-vs-sharing",
                "ell <= min(delta2*n2, gamma2'*n2) / (2b)",
                "ok"
                if self.ell
                <= Fraction(min(self.distance_bits, self.independent_payload_bits), 2 * b)
                else "violated",
                self.ell,
                float(Fraction(min(self.distance_bits, self.independent_payload_bits), 2 * b)),
            ),
            ConstraintCheck(
                "perm-order-vs-payload",
                "ell <= n/2",
                "ok" if self.ell <= n // 2 else "violated",
                self.ell,
                n / 2,
            ),
            # The shuffle backend cannot certify the permutation closeness
            # bound; it is an assumption surfaced in the ledger.
            ConstraintCheck("perm-closeness", "delta <= gamma2''/2", "assumed", 0.0,
                            float(self.gamma2_doubleprime / 2)),
        ]

    def violated(self) -> List[ConstraintCheck]:
        return [c for c in self.constraints() if c.status == "violated"]

    def predicted_error(self, eps1: float) -> dict:
        """Headline error prediction with every constant labeled.

        eps1 is the measured (or assumed) error of the seed-protecting
        code; the two decay terms use the concrete per-case bounds with
        their unspecified asymptotic constants taken as 1 and flagged.
        """
        g2pp = float(self.gamma2_doubleprime)
        rounds = self.ell // self.block_out
        case2 = (1 - g2pp / 6) ** rounds if rounds else 1.0
        blocks_hit = max(rounds // self.block_out, 0)
        case3 = (7 / 8) ** blocks_hit if blocks_hit else 1.0
        return {
            "seed_code_error": eps1,
            "same-permutation_term": case2,
            "independent-permutation_term": case3,
            "total_upper_bound": eps1 + case2 + case3,
            "constants": "asymptotic constants set to 1; desk-scale reports rely on measured error only",
        }

    def to_json(self) -> dict:
        return {
            "gamma0": self.gamma0,
            "gamma1": float(self.gamma1),
            "gamma2": float(self.gamma2),
            "rate": float(self.rate),
            "inner": {
                "n": self.inner.n,
                "k": self.inner.k,
                "t": self.inner.t,
                "delta": self.inner.delta,
            },
            "seed_code": {
                "n": self.c1.n,
                "k": self.c1.k,
                "t": self.c1.t,
                "delta": self.c1.delta,
            },
            "lecss": {
                "q": 1 << self.lecss.m,
                "n": self.lecss.n,
                "k": self.lecss.k,
                "k0": self.lecss.k0,
            },
            "ell": self.ell,
            "perm_backend": PRF_SHUFFLE,
            "layout": {
                "N": self.total_bits,
                "n": self.payload_bits,
                "n1": self.seed_bits,
                "n2": self.sharing_bits,
                "n_b": self.block_count,
                "B": self.block_out,
                "b": self.block_in,
                "K": self.message_bits,
            },
            "constraints": [c.to_json() for c in self.constraints()],
        }


def plan_concat(
    total_bits: int,
    gamma0: float,
    seed_code_rate: float = 0.25,
    strict: bool = True,
) -> ConcatPlan:
    """Derive a full plan for a target total length and rate slack.

    Searches sharing lengths whose derived seed-segment slack stays inside
    [gamma0/2, gamma0] and whose ledger holds. `strict` raises on the first
    violated inequality; with strict=False the best structural candidate is
    returned with violations recorded. The seed code has t = 2.
    """
    if not 0.0 < gamma0 <= 0.5:
        raise InfeasibleParams("gamma0 must lie in (0, 1/2]")
    if total_bits < 8:
        raise InfeasibleParams("total length too small")

    inner_plan = None
    for big_b in range(4, 33):
        b = round(big_b * (1.0 - gamma0))
        if not 1 <= b < big_b:
            continue
        if abs(b / big_b - (1.0 - gamma0)) > 1e-9:
            continue
        try:
            inner_plan = plan_inner_params(gamma0, big_b)
            break
        except InfeasibleParams:
            continue
    if inner_plan is None:
        raise InfeasibleParams(f"no block length realizes rate slack {gamma0}")
    inner = inner_plan.params
    b, big_b = inner.k, inner.n

    candidates: List[ConcatPlan] = []
    lo = int(total_bits / (1 + gamma0))
    hi = int(total_bits / (1 + gamma0 / 2))
    for n in range(hi // big_b * big_b, lo - 1, -big_b):  # multiples of B, from the top
        n2 = n // big_b * b
        n1 = total_bits - n
        if n1 < 2:
            continue
        try:
            lecss = LecssParams.for_bits(n2, gamma0)
        except InfeasibleParams:
            continue
        k1 = max(1, int(seed_code_rate * n1))
        try:
            c1 = InnerParams(n=n1, k=k1, t=2, delta=0.0)
        except InfeasibleParams:
            continue
        ell_cap = int(
            Fraction(min(lecss.distance_bits_bound, lecss.independent_bits), 2 * b)
        )
        ell = max(0, min(ell_cap, n // 2))
        plan = ConcatPlan(
            gamma0=gamma0, inner=inner, c1=c1, lecss=lecss, ell=ell
        )
        if not plan.violated():
            return plan
        candidates.append(plan)
    if strict:
        if candidates:
            worst = candidates[0].violated()[0]
            raise InfeasibleParams(
                f"constraint {worst.name} violated: {worst.formula} "
                f"(lhs={worst.lhs}, rhs={worst.rhs})"
            )
        raise InfeasibleParams(f"no layout realizes {total_bits} bits at gamma0={gamma0}")
    if not candidates:
        raise InfeasibleParams(f"no layout realizes {total_bits} bits at gamma0={gamma0}")
    return candidates[0]


def toy_concat_plan(t_block: int = 4, t_seed: int = 2) -> ConcatPlan:
    """The desk-scale reference plan: 8-bit blocks carrying 4 message bits,
    16-bit sharing, 32-bit payload, 8-bit seed segment, 40 bits total.

    Several ledger inequalities are necessarily violated at this size; the
    plan records them rather than pretending otherwise.
    """
    inner = InnerParams(n=8, k=4, t=t_block, delta=0.0)
    c1 = InnerParams(n=8, k=2, t=t_seed, delta=0.0)
    lecss = LecssParams(m=4, n=4, k=3, k0=1)
    return ConcatPlan(gamma0=0.5, inner=inner, c1=c1, lecss=lecss, ell=0)


class ConcatCode:
    """Materialized instance; immutable and usable as a coding scheme."""

    def __init__(
        self,
        plan: ConcatPlan,
        block_code: InnerCode,
        seed_code: InnerCode,
        lecss: LecssCode,
        seed: RngSeed,
    ):
        self.plan = plan
        self.block_code = block_code
        self.seed_code = seed_code
        self.lecss = lecss
        self.seed = seed
        self.message_bits = plan.message_bits
        self.block_bits = plan.total_bits
        self._spec = plan.perm_spec()
        self._table_entries = (1 << plan.seed_message_bits) * ((plan.payload_bits + 7) // 8) * 256
        # None when the seeds' byte-scatter tables exceed core.TABLE_CELLS:
        # then permutations are not cached.
        self._perms: Optional[Dict[int, Permutation]] = (
            {} if self._table_entries <= core.TABLE_CELLS else None
        )
        self._seed_mask = (1 << plan.seed_bits) - 1
        self._block_mask = (1 << plan.block_out) - 1
        self._in_mask = (1 << plan.block_in) - 1
        self._block_words = plan.inner.t << plan.block_in  # block codewords
        self._scatter: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._payload: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- layout helpers ---------------------------------------------------

    def perm_for(self, z: int) -> Permutation:
        """Seed z's permutation, cached while every seed's scatter tables
        fit core.TABLE_CELLS and derived on each call otherwise."""
        if self._perms is None:
            return derive_permutation(self._spec, z)
        perm = self._perms.get(z)
        if perm is None:
            perm = derive_permutation(self._spec, z)
            self._perms[z] = perm
        return perm

    def fixed_full_codeword(self) -> int:
        return self.encode_int(0, self.seed.stream("concat.fixed-codeword"))

    # -- scheme interface --------------------------------------------------

    def encode_int(self, s: int, rng: random.Random) -> int:
        plan = self.plan
        z = rng.getrandbits(plan.seed_message_bits)
        seed_word = self.seed_code.encode_int(z, rng)
        q = self.lecss.q
        r = rng.randrange(self.lecss.randomness_count)
        sharing = self.lecss.encode_with(s, [r // q**i % q for i in range(self.lecss.k0)])
        payload = 0
        for i in range(plan.block_count):
            block = (sharing >> (i * plan.block_in)) & self._in_mask
            payload |= self.block_code.encode_int(block, rng) << (i * plan.block_out)
        permuted = self.perm_for(z).apply_int(payload)
        return seed_word | (permuted << plan.seed_bits)

    def decode_int(self, w: int) -> Optional[int]:
        plan = self.plan
        z = self.seed_code.decode_int(w & self._seed_mask)
        if z is None:
            z = 0  # failed seed segments are identified with the zero seed
        payload = self.perm_for(z).invert_int(w >> plan.seed_bits)
        sharing = 0
        block_decode = self.block_code.decode_int
        for i in range(plan.block_count):
            block = (payload >> (i * plan.block_out)) & self._block_mask
            d = block_decode(block)
            if d is None:
                return None
            sharing |= d << (i * plan.block_in)
        return self.lecss.decode_int(sharing)

    # -- batch kernels ------------------------------------------------------

    def _scatter_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Forward and inverse byte-scatter tables of every seed's
        permutation (the rows of `perm.seed_table`), built on the first
        batch call. Row j of each is byte j's table for every seed in
        turn: entry (z << 8) | byte is the OR of 1 << map[8j + b] over the
        set bits b of byte, 0 where byte sets a bit past the word. The
        entries are built by doubling: the bytes with top bit b are the
        bytes below 1 << b with bit b's image ORed in."""
        if self._scatter is None:
            if self._table_entries > core.TABLE_CELLS:
                raise GuardExceeded(
                    f"{self._table_entries} permutation-table entries exceed guard {core.TABLE_CELLS}"
                )
            forward = seed_table(self._spec)
            seeds, n = forward.shape
            inverse = np.empty_like(forward)
            np.put_along_axis(inverse, forward, np.arange(n, dtype=forward.dtype), axis=1)
            nbytes = (n + 7) // 8
            tables = []
            for mapping in (forward, inverse):
                bits = np.zeros((nbytes * 8, seeds), dtype=np.uint64)
                bits[:n] = np.uint64(1) << mapping.T.astype(np.uint64)
                bits = bits.reshape(nbytes, 8, seeds)
                table = np.zeros((nbytes, 256, seeds), dtype=np.uint64)
                for b in range(8):
                    table[:, 1 << b : 2 << b] = table[:, : 1 << b] | bits[:, b, None]
                if n % 8:
                    table[-1, 1 << (n % 8) :] = 0
                tables.append(table.transpose(0, 2, 1).reshape(nbytes, seeds * 256))
            self._scatter = tuple(tables)
        return self._scatter

    @staticmethod
    def _permute_many(tables: np.ndarray, z: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Scatter the bytes of each uint64 word x through its seed z's
        tables: byte j of x reads entry (z << 8) | byte of row j, a `take`
        with np.intp indices (z intp, each byte cast after masking)."""
        base = z << 8
        acc = tables[0].take(base | (x & 0xFF).astype(np.intp))
        for j in range(1, len(tables)):
            acc |= tables[j].take(base | ((x >> (8 * j)) & 0xFF).astype(np.intp))
        return acc

    def _payload_entries(self) -> int:
        """Entries of `_payload_tables`."""
        plan = self.plan
        return plan.block_count * ((self._block_words << plan.seed_message_bits) + (1 << plan.block_out))

    def _payload_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """The permuted block images and the block decode tables, built on
        the first batch call from the block code's tables and the forward
        scatter tables.

        Images, a (2^k1, n_b * t * 2^b) uint64 array: row z, entry
        i * t * 2^b + w is block codeword w placed as block i and permuted
        by seed z, so a permuted payload is the XOR of one entry per block.
        Blocks, flat: entry (i << B) | v is block value v decoded and
        shifted to block i's place in the sharing, or the sentinel bit
        1 << n2 where v is off the block code; the sentinel fails the LECSS
        membership test, so a failed block fails the decode.
        """
        if self._payload is None:
            if self._payload_entries() > core.TABLE_CELLS:
                raise GuardExceeded(
                    f"{self._payload_entries()} payload-table entries exceed guard {core.TABLE_CELLS}"
                )
            plan = self.plan
            book, decode = self.block_code._batch_tables()
            seeds = 1 << plan.seed_message_bits
            shifts = np.arange(plan.block_count)[:, None]
            placed = (book.reshape(1, -1) << (shifts * plan.block_out).astype(np.uint64)).ravel()
            z = np.repeat(np.arange(seeds), placed.size)
            images = self._permute_many(self._scatter_tables()[0], z, np.tile(placed, seeds))
            blocks = np.where(decode >= 0, decode << (shifts * plan.block_in), 1 << plan.sharing_bits)
            self._payload = (images.reshape(seeds, -1), blocks.astype(np.uint64).ravel())
        return self._payload

    def _digits(self, msgs: np.ndarray, index: np.ndarray) -> Tuple[np.ndarray, Iterator[Tuple[int, np.ndarray]]]:
        """The encoder choices of encoding `index` of each message, in the
        order of encodings_many: the mixed-radix digits of index, most
        significant first, are the seed, its codeword, the LECSS randomness
        and the block codewords, first block slowest.

        Returns the seed segment's entry z * c1.t + c of the flat seed
        codebook, and an iterator over the blocks, last first, of (i, entry
        (block message) * t + choice of the flat block codebook). Each digit
        is peeled where it is used and the blocks one at a time, mostly in
        place: at batch sizes every live temporary is a fresh allocation.
        The sharing is read as int64, so its blocks index without a cast.
        """
        plan = self.plan
        t, lecss_r = plan.inner.t, self.lecss.randomness_count
        choices = t**plan.block_count
        rest = index // choices
        index = index - rest * choices  # the block choices
        seg = rest // lecss_r
        rest -= seg * lecss_r
        sharing = self.lecss.encode_many(msgs, rest).view(np.int64)

        def blocks(index: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
            for i in reversed(range(plan.block_count)):
                rest = index // t
                index -= rest * t
                entry = sharing >> (i * plan.block_in)
                entry &= self._in_mask
                entry *= t
                entry += index
                yield i, entry
                index = rest

        return seg, blocks(index)

    def _xor_blocks(
        self, table: np.ndarray, base: np.ndarray, blocks: Iterator[Tuple[int, np.ndarray]]
    ) -> np.ndarray:
        """XOR over the blocks (i, entry) of flat table entry
        base + i * t * 2^b + entry, the entries updated in place."""
        out = np.zeros(len(base), dtype=np.uint64)
        for i, entry in blocks:
            entry += base
            entry += i * self._block_words
            out ^= table.take(entry)
        return out

    def _decode_payload(self, payload: np.ndarray) -> np.ndarray:
        """The message of each un-permuted payload, -1 where a block or the
        sharing fails to decode: one decode-table `take` per block."""
        plan = self.plan
        blocks = self._payload_tables()[1]
        sharing = blocks.take((payload & self._block_mask).view(np.intp))
        for i in range(1, plan.block_count):
            part = payload >> (i * plan.block_out)
            part &= self._block_mask
            part = part.view(np.intp)
            part += i << plan.block_out
            sharing |= blocks.take(part)
        return self.lecss.decode_many(sharing)

    def encode_many(self, msgs: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Encoding `index` of each message, in the order of encodings_many:
        the seed codeword beside the XOR of the blocks' permuted images."""
        schemes.check_word_bits(self)
        seg, blocks = self._digits(msgs, index)
        images = self._payload_tables()[0]
        permuted = self._xor_blocks(images.ravel(), seg // self.plan.c1.t * images.shape[1], blocks)
        return self.seed_code._batch_tables()[0].take(seg) | (permuted << self.plan.seed_bits)

    def decode_many(self, words: np.ndarray) -> np.ndarray:
        schemes.check_word_bits(self)
        # Failed seed segments (-1) are identified with the zero seed.
        z = np.maximum(self.seed_code.decode_many(words & self._seed_mask), 0)
        return self._decode_payload(
            self._permute_many(self._scatter_tables()[1], z, words >> self.plan.seed_bits)
        )

    def fold(self, f: BitTamperFn) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """decode_many(f.apply_many(encode_many(msgs, index))) through a
        table built once for f.

        Seed segment entry j = z * c1.t + c decodes under f to a fixed seed
        z'_j (0 where the decode fails), and f acts on the payload as a
        keep/flip mask and a constant, so the un-permuted tampered payload
        is the XOR, over the blocks, of the block's image under seed z
        masked by f and inverse-permuted by z'_j, and of f's payload
        constant inverse-permuted by z'_j. Row j of the table holds those
        images, the constant XORed into every block-0 entry. A run costs the
        index digits, one `take` and one XOR per block to the payload, and
        `_decode_payload`. Raises GuardExceeded, before any table is built,
        on words over 64 bits or when the payload tables and the fold's
        table exceed core.TABLE_CELLS entries.
        """
        schemes.check_word_bits(self)
        plan = self.plan
        segments = plan.c1.t << plan.seed_message_bits
        entries = self._payload_entries() + segments * plan.block_count * self._block_words
        if entries > core.TABLE_CELLS:
            raise GuardExceeded(f"{entries} fold-table entries exceed guard {core.TABLE_CELLS}")
        images = self._payload_tables()[0]
        width = images.shape[1]
        # f(x) = (x & keep) ^ f(0), and the seed words carry f(0)'s payload.
        ends = f.apply_many(np.array([0, (1 << plan.total_bits) - 1], dtype=np.uint64))
        keep = (ends[0] ^ ends[1]) >> plan.seed_bits
        tampered = f.apply_many(self.seed_code._batch_tables()[0].ravel())
        z = np.maximum(self.seed_code.decode_many(tampered & self._seed_mask), 0)
        inverse = self._scatter_tables()[1]
        masked = np.repeat(images, plan.c1.t, axis=0) & keep
        table = self._permute_many(inverse, np.repeat(z, width), masked.ravel()).reshape(segments, width)
        constant = self._permute_many(inverse, z, tampered >> plan.seed_bits)
        table[:, : self._block_words] ^= constant[:, None]
        table = table.ravel()

        def run(msgs: np.ndarray, index: np.ndarray) -> np.ndarray:
            seg, blocks = self._digits(msgs, index)
            seg *= width
            return self._decode_payload(self._xor_blocks(table, seg, blocks))

        return run

    def encoding_count(self, s: int) -> int:
        plan = self.plan
        return (
            (1 << plan.seed_message_bits)
            * plan.c1.t
            * self.lecss.randomness_count
            * plan.inner.t**plan.block_count
        )

    def encodings_many(self, s: int) -> np.ndarray:
        """Every encoding of s in iter_encodings_int order (seeds, seed
        codewords, sharings, then block-codeword choices with the first
        block slowest), from the seed codebook and the payload images."""
        schemes.check_word_bits(self)
        plan = self.plan
        t = plan.inner.t
        images = self._payload_tables()[0]
        sharings = self.lecss.encodings_many(s).view(np.int64)
        choices = np.unravel_index(np.arange(t**plan.block_count), (t,) * plan.block_count)
        permuted = np.zeros((len(images), len(sharings), len(choices[0])), dtype=np.uint64)
        for i, c in enumerate(choices):
            blocks = (sharings >> (i * plan.block_in)) & self._in_mask
            permuted ^= images[:, blocks[:, None] * t + c + i * self._block_words]
        seed_words = self.seed_code._batch_tables()[0]
        return (seed_words[:, :, None] | (permuted.reshape(len(images), 1, -1) << plan.seed_bits)).ravel()

    def iter_encodings_int(self, s: int) -> Iterable[int]:
        plan = self.plan
        from itertools import product

        block_words = self.block_code.codebook
        seed_words = self.seed_code.codebook
        shift = plan.seed_bits
        for z in range(1 << plan.seed_message_bits):
            perm = self.perm_for(z)
            for seed_word in seed_words[z]:
                for sharing in self.lecss.iter_encodings_int(s):
                    blocks = [
                        (sharing >> (i * plan.block_in)) & self._in_mask
                        for i in range(plan.block_count)
                    ]
                    for choice in product(range(plan.inner.t), repeat=plan.block_count):
                        payload = 0
                        for i, (blk, c) in enumerate(zip(blocks, choice)):
                            payload |= block_words[blk][c] << (i * plan.block_out)
                        yield seed_word | (perm.apply_int(payload) << shift)

    # -- exact experiments ------------------------------------------------

    def exact_outcome_dist(self, f, s: int) -> FiniteDist:
        """Exact distribution of decode(tamper(encode(s))) over every encoder choice."""
        return schemes.tampered_output_dist(self, f, s)


def build_concat(plan: ConcatPlan, seed: RngSeed) -> ConcatCode:
    block_code = sample_inner_code(plan.inner, seed.child(101))
    seed_code = sample_inner_code(plan.c1, seed.child(102))
    return ConcatCode(plan, block_code, seed_code, plan.lecss.build(), seed)


# ---------------------------------------------------------------------------
# Adversary classification and attack experiments
# ---------------------------------------------------------------------------


def classify_adversary(plan: ConcatPlan, f: BitTamperFn) -> str:
    """Place a per-bit adversary in the analysis taxonomy.

    case1: enough payload bits frozen; case2.x: seed segment untouched
    (2.1 when almost all payload bits are kept, else 2.2); case3: seed
    segment fully frozen; anything else is a convex mixture of the cases.
    """
    n1 = plan.seed_bits
    if f.n != plan.total_bits:
        raise ValueError("adversary length mismatch")
    seed_actions = f.actions[:n1]
    payload_actions = f.actions[n1:]
    frozen = sum(1 for a in payload_actions if a in (SET0, SET1))
    kept = sum(1 for a in payload_actions if a == KEEP)
    if frozen >= plan.case1_freeze_bits:
        return "case1"
    if all(a == KEEP for a in seed_actions):
        if kept >= plan.case21_keep_bits and frozen == len(payload_actions) - kept:
            return "case2.1"
        return "case2.2"
    if all(a in (SET0, SET1) for a in seed_actions):
        return "case3"
    return "general"


@dataclass
class AttackReport:
    adversary_id: str
    case_class: str
    eps_hat: float
    radius: float
    samples: int
    per_message: Dict[int, float] = field(default_factory=dict)
    reference: Optional[dict] = None

    def csv_row(self) -> str:
        return f"{self.adversary_id},{self.case_class},{self.eps_hat:.6f},{self.radius:.6f},{self.samples}"

    CSV_HEADER = "adversary_id,case_class,eps_hat,radius,samples"

    def to_json(self) -> dict:
        return {
            "adversary_id": self.adversary_id,
            "case_class": self.case_class,
            "eps_hat": self.eps_hat,
            "radius": self.radius,
            "samples": self.samples,
            "per_message": {str(k): v for k, v in self.per_message.items()},
            "reference": self.reference,
        }


def attack_experiment(
    code: ConcatCode,
    f: BitTamperFn,
    messages: Optional[Sequence[int]] = None,
    samples: int = 10000,
    seed: Optional[RngSeed] = None,
    adversary_id: str = "adversary",
) -> AttackReport:
    """Empirical tampering error of one adversary against the scheme.

    Samples the reference distribution and the tampered decoding of each
    message, its row first in one count call (`schemes.nm_error` with no
    reference), then measures the per-message distance between the two
    with SAME resolved; reports the worst message and the sampling radius.
    """
    seed = seed or RngSeed.from_int(0)
    rng = seed.stream(f"attack.{adversary_id}")
    report = schemes.nm_error(code, f, None, messages=messages, samples=samples, rng=rng)
    return AttackReport(
        adversary_id=adversary_id,
        case_class=classify_adversary(code.plan, f),
        eps_hat=float(report.value),
        radius=report.radius,
        samples=samples,
        per_message={s: float(v) for s, v in report.per_message.items()},
        reference=report.reference.to_json(),
    )

