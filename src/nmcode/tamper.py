"""Adversary models: per-bit tampering and split-state tampering.

A bit-tampering adversary acts on each coordinate independently with one of
four actions (keep, flip, set to 0, set to 1). A split-state adversary
applies an arbitrary lookup table to each half of the word. Both are
immutable once built; generators are seeded for reproducibility.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence, Tuple

import numpy as np

from . import core
from .core import GuardExceeded

KEEP, FLIP, SET0, SET1 = 0, 1, 2, 3
_ACTION_CHARS = "KF01"
_CHAR_TO_ACTION = {c: i for i, c in enumerate(_ACTION_CHARS)}


class BitTamperFn:
    """Per-bit adversary; precomputes masks so application is three int ops."""

    __slots__ = ("actions", "n", "_flip", "_set1", "_keepflip")

    def __init__(self, actions: Sequence[int]):
        acts = tuple(actions)
        if not acts:
            raise ValueError("empty action vector")
        if any(a not in (KEEP, FLIP, SET0, SET1) for a in acts):
            raise ValueError("unknown action code")
        self.actions = acts
        self.n = len(acts)
        flip = set0 = set1 = 0
        for i, a in enumerate(acts):
            if a == FLIP:
                flip |= 1 << i
            elif a == SET0:
                set0 |= 1 << i
            elif a == SET1:
                set1 |= 1 << i
        self._flip = flip
        self._set1 = set1
        self._keepflip = ((1 << self.n) - 1) & ~(set0 | set1)  # drops every bit at or past n

    @classmethod
    def from_str(cls, s: str) -> "BitTamperFn":
        try:
            return cls([_CHAR_TO_ACTION[c] for c in s])
        except KeyError as e:
            raise ValueError(f"bad action character {e.args[0]!r}") from None

    @classmethod
    def identity(cls, n: int) -> "BitTamperFn":
        return cls([KEEP] * n)

    @classmethod
    def complement(cls, n: int) -> "BitTamperFn":
        return cls([FLIP] * n)

    @classmethod
    def constant(cls, value: int, n: int) -> "BitTamperFn":
        """Set every bit i of an n-bit word to bit i of `value`."""
        return cls([SET1 if (value >> i) & 1 else SET0 for i in range(n)])

    def to_str(self) -> str:
        return "".join(_ACTION_CHARS[a] for a in self.actions)

    def apply_int(self, x: int) -> int:
        return ((x ^ self._flip) & self._keepflip) | self._set1

    def apply_many(self, words: np.ndarray) -> np.ndarray:
        """apply_int on a uint64 array of words; raises GuardExceeded past
        n = 64."""
        core.check_word_bits(self.n)
        return ((words ^ np.uint64(self._flip)) & np.uint64(self._keepflip)) | np.uint64(self._set1)

    def is_identity(self) -> bool:
        return all(a == KEEP for a in self.actions)

    def __eq__(self, other):
        return isinstance(other, BitTamperFn) and self.actions == other.actions

    def __hash__(self):
        return hash(self.actions)

    def __repr__(self):
        return f"BitTamperFn('{self.to_str()}')"


def enumerate_bit_tampers(n: int) -> Iterator[BitTamperFn]:
    """All 4^n per-bit adversaries in base-4 counting order; raises
    GuardExceeded when there are more than core.TABLE_CELLS."""
    total = 4**n
    if total > core.TABLE_CELLS:
        raise GuardExceeded(f"4^{n} = {total} adversaries exceed guard {core.TABLE_CELLS}")
    for code in range(total):
        c = code
        actions = []
        for _ in range(n):
            actions.append(c & 3)
            c >>= 2
        yield BitTamperFn(actions)


def random_tamper(
    n: int,
    profile: Tuple[float, float, float],
    rng: random.Random,
) -> BitTamperFn:
    """I.i.d. per-bit actions; profile = (p_keep, p_flip, p_set).

    Frozen bits choose their value uniformly, so a (0, 0, 1) profile yields
    a constant function at a profile-dependent random word.
    """
    p_keep, p_flip, p_set = profile
    if abs(p_keep + p_flip + p_set - 1.0) > 1e-9:
        raise ValueError("profile probabilities must sum to 1")
    actions = []
    for _ in range(n):
        u = rng.random()
        if u < p_keep:
            actions.append(KEEP)
        elif u < p_keep + p_flip:
            actions.append(FLIP)
        else:
            actions.append(SET1 if rng.random() < 0.5 else SET0)
    return BitTamperFn(actions)


class SplitStateTamperFn:
    """Two arbitrary lookup tables, one per half of the word, held as
    uint64 arrays `f1` (low half) and `f2` (high half) of at most
    core.TABLE_CELLS entries each."""

    __slots__ = ("n", "half", "f1", "f2")

    def __init__(self, f1: Sequence[int], f2: Sequence[int]):
        if len(f1) != len(f2):
            raise ValueError("halves must have equal table sizes")
        size = len(f1)
        half = size.bit_length() - 1
        if size != 1 << half:
            raise ValueError("table size must be a power of two")
        if size > core.TABLE_CELLS:
            raise GuardExceeded(f"2^{half}-entry half tables exceed guard {core.TABLE_CELLS}")
        tables = np.array([f1, f2], dtype=np.int64)
        if ((tables < 0) | (tables >= size)).any():
            raise ValueError("table entry out of range")
        self.n = 2 * half
        self.half = half
        self.f1, self.f2 = tables.astype(np.uint64)

    def apply_int(self, x: int) -> int:
        mask = (1 << self.half) - 1
        lo = int(self.f1[x & mask])
        hi = int(self.f2[(x >> self.half) & mask])
        return lo | (hi << self.half)

    def apply_many(self, words: np.ndarray) -> np.ndarray:
        """apply_int on a uint64 array of words. Each half is masked, read
        as np.intp (a view, as masked values fit) and gathered with `take`,
        two to three times as fast as a uint64-indexed gather; temporaries
        are reused in place, since at batch sizes each new one is a fresh
        allocation."""
        mask = np.uint64((1 << self.half) - 1)
        shift = np.uint64(self.half)
        out = self.f1.take((words & mask).view(np.intp))
        hi = words >> shift
        hi &= mask
        hi = self.f2.take(hi.view(np.intp))
        hi <<= shift
        out |= hi
        return out

    def __repr__(self):
        return f"SplitStateTamperFn(half={self.half})"


# ---------------------------------------------------------------------------
# Canonical adversary families for the concatenated scheme
# ---------------------------------------------------------------------------


def canonical_adversaries(code, rng: random.Random):
    """Named adversaries that sit on the analysis case boundaries of a
    concatenated code's plan.

    `code` is a ConcatCode: the layout and the case1 threshold come from
    `code.plan`, the frozen seed segment from its seed code, and the
    constant adversary from its fixed full codeword.
    """
    plan = code.plan
    n1 = plan.seed_bits
    n = plan.payload_bits
    total = n1 + n
    out = []

    # Freeze the payload at (or past) the many-frozen-bits boundary.
    boundary = plan.case1_freeze_bits
    frozen_value = rng.getrandbits(n) if n else 0
    acts = [KEEP] * total
    frozen_positions = rng.sample(range(n), boundary)
    for j in frozen_positions:
        acts[n1 + j] = SET1 if (frozen_value >> j) & 1 else SET0
    out.append(("case1-freeze-boundary", BitTamperFn(acts)))

    # Identity on the seed segment, payload intact: the keep-heavy side.
    out.append(("case2-keep-all", BitTamperFn.identity(total)))

    # Identity on the seed segment plus payload flips, below and above the
    # few-errors threshold when it is wide enough to separate them.
    for label, flips in (("case2-flip-one", 1), ("case2-flip-several", max(2, n // 4))):
        acts = [KEEP] * total
        for j in rng.sample(range(n), min(flips, n)):
            acts[n1 + j] = FLIP
        out.append((label, BitTamperFn(acts)))

    # Freeze the seed segment to a fixed valid seed codeword, payload arbitrary.
    freeze_seed = BitTamperFn.constant(code.seed_code.codebook[0][0], n1).actions
    out.append(("case3-freeze-seed-keep-payload", BitTamperFn(freeze_seed + (KEEP,) * n)))
    mixed = tuple(FLIP if rng.random() < 0.5 else KEEP for _ in range(n))
    out.append(("case3-freeze-seed-mixed-payload", BitTamperFn(freeze_seed + mixed)))

    out.append(("single-bit-flip", BitTamperFn([FLIP] + [KEEP] * (total - 1))))
    out.append(("complement", BitTamperFn.complement(total)))

    cw = code.fixed_full_codeword()
    out.append(("constant-valid-codeword", BitTamperFn.constant(cw, total)))
    return out


def case1_family(code, count: int, rng: random.Random):
    """`count` adversaries freezing at least case1_freeze_bits of the
    payload of a ConcatCode's plan.

    Frozen patterns and seed-segment actions vary so the family exercises
    distinct outcome distributions; all land in the many-frozen-bits case.
    """
    plan = code.plan
    n1 = plan.seed_bits
    n = plan.payload_bits
    boundary = plan.case1_freeze_bits
    out = []
    for i in range(count):
        nfrozen = rng.randrange(boundary, n + 1)
        frozen_value = rng.getrandbits(n) if n else 0
        acts = [KEEP] * (n1 + n)
        for j in rng.sample(range(n), nfrozen):
            acts[n1 + j] = SET1 if (frozen_value >> j) & 1 else SET0
        # Vary the seed-segment action across the family.
        mode = i % 4
        if mode == 1:
            for j in range(n1):
                acts[j] = FLIP
        elif mode == 2:
            seedv = rng.getrandbits(n1)
            for j in range(n1):
                acts[j] = SET1 if (seedv >> j) & 1 else SET0
        elif mode == 3:
            acts[rng.randrange(n1)] = FLIP
        out.append((f"case1-{i}", BitTamperFn(acts)))
    return out
