"""Scheme-generic tamper experiments.

Any coding scheme exposing the small interface below can be run through
these experiments:

    message_bits, block_bits : int
    encode_int(s, rng) -> int
    decode_int(w) -> int | None        (None encodes decoder failure)
    encode_many(msgs, gen) -> words    (sampled mode)
    decode_many(words) -> msgs         (-1 encodes decoder failure)
    encoding_count(s) -> int           (exact mode: size of the support)
    encodings_many(s) -> words         (exact mode: every encoding of s)

`iter_encodings_int(s)` yields the words of `encodings_many(s)` one Python
int at a time; the tests use it as the reference for `encodings_many`.

The reference distribution for an adversary is built by the standard
sampler: draw a uniform message, tamper its encoding, and emit SAME when
the decoder returns the original message, else the decoded value. The
scheme's tampering error for the adversary is the worst statistical
distance, over messages, between the tampered-decode distribution and the
reference with SAME resolved to the message at hand.

Both modes run encode -> tamper -> decode on whole numpy arrays: words are
uint64 (so at most 64 bits wide), messages int64, and outcomes are counted
with `np.bincount` into exact integer counts; `Fraction`s are built once,
from the counts. Exact mode enumerates every encoding of every message
through `encodings_many` and weighs each message by 1/2^k. Sampled mode
draws its runs with one numpy generator per distribution, seeded with 128
bits of the caller's stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Optional, Protocol, Tuple

import numpy as np

from .core import (
    BOTTOM,
    SAME,
    BitWord,
    FiniteDist,
    GuardExceeded,
    Symbol,
    confidence_radius,
    push_copy,
    statistical_distance,
)
from .tamper import BitTamperFn
from . import lp

#: Widest word the batch kernels hold (one uint64 per word).
MAX_WORD_BITS = 64
#: Most samples encoded, tampered and decoded in one pass of the batch kernel.
BATCH_ROWS = 1 << 16
#: Most encodings of one message that exact mode enumerates.
MAX_EXACT_ENCODINGS = 1 << 20


class CodingScheme(Protocol):
    message_bits: int
    block_bits: int

    def encode_int(self, s: int, rng: random.Random) -> int: ...

    def decode_int(self, w: int) -> Optional[int]: ...

    def encode_many(self, msgs: np.ndarray, gen: np.random.Generator) -> np.ndarray: ...

    def decode_many(self, words: np.ndarray) -> np.ndarray: ...

    def encoding_count(self, s: int) -> int: ...

    def encodings_many(self, s: int) -> np.ndarray: ...


class BitWordCodec:
    """BitWord-level encode/decode on top of the int-level interface.

    Subclasses provide message_bits, block_bits, encode_int and decode_int,
    and the batch pair encode_many (int64 messages to uint64 words) and
    decode_many (uint64 words to int64 messages, -1 on failure); a word of
    the wrong length raises ValueError, and decoder failure decodes to
    BOTTOM.
    """

    def encode(self, s: BitWord, rng: random.Random) -> BitWord:
        if len(s) != self.message_bits:
            raise ValueError("message length mismatch")
        return BitWord(self.encode_int(s.value, rng), self.block_bits)

    def decode(self, w: BitWord) -> Symbol:
        if len(w) != self.block_bits:
            raise ValueError("block length mismatch")
        d = self.decode_int(w.value)
        return BOTTOM if d is None else BitWord(d, self.message_bits)


def check_word_bits(scheme) -> None:
    """Raise GuardExceeded when the scheme's words do not fit one uint64."""
    if scheme.block_bits > MAX_WORD_BITS:
        raise GuardExceeded(
            f"{scheme.block_bits}-bit words exceed the {MAX_WORD_BITS}-bit batch kernels"
        )


def _symbol(cell: int, k: int) -> Symbol:
    """Outcome of a count cell: 0 failure, 1 + m message m, 2^k + 1 SAME."""
    return BOTTOM if cell == 0 else SAME if cell > 1 << k else BitWord(cell - 1, k)


def _sampled_dist(
    scheme, f, samples: int, rng: Optional[random.Random], message: Optional[int]
) -> FiniteDist:
    """`samples` runs of decode(f(encode(s))) through the batch kernels.

    With message=None, s is drawn uniformly per run and a decode to the
    drawn message counts as SAME; otherwise s is fixed and nothing is
    marked.
    """
    if rng is None:
        raise ValueError("sampled mode needs an rng")
    check_word_bits(scheme)
    k = scheme.message_bits
    nmsg = 1 << k
    gen = np.random.default_rng(rng.getrandbits(128))
    counts = np.zeros(nmsg + 2, dtype=np.int64)
    for done in range(0, samples, BATCH_ROWS):
        rows = min(BATCH_ROWS, samples - done)
        if message is None:
            msgs = gen.integers(0, nmsg, size=rows)
        else:
            msgs = np.full(rows, message, dtype=np.int64)
        cells = scheme.decode_many(f.apply_many(scheme.encode_many(msgs, gen))) + 1
        if message is None:
            cells[cells == msgs + 1] = nmsg + 1
        counts += np.bincount(cells, minlength=nmsg + 2)
    return FiniteDist.from_counts(
        {_symbol(int(i), k): int(counts[i]) for i in np.flatnonzero(counts)}
    )


def _exact_dist(scheme, f, message: Optional[int]) -> FiniteDist:
    """Exact distribution of decode(f(encode(s))) over every encoder choice.

    With message=None, s runs over every message at weight 1/2^k and a
    decode to s counts as SAME; otherwise s is fixed and nothing is marked.
    Each encoding of s carries weight 1/encoding_count(s). Outcomes are
    counted per encoding count and the counts are combined over the lcm of
    the encoding counts, so the probabilities are exact.
    """
    check_word_bits(scheme)
    k = scheme.message_bits
    nmsg = 1 << k
    messages = range(nmsg) if message is None else (message,)
    sizes = [scheme.encoding_count(s) for s in messages]
    if max(sizes) > MAX_EXACT_ENCODINGS:
        raise GuardExceeded(
            f"{max(sizes)} encodings of one message exceed guard {MAX_EXACT_ENCODINGS}"
        )
    counts: Dict[int, np.ndarray] = {}  # encoding count -> outcome counts
    for s, size in zip(messages, sizes):
        words = scheme.encodings_many(s)
        acc = counts.setdefault(size, np.zeros(nmsg + 2, dtype=np.int64))
        for lo in range(0, size, BATCH_ROWS):
            cells = scheme.decode_many(f.apply_many(words[lo : lo + BATCH_ROWS])) + 1
            if message is None:
                cells[cells == s + 1] = nmsg + 1
            acc += np.bincount(cells, minlength=nmsg + 2)
    lcm = math.lcm(*counts)
    denom = lcm * len(messages)
    return FiniteDist(
        {
            _symbol(int(i), k): Fraction(
                sum(int(acc[i]) * (lcm // size) for size, acc in counts.items()), denom
            )
            for i in np.flatnonzero(sum(counts.values()))
        }
    )


def reference_dist(
    scheme,
    f,
    samples: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> FiniteDist:
    """Message-independent outcome distribution for adversary f.

    Exact mode (samples=None) enumerates every message and every encoder
    choice; sampled mode draws `samples` runs of the experiment.
    """
    if samples is None:
        return _exact_dist(scheme, f, message=None)
    return _sampled_dist(scheme, f, samples, rng, message=None)


def tampered_output_dist(
    scheme,
    f,
    s: int,
    samples: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> FiniteDist:
    """Distribution of decode(f(encode(s))); no SAME marking."""
    if samples is None:
        return _exact_dist(scheme, f, message=s)
    return _sampled_dist(scheme, f, samples, rng, message=s)


@dataclass
class NmErrorReport:
    value: Fraction
    radius: float
    per_message: Dict[int, Fraction] = field(repr=False, default_factory=dict)
    samples: Optional[int] = None

    @property
    def worst_message(self) -> int:
        return max(self.per_message, key=self.per_message.get)


def nm_error(
    scheme,
    f,
    ref: FiniteDist,
    messages: Optional[Iterable[int]] = None,
    samples: Optional[int] = None,
    rng: Optional[random.Random] = None,
    eta: float = 1e-6,
) -> NmErrorReport:
    """Worst-case distance between tampered decoding and the resolved reference.

    The returned radius separates sampling noise from the reported value:
    0.0 in exact mode, the two-sided Hoeffding radius at confidence 1-eta
    otherwise.
    """
    k = scheme.message_bits
    if messages is None:
        messages = range(1 << k)
    per: Dict[int, Fraction] = {}
    for s in messages:
        dist = tampered_output_dist(scheme, f, s, samples=samples, rng=rng)
        target = push_copy(ref, BitWord(s, k))
        per[s] = statistical_distance(dist, target)
    radius = 0.0 if samples is None else confidence_radius(samples, eta)
    return NmErrorReport(value=max(per.values()), radius=radius, per_message=per, samples=samples)


def optimal_nm_error(
    scheme,
    f,
    messages: Optional[Iterable[int]] = None,
) -> Tuple[Fraction, FiniteDist]:
    """Exact minimum, over reference distributions, of the worst-case distance.

    Solves the minimax as a rational LP over the outcome alphabet
    (all messages plus decoder failure) extended with SAME. Exact-mode
    enumeration of the scheme is required; meant for toy scales.
    """
    k = scheme.message_bits
    if messages is None:
        messages = range(1 << k)
    nmsg = 1 << k
    # Outcome index o < nmsg is message o; index nmsg is decoder failure.
    groups = []
    for s in messages:
        dist = tampered_output_dist(scheme, f, s)
        cells = [(o, 1, dist.prob(BitWord(o, k)), o == s) for o in range(nmsg)]
        cells.append((nmsg, 1, dist.prob(BOTTOM), False))
        groups.append(cells)
    value, x = lp.same_minimax(groups, nmsg + 1)
    symbols = [BitWord(o, k) for o in range(nmsg)] + [BOTTOM, SAME]
    return value, FiniteDist({sym: p for sym, p in zip(symbols, x) if p > 0})


def roundtrip_exhaustive(scheme) -> bool:
    """decode(encode(s)) == s over every message and every encoder choice:
    the exact reference of the identity adversary is SAME with certainty."""
    identity = BitTamperFn.identity(scheme.block_bits)
    return _exact_dist(scheme, identity, message=None) == FiniteDist.point_mass(SAME)
