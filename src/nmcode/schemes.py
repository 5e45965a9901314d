"""Scheme-generic tamper experiments.

Any coding scheme exposing the small interface below can be run through
these experiments. Messages and words are ints, one Python int per word
or one numpy array entry per word; no base class is involved:

    message_bits, block_bits : int
    encode_int(s, rng) -> int
    decode_int(w) -> int | None        (None encodes decoder failure)
    encoding_count(s) -> int           (encoder choices of s; for an int64
                                        array of messages, one int shared
                                        by all or one int64 count each)
    encode_many(msgs, index) -> words  (int64 messages and encoding
                                        indices to uint64 words; draws
                                        nothing)
    decode_many(words) -> msgs         (uint64 words to int64 messages,
                                        -1 encodes decoder failure)
    encodings_many(s) -> words         (exact mode: every encoding of s)
    fold(f) -> run                     (optional: for a BitTamperFn f,
                                        run(msgs, index) returns
                                        decode_many(f.apply_many(
                                        encode_many(msgs, index))))

Encoding i of message s, for i in [0, encoding_count(s)), is entry i of
`encodings_many(s)`, and `encode_many` returns encoding `index` of each
message, so sampled and exact mode share one order of the encoder
choices and a uniform index gives the encoder's distribution.
`iter_encodings_int(s)` yields the words of `encodings_many(s)` one Python
int at a time; the tests use it as the reference for `encodings_many`.
A message becomes a `BitWord` only as an outcome symbol of a `FiniteDist`.

Every verdict reads the rows of one count kernel, `_counts`: per message s,
decode(f(encode(s))) runs on numpy arrays (uint64 words, int64 messages)
and `np.bincount` counts the outcomes into an int64 row of 2^k + 2 cells:
0 decoder failure, 1 + m message m, 2^k + 1 SAME. An exact row counts
every encoding of s; a sampled row counts `samples` runs drawn by its own
numpy generator, seeded with 128 bits of the caller's stream. All sampling
randomness is drawn there: per piece of a row, the messages (a row of
uniform messages only), then one uniform encoding index per run. Sampled
rows share passes: the pieces of every row run as one array of at most
BATCH_ROWS runs, so a row's runs do not depend on the rows it shares a
pass with, nor a fixed-message row's on where its pieces split. A sampled
pass under a `BitTamperFn` runs through `scheme.fold(f)`, built once per
`_counts` call, when the scheme has that member: `ConcatCode` folds the
adversary into per-block tables, so a run never forms its codeword
(see `ConcatCode.fold`). Every other pass, and every exact row, runs the
words through `decode_many(f.apply_many(...))`.

The reference distribution for an adversary is that of the standard
sampler: draw a uniform message, tamper its encoding, and emit SAME when
the decoder returns the original message, else the decoded value. The
scheme's tampering error for the adversary is the worst statistical
distance, over messages, between the tampered-decode distribution and the
reference with SAME resolved to the message at hand. Both are computed on
integer cells; `Fraction`s are built once, for the results.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from . import core
from .core import (
    BOTTOM,
    SAME,
    BitWord,
    FiniteDist,
    GuardExceeded,
    Symbol,
    confidence_radius,
)
from .tamper import BitTamperFn
from . import lp

#: Widest word the batch kernels hold (one uint64 per word).
MAX_WORD_BITS = 64
#: Most runs encoded, tampered and decoded in one pass of the batch kernel,
#: and the most runs of one sampled row drawn in one piece.
BATCH_ROWS = 1 << 14


def check_word_bits(scheme) -> None:
    """Raise GuardExceeded when the scheme's words do not fit one uint64."""
    if scheme.block_bits > MAX_WORD_BITS:
        raise GuardExceeded(
            f"{scheme.block_bits}-bit words exceed the {MAX_WORD_BITS}-bit batch kernels"
        )


def _symbol(cell: int, k: int) -> Symbol:
    """Outcome of a count cell: 0 failure, 1 + m message m, 2^k + 1 SAME."""
    return BOTTOM if cell == 0 else SAME if cell > 1 << k else BitWord(cell - 1, k)


def _cell(sym: Symbol, k: int) -> int:
    """Count cell of an outcome; the inverse of `_symbol`."""
    return 0 if sym is BOTTOM else (1 << k) + 1 if sym is SAME else sym.value + 1


def _check_messages(scheme, messages: Sequence[Optional[int]], sampled: bool) -> None:
    """Raise ValueError on the first entry that is neither a message of the
    scheme nor, in sampled mode, None."""
    nmsg = 1 << scheme.message_bits
    for s in messages:
        if s is None and sampled:
            continue
        if not isinstance(s, (int, np.integer)) or isinstance(s, bool) or not 0 <= s < nmsg:
            raise ValueError(f"message {s!r} is not in [0, {nmsg})")


def _counts(
    scheme,
    f,
    messages: Sequence[Optional[int]],
    samples: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> np.ndarray:
    """One int64 count row of decode(f(encode(s))) per entry s of `messages`.

    Exact mode (samples=None) counts every encoding of s, so the row sums
    to encoding_count(s). Sampled mode counts `samples` runs per row; an
    entry None draws a uniform message per run and counts a decode to it as
    SAME, the only rows with SAME counts. Each row draws from its own
    generator, seeded with 128 bits of `rng` in row order, in pieces of at
    most BATCH_ROWS runs: a piece of an entry None draws its messages, then
    every piece draws one index in [0, encoding_count) per run, with a
    scalar bound and `size` when the code's counts are uniform and a
    per-message array otherwise. Consecutive pieces share a pass of at most
    BATCH_ROWS runs, run by one call (the scheme's `fold(f)` when it has
    one and f is a BitTamperFn, else encode_many, f.apply_many and
    decode_many) and counted by one `bincount` over row * (2^k + 2) + cell.
    Only a row's last piece can fall short of BATCH_ROWS, so no two pieces
    of one row share a pass and each generator draws its pieces in order.
    Entries are checked and the fold is built before any draw: a bad entry
    raises ValueError, and a fold over its guard GuardExceeded, leaving
    `rng` as it was.
    """
    nmsg = 1 << scheme.message_bits
    width = nmsg + 2
    if samples is not None and rng is None:
        raise ValueError("sampled mode needs an rng")
    _check_messages(scheme, messages, samples is not None)
    check_word_bits(scheme)
    rows = np.zeros((len(messages), width), dtype=np.int64)
    if samples is None:
        sizes = [scheme.encoding_count(s) for s in messages]
        if sizes and max(sizes) > core.TABLE_CELLS:
            raise GuardExceeded(
                f"{max(sizes)} encodings of one message exceed guard {core.TABLE_CELLS}"
            )
        for row, s, size in zip(rows, messages, sizes):
            words = scheme.encodings_many(s)
            for lo in range(0, size, BATCH_ROWS):
                cells = scheme.decode_many(f.apply_many(words[lo : lo + BATCH_ROWS])) + 1
                row += np.bincount(cells, minlength=width)
        return rows
    if hasattr(scheme, "fold") and isinstance(f, BitTamperFn):
        run = scheme.fold(f)
    else:
        def run(msgs: np.ndarray, index: np.ndarray) -> np.ndarray:
            return scheme.decode_many(f.apply_many(scheme.encode_many(msgs, index)))
    gens = [np.random.default_rng(rng.getrandbits(128)) for _ in messages]
    passes, used = [], BATCH_ROWS  # each pass a list of (row, runs) pieces
    for r in range(len(messages)):
        for done in range(0, samples, BATCH_ROWS):
            size = min(BATCH_ROWS, samples - done)
            if used + size > BATCH_ROWS:
                passes.append([])
                used = 0
            passes[-1].append((r, size))
            used += size
    for pieces in passes:
        first, sizes = pieces[0][0], [size for _, size in pieces]
        msgs, index = [], []
        for r, size in pieces:
            gen, s = gens[r], messages[r]
            drawn = gen.integers(0, nmsg, size=size) if s is None else np.full(size, s, dtype=np.int64)
            msgs.append(drawn)
            index.append(gen.integers(0, scheme.encoding_count(drawn), size=size))
        msgs = np.concatenate(msgs)
        cells = run(msgs, np.concatenate(index)) + 1
        free = np.repeat([messages[r] is None for r, _ in pieces], sizes)
        cells[free & (cells == msgs + 1)] = nmsg + 1
        cells += np.repeat([(r - first) * width for r, _ in pieces], sizes)
        span = pieces[-1][0] + 1 - first
        rows[first : first + span] += np.bincount(cells, minlength=span * width).reshape(span, width)
    return rows


def _dist(row: Sequence[int], k: int, den: Optional[int] = None) -> FiniteDist:
    """The distribution of a count row: exact over `den`, or empirical over
    the row's sum when den is None."""
    counts = {_symbol(int(i), k): int(row[i]) for i in np.flatnonzero(row)}
    if den is None:
        return FiniteDist.from_counts(counts)
    return FiniteDist({sym: Fraction(c, den) for sym, c in counts.items()})


def reference_dist(
    scheme,
    f,
    samples: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> FiniteDist:
    """Message-independent outcome distribution for adversary f.

    Sampled mode draws `samples` runs of the experiment. Exact mode
    (samples=None) moves each message's own-message cell to SAME and
    weighs its row by 1/(2^k * encoding_count(s)): rows are summed per
    encoding count, then combined over the lcm of the counts in Python
    ints, as the lcm can pass 2^63 (the buckets of `ExtractorCode`).
    """
    k = scheme.message_bits
    if samples is not None:
        return _dist(_counts(scheme, f, [None], samples, rng)[0], k)
    buckets: Dict[int, np.ndarray] = {}  # encoding count -> summed rows
    for s in range(1 << k):
        row = _counts(scheme, f, [s])[0]
        row[-1], row[s + 1] = row[s + 1], 0
        size = scheme.encoding_count(s)
        buckets[size] = buckets.get(size, 0) + row
    lcm = math.lcm(*buckets)
    cells = sum(row.astype(object) * (lcm // size) for size, row in buckets.items())
    return _dist(cells, k, lcm << k)


def tampered_output_dist(
    scheme,
    f,
    s: int,
    samples: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> FiniteDist:
    """Distribution of decode(f(encode(s))); no SAME marking."""
    row = _counts(scheme, f, [s], samples, rng)[0]
    return _dist(row, scheme.message_bits, None if samples is not None else int(row.sum()))


@dataclass
class NmErrorReport:
    value: Fraction
    radius: float
    per_message: Dict[int, Fraction] = field(repr=False, default_factory=dict)
    samples: Optional[int] = None
    reference: Optional[FiniteDist] = field(repr=False, default=None)


def nm_error(
    scheme,
    f,
    ref: Optional[FiniteDist],
    messages: Optional[Iterable[int]] = None,
    samples: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> NmErrorReport:
    """Worst-case distance between tampered decoding and the resolved reference.

    With ref as integer cells b over their common denominator B and message
    s's count row a summing to A, the distance for s is
    sum |a*B - b'*A| / (2*A*B), b' being b with the SAME cell moved onto s.
    The returned radius separates sampling noise from the reported value:
    0.0 in exact mode, the two-sided Hoeffding radius at confidence
    1 - 10^-6 otherwise. Every message is checked before any draw; a
    repeated message counts once, in first-seen order. The rows are then counted by one
    `_counts` call per block of BATCH_ROWS >> k messages,
    so a block's sampled rows share passes and about BATCH_ROWS cells are
    held at a time. In sampled mode ref may be None: the standard
    sampler's reference row is then counted first in the first block's
    call, so it draws what `reference_dist` would draw before the rows and
    the scheme's fold is built once. The report carries the reference.

    The canonical reference, `reference_dist`'s, is one feasible simulator,
    so its value bounds `optimal_nm_error` from above, and the gap can be
    total: a constant adversary onto a codeword of message 0 can score 1/2
    against it where the optimal reference scores 0.
    """
    k = scheme.message_bits
    length = None if ref is None else ref.message_length()
    if length is not None and length != k:
        raise ValueError(f"message length mismatch: {length} vs {k}")
    messages = list(range(1 << k) if messages is None else messages)
    if not messages:
        raise ValueError("nm_error needs at least one message")
    _check_messages(scheme, messages, sampled=False)
    messages = list(dict.fromkeys(messages))
    if ref is None and samples is None:
        raise ValueError("exact nm_error needs a reference")
    per: Dict[int, Fraction] = {}
    step = max(1, BATCH_ROWS >> k)
    for lo in range(0, len(messages), step):
        block = messages[lo : lo + step]
        rows = _counts(scheme, f, [None] * (ref is None) + block, samples, rng)
        if ref is None:
            ref, rows = _dist(rows[0], k), rows[1:]
        if not lo:
            den = math.lcm(*(p.denominator for _, p in ref.items()))
            target = {_cell(sym, k): p.numerator * (den // p.denominator) for sym, p in ref.items()}
            same = target.pop((1 << k) + 1, 0)
            mass = sum(target.values()) + same
        for s, row in zip(block, rows):
            total = int(row.sum())
            acc = covered = 0  # a cell where a is 0 adds b' * A: (mass - covered) * A in all
            for i in np.flatnonzero(row).tolist():
                b = target.get(i, 0) + (same if i == s + 1 else 0)
                acc += abs(int(row[i]) * den - b * total)
                covered += b
            per[s] = Fraction(acc + (mass - covered) * total, 2 * total * den)
    radius = 0.0 if samples is None else confidence_radius(samples)
    return NmErrorReport(value=max(per.values()), radius=radius, per_message=per,
                         samples=samples, reference=ref)


def optimal_nm_error(
    scheme,
    f,
    messages: Optional[Iterable[int]] = None,
) -> Tuple[Fraction, FiniteDist]:
    """Exact minimum, over reference distributions, of the worst-case distance.

    Solves the minimax as a rational LP over the outcome alphabet
    (all messages plus decoder failure) extended with SAME, one
    `lp.message_minimax` group per message. Exact-mode enumeration of the
    scheme is required; meant for toy scales.
    """
    k = scheme.message_bits
    messages = list(range(1 << k) if messages is None else messages)
    rows = _counts(scheme, f, messages)
    # LP outcome o < 2^k is message o; outcome 2^k is decoder failure.
    outcomes = np.concatenate([rows[:, 1:-1], rows[:, :1]], axis=1)
    value, x = lp.message_minimax(outcomes.tolist(), rows.sum(axis=1).tolist(), messages)
    symbols = [BitWord(o, k) for o in range(1 << k)] + [BOTTOM, SAME]
    return value, FiniteDist({sym: p for sym, p in zip(symbols, x) if p > 0})


def roundtrip_exhaustive(scheme) -> bool:
    """decode(encode(s)) == s over every message and every encoder choice:
    under the identity adversary each row's own-message cell holds it all."""
    identity = BitTamperFn.identity(scheme.block_bits)
    return all(
        _counts(scheme, identity, [s])[0, s + 1] == scheme.encoding_count(s)
        for s in range(1 << scheme.message_bits)
    )
