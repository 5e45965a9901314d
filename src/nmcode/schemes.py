"""Scheme-generic tamper experiments.

Any coding scheme exposing the small interface below, the members that
the count kernel `_counts` reads, can be run through these experiments.
Messages and words are ints, one numpy array entry per word; no base
class is involved:

    message_bits, block_bits : int
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

The schemes also offer the per-word `encode_int(s, rng)` and
`decode_int(w)` (None for decoder failure) on Python ints. Nothing here
calls them: they serve one-word calls, such as the CLI's encode and
decode, and the tests' oracles.

Encoding i of message s, for i in [0, encoding_count(s)), is entry i of
`encodings_many(s)`, and `encode_many` returns encoding `index` of each
message, so sampled and exact mode share one order of the encoder
choices and a uniform index gives the encoder's distribution.
`iter_encodings_int(s)` yields the words of `encodings_many(s)` one Python
int at a time; the tests use it as the reference for `encodings_many`.
A message becomes a `BitWord` only as an outcome symbol of a `FiniteDist`.

Every verdict reads the int64 rows of one count kernel, `_counts`, in its
own cell layout. Per message s, decode(f(encode(s))) runs on numpy arrays
(uint64 words, int64 messages) and `np.bincount` counts the outcomes into
a row of 2^k + 2 cells: 0 decoder failure, 1 + m message m, 2^k + 1 SAME.
An exact row counts every encoding of s; a sampled row counts `samples`
runs, and all sampling randomness is drawn in `_counts`. One call holds
at most TABLE_CELLS // (2^k + 2) rows, so a verdict over many messages
(the exact reference, `nm_error`, and `roundtrip_failures`, the runs that
decode to anything but their own message) makes one call per block of
that many: one call in all up to k = 9. A sampled pass under a
`BitTamperFn`, except a round trip's, runs through `scheme.fold(f)` when
the scheme has that member: `ConcatCode` folds the adversary into
per-block tables, so a run never forms its codeword. Every other pass
runs encode_many (an exact row: encodings_many), f.apply_many and
decode_many.

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
from .core import BOTTOM, SAME, BitWord, FiniteDist, GuardExceeded, Symbol, confidence_radius
from .tamper import BitTamperFn
from . import lp

#: Most runs or encodings decoded in one pass. This bounds the working set
#: and leaves the streams alone. At 2^13 runs an int64 temporary of a pass
#: is 64 KiB, half of glibc's default 128 KiB mmap threshold. At that size
#: or above, each temporary gets its own mapping, and every pass faults the
#: freed pages back in.
PASS_ROWS = 1 << 13

# Freeing one 2 MiB array raises glibc's mmap and heap-trim thresholds to
# 2 and 4 MiB, so the heap top is no longer trimmed between passes and
# faulted back in, which otherwise hinged on incidental heap layout (47k or
# 57k minor faults per attack-fuzz benchmark run, by checkout path alone).
np.empty(1 << 18)


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
    fold: bool = True,
) -> np.ndarray:
    """One int64 count row of decode(f(encode(s))) per entry s of `messages`.

    Exact mode (samples=None) counts every encoding of s, so the row sums
    to encoding_count(s). Sampled mode counts `samples` runs per row; an
    entry None draws a uniform message per run and counts a decode to it as
    SAME, the only rows with SAME counts. The rows lie end to end in entry
    order, and two generators, seeded with 128 bits each of `rng`, are read
    in run order: the first draws the messages of the None rows' runs, the
    second one index in [0, encoding_count) per run, with a scalar bound
    when the code's counts are uniform and a per-message array otherwise.
    Passes of at most PASS_ROWS runs or encodings bound the working set and
    do not move a draw. A sampled pass runs by one call (the scheme's
    `fold(f)` when `fold` is set, it has one and f is a BitTamperFn, else
    encode_many, f.apply_many and decode_many) and is counted by one
    `bincount` over row * (2^k + 2) + cell. Entries are checked and the
    fold is built before any draw: a bad entry raises ValueError, and more
    than `_block_rows` entries or a fold over its guard GuardExceeded,
    leaving `rng` as it was.
    """
    nmsg = 1 << scheme.message_bits
    width = nmsg + 2
    if samples is not None and rng is None:
        raise ValueError("sampled mode needs an rng")
    _check_messages(scheme, messages, samples is not None)
    core.check_word_bits(scheme.block_bits)
    if len(messages) > _block_rows(scheme):
        raise GuardExceeded(f"{len(messages)} rows of {width} count cells exceed guard {core.TABLE_CELLS}")
    rows = np.zeros((len(messages), width), dtype=np.int64)
    if samples is None:
        sizes = [scheme.encoding_count(s) for s in messages]
        if sizes and max(sizes) > core.TABLE_CELLS:
            raise GuardExceeded(f"{max(sizes)} encodings of one message exceed guard {core.TABLE_CELLS}")
        for row, s, size in zip(rows, messages, sizes):
            words = scheme.encodings_many(s)
            for lo in range(0, size, PASS_ROWS):
                cells = scheme.decode_many(f.apply_many(words[lo : lo + PASS_ROWS])) + 1
                row += np.bincount(cells, minlength=width)
        return rows
    if fold and hasattr(scheme, "fold") and isinstance(f, BitTamperFn):
        run = scheme.fold(f)
    else:
        def run(msgs: np.ndarray, index: np.ndarray) -> np.ndarray:
            return scheme.decode_many(f.apply_many(scheme.encode_many(msgs, index)))
    fixed = np.array([-1 if s is None else s for s in messages], dtype=np.int64)
    draw_msgs, draw_index = (np.random.default_rng(rng.getrandbits(128)) for _ in range(2))
    total = len(messages) * samples
    for lo in range(0, total, PASS_ROWS):
        row = np.arange(lo, min(lo + PASS_ROWS, total)) // samples
        msgs = fixed[row]
        free = msgs < 0
        msgs[free] = draw_msgs.integers(0, nmsg, size=np.count_nonzero(free))
        cells = run(msgs, draw_index.integers(0, scheme.encoding_count(msgs), size=len(msgs)))
        cells[free & (cells == msgs)] = nmsg  # the SAME cell, once shifted by 1
        first, span = row[0], row[-1] + 1 - row[0]
        cells += (row - first) * width + 1
        rows[first : first + span] += np.bincount(cells, minlength=span * width).reshape(span, width)
    return rows


def _block_rows(scheme) -> int:
    """Most rows of one `_counts` call: about core.TABLE_CELLS count cells."""
    return max(1, core.TABLE_CELLS // ((1 << scheme.message_bits) + 2))


def _blocks(scheme, f, messages, samples=None, rng=None, fold=True):
    """Yield each block of `_block_rows` entries of `messages` with its
    rows from one `_counts` call."""
    step = _block_rows(scheme)
    for lo in range(0, len(messages), step):
        block = messages[lo : lo + step]
        yield block, _counts(scheme, f, block, samples, rng, fold)


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
    (samples=None) counts every message, in the blocks of `_blocks`, moves
    each row's own-message cell to SAME and weighs the row by
    1/(2^k * encoding_count(s)): rows are summed per row sum, then
    combined over the lcm of the sums in Python ints. The interface lets
    encoding_count differ between messages, and the lcm of unequal counts
    can pass 2^63.
    """
    k = scheme.message_bits
    if samples is not None:
        return _dist(_counts(scheme, f, [None], samples, rng)[0], k)
    by_sum: Dict[int, np.ndarray] = {}  # row sum -> summed rows
    for block, rows in _blocks(scheme, f, range(1 << k)):
        row, own = np.arange(len(block)), np.asarray(block) + 1
        rows[row, -1], rows[row, own] = rows[row, own], 0
        sums = rows.sum(axis=1)
        for size in np.unique(sums).tolist():
            by_sum[size] = by_sum.get(size, 0) + rows[sums == size].sum(axis=0)
    lcm = math.lcm(*by_sum)
    cells = sum(row.astype(object) * (lcm // size) for size, row in by_sum.items())
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
    repeated message counts once, in first-seen order. The rows are then
    counted by one `_counts` call, and one fold, per block of `_blocks`.
    Each call seeds its own two generators, so a row's draws depend on the
    rows before it in its block. In sampled mode ref may be None: the
    standard sampler's reference row is then counted first in the first
    block, so it equals `reference_dist` on the same seed. The report
    carries the reference.

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
    for block, rows in _blocks(scheme, f, [None] * (ref is None) + messages, samples, rng):
        if ref is None:
            ref, block, rows = _dist(rows[0], k), block[1:], rows[1:]
        if not per:
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

    Solves the minimax as a rational LP over the count cells of one exact
    `_counts` call (decoder failure and every message) extended with SAME,
    one `lp.message_minimax` group per message, whose own cell is s + 1.
    Meant for toy scales: more messages than one call holds raise
    GuardExceeded.
    """
    k = scheme.message_bits
    messages = list(range(1 << k) if messages is None else messages)
    if not messages:
        raise ValueError("optimal_nm_error needs at least one message")
    rows = _counts(scheme, f, messages)
    own = [s + 1 for s in messages]
    value, x = lp.message_minimax(rows[:, :-1].tolist(), own)
    return value, FiniteDist({_symbol(cell, k): p for cell, p in enumerate(x) if p > 0})


def roundtrip_failures(scheme, samples: Optional[int] = None, rng: Optional[random.Random] = None) -> int:
    """Runs that decode to anything but their message s, over every s:
    `samples` runs of encode_many each, or every entry of encodings_many(s)
    in exact mode (samples=None). Never through a fold, so a round trip
    tests the encoder and decoder themselves."""
    identity = BitTamperFn.identity(scheme.block_bits)
    blocks = _blocks(scheme, identity, range(1 << scheme.message_bits), samples, rng, fold=False)
    # Row i of the block from message m counts its own message in cell m + i + 1.
    return sum(int(rows.sum() - np.trace(rows, offset=block.start + 1)) for block, rows in blocks)


def roundtrip_exhaustive(scheme) -> bool:
    """decode(encode(s)) == s over every message and every encoder choice."""
    return roundtrip_failures(scheme) == 0
