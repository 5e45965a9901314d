"""Per-message Fraction-dict oracles for the bit-tampering verdicts.

These are the definitions that `schemes._counts` and the verdicts reading
its rows compute on integer cells: one `FiniteDist` per message, built
from `np.bincount` counts of the batch kernels (exact counts kept per
encoding count and combined over the lcm of the counts; sampled runs from
two numpy generators per call, seeded with 128 bits each of the caller's
stream and read a whole row at a time), each message's distance taken as
`statistical_distance` to `push_copy` of the reference, and the minimax
LP groups read back from the per-message distributions cell by cell and
solved by `two_row_minimax`.
"""

import math
from fractions import Fraction

import numpy as np
from minimax_oracle import check_groups, two_row_minimax

from nmcode import core
from nmcode.core import BOTTOM, SAME, BitWord, FiniteDist, confidence_radius, push_copy, statistical_distance


def _symbol(cell, k):
    return BOTTOM if cell == 0 else SAME if cell > 1 << k else BitWord(cell - 1, k)


def sampled_dists(scheme, f, samples, rng, entries):
    """One distribution of `samples` runs of decode(f(encode(s))) per entry
    s; an entry None draws s uniformly per run and counts a decode to it as
    SAME. Two generators per call: the first draws the messages of the None
    entries, the second one encoding index per run, a whole row at a time
    in entry order."""
    if rng is None:
        raise ValueError("sampled mode needs an rng")
    core.check_word_bits(scheme.block_bits)
    k = scheme.message_bits
    nmsg = 1 << k
    draw_msgs = np.random.default_rng(rng.getrandbits(128))
    draw_index = np.random.default_rng(rng.getrandbits(128))
    dists = []
    for message in entries:
        if message is None:
            msgs = draw_msgs.integers(0, nmsg, size=samples)
        else:
            msgs = np.full(samples, message, dtype=np.int64)
        index = draw_index.integers(0, scheme.encoding_count(msgs), size=samples)
        cells = scheme.decode_many(f.apply_many(scheme.encode_many(msgs, index))) + 1
        if message is None:
            cells[cells == msgs + 1] = nmsg + 1
        counts = np.bincount(cells, minlength=nmsg + 2)
        dists.append(FiniteDist.from_counts({_symbol(int(i), k): int(counts[i]) for i in np.flatnonzero(counts)}))
    return dists


def exact_dist(scheme, f, message):
    """Exact distribution over every encoder choice; with message=None every
    message at weight 1/2^k and a decode to it counted as SAME."""
    core.check_word_bits(scheme.block_bits)
    k = scheme.message_bits
    nmsg = 1 << k
    messages = range(nmsg) if message is None else (message,)
    counts = {}  # encoding count -> outcome counts
    for s in messages:
        words = scheme.encodings_many(s)
        acc = counts.setdefault(len(words), np.zeros(nmsg + 2, dtype=np.int64))
        cells = scheme.decode_many(f.apply_many(words)) + 1
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


def reference_dist(scheme, f, samples=None, rng=None):
    if samples is None:
        return exact_dist(scheme, f, None)
    return sampled_dists(scheme, f, samples, rng, [None])[0]


def tampered_output_dist(scheme, f, s, samples=None, rng=None):
    if samples is None:
        return exact_dist(scheme, f, s)
    return sampled_dists(scheme, f, samples, rng, [s])[0]


def nm_error(scheme, f, ref, messages=None, samples=None, rng=None):
    """(value, radius, per_message) of the push_copy + statistical_distance
    loop, over each distinct message once, in first-seen order; sampled
    rows come from one `sampled_dists` call."""
    k = scheme.message_bits
    messages = list(dict.fromkeys(range(1 << k) if messages is None else messages))
    if samples is None:
        dists = [exact_dist(scheme, f, s) for s in messages]
    else:
        dists = sampled_dists(scheme, f, samples, rng, messages)
    per = {s: statistical_distance(dist, push_copy(ref, BitWord(s, k))) for s, dist in zip(messages, dists)}
    radius = 0.0 if samples is None else confidence_radius(samples)
    return max(per.values()), radius, per


def optimal_nm_error(scheme, f, messages=None):
    """The minimax LP with its groups read cell by cell off per-message
    dists; raises ValueError past the oracle's MAX_GROUPS messages before
    computing any of them."""
    k = scheme.message_bits
    nmsg = 1 << k
    if messages is None:
        messages = range(nmsg)
    check_groups(len(messages))
    groups = []
    for s in messages:
        dist = exact_dist(scheme, f, s)
        cells = [(o, 1, dist.prob(BitWord(o, k)), o == s) for o in range(nmsg)]
        cells.append((nmsg, 1, dist.prob(BOTTOM), False))
        groups.append(cells)
    value, x = two_row_minimax(groups, nmsg + 1)
    symbols = [BitWord(o, k) for o in range(nmsg)] + [BOTTOM, SAME]
    return value, FiniteDist({sym: p for sym, p in zip(symbols, x) if p > 0})
