"""Per-message Fraction-dict oracles for the bit-tampering verdicts.

These are the definitions that `schemes._counts` and the verdicts reading
its rows compute on integer cells: one `FiniteDist` per message, built
from `np.bincount` counts of the batch kernels (exact counts kept per
encoding count and combined over the lcm of the counts; sampled runs from
one numpy generator per distribution, seeded with 128 bits of the caller's
stream), each message's distance taken as `statistical_distance` to
`push_copy` of the reference, and the minimax LP groups read back from the
per-message distributions cell by cell and solved by `two_row_minimax`.
"""

import math
from fractions import Fraction

import numpy as np
from minimax_oracle import two_row_minimax

from nmcode import schemes
from nmcode.core import BOTTOM, SAME, BitWord, FiniteDist, confidence_radius, push_copy, statistical_distance


def _symbol(cell, k):
    return BOTTOM if cell == 0 else SAME if cell > 1 << k else BitWord(cell - 1, k)


def sampled_dist(scheme, f, samples, rng, message):
    """`samples` runs of decode(f(encode(s))); with message=None s is drawn
    uniformly per run and a decode to it counts as SAME. Each piece of runs
    draws its messages (message=None only), then one encoding index per run."""
    if rng is None:
        raise ValueError("sampled mode needs an rng")
    schemes.check_word_bits(scheme)
    k = scheme.message_bits
    nmsg = 1 << k
    gen = np.random.default_rng(rng.getrandbits(128))
    counts = np.zeros(nmsg + 2, dtype=np.int64)
    for done in range(0, samples, schemes.BATCH_ROWS):
        rows = min(schemes.BATCH_ROWS, samples - done)
        if message is None:
            msgs = gen.integers(0, nmsg, size=rows)
        else:
            msgs = np.full(rows, message, dtype=np.int64)
        index = gen.integers(0, scheme.encoding_count(msgs), size=rows)
        cells = scheme.decode_many(f.apply_many(scheme.encode_many(msgs, index))) + 1
        if message is None:
            cells[cells == msgs + 1] = nmsg + 1
        counts += np.bincount(cells, minlength=nmsg + 2)
    return FiniteDist.from_counts({_symbol(int(i), k): int(counts[i]) for i in np.flatnonzero(counts)})


def exact_dist(scheme, f, message):
    """Exact distribution over every encoder choice; with message=None every
    message at weight 1/2^k and a decode to it counted as SAME."""
    schemes.check_word_bits(scheme)
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
    return sampled_dist(scheme, f, samples, rng, None)


def tampered_output_dist(scheme, f, s, samples=None, rng=None):
    if samples is None:
        return exact_dist(scheme, f, s)
    return sampled_dist(scheme, f, samples, rng, s)


def nm_error(scheme, f, ref, messages=None, samples=None, rng=None):
    """(value, radius, per_message) of the push_copy + statistical_distance
    loop, over each distinct message once, in first-seen order."""
    k = scheme.message_bits
    messages = dict.fromkeys(range(1 << k) if messages is None else messages)
    per = {}
    for s in messages:
        dist = tampered_output_dist(scheme, f, s, samples=samples, rng=rng)
        per[s] = statistical_distance(dist, push_copy(ref, BitWord(s, k)))
    radius = 0.0 if samples is None else confidence_radius(samples)
    return max(per.values()), radius, per


def optimal_nm_error(scheme, f, messages=None):
    """The minimax LP with its groups read cell by cell off per-message dists."""
    k = scheme.message_bits
    nmsg = 1 << k
    if messages is None:
        messages = range(nmsg)
    groups = []
    for s in messages:
        dist = exact_dist(scheme, f, s)
        cells = [(o, 1, dist.prob(BitWord(o, k)), o == s) for o in range(nmsg)]
        cells.append((nmsg, 1, dist.prob(BOTTOM), False))
        groups.append(cells)
    value, x = two_row_minimax(groups, nmsg + 1)
    symbols = [BitWord(o, k) for o in range(nmsg)] + [BOTTOM, SAME]
    return value, FiniteDist({sym: p for sym, p in zip(symbols, x) if p > 0})
