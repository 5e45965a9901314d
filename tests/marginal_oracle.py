"""Per-index-set oracle for `core.worst_marginal`.

One `np.bincount` and one `uniform_distance` per group and index set, in
group, then size, then `combinations`, order, keeping the first strict
maximum: the definition that `worst_marginal` computes with one
`bincount` per chunk of sets.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

from nmcode.core import uniform_distance


def oracle_worst_marginal(words, n, ell):
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(int(w).to_bytes(width, "little") for w in words), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(words), width), axis=1, bitorder="little")[:, :n]
    bits = bits.astype(np.int64)  # bits[w, i] is bit i of word w
    worst = Fraction(0)
    witness = None
    for size in range(1, ell + 1):
        place = 1 << np.arange(size, dtype=np.int64)  # bit j of a key is bit idxs[j]
        for idxs in combinations(range(n), size):
            counts = np.bincount(bits[:, list(idxs)] @ place, minlength=1 << size)
            dist = uniform_distance(counts, len(words), 1 << size)
            if dist > worst:
                worst = dist
                witness = idxs
    return worst, witness


def oracle_worst_group_marginal(groups, n, ell):
    """(distance, group, index set) of the first strict maximum over the
    groups of `oracle_worst_marginal`; (0, None, None) when all are 0."""
    worst = (Fraction(0), None, None)
    for g, words in enumerate(groups):
        dist, idxs = oracle_worst_marginal(words, n, ell)
        if dist > worst[0]:
            worst = (dist, g, idxs)
    return worst
