"""Shared vocabulary: message symbols, outcome symbols, finite distributions,
statistical distance, and reproducible seeded randomness.

Words are Python ints (bit i of the int is coordinate i, so index 0 is
the first coordinate); a `BitWord` pairs such an int with its width where
a message is an outcome symbol. Probabilities are kept as exact
`fractions.Fraction` values so that toy-scale checks can assert exact
equalities; empirical distributions store exact frequency counts.
All types here are immutable after construction and safe to share across
parallel workers.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import log, sqrt
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np


class NmcodeError(Exception):
    """Base class for toolkit errors."""


class GuardExceeded(NmcodeError):
    """An exhaustive sweep would exceed its configured size guard."""


class InfeasibleParams(NmcodeError):
    """Parameters cannot produce a valid object (with the violated bound)."""


# ---------------------------------------------------------------------------
# Bit words
# ---------------------------------------------------------------------------


class BitWord:
    """A message symbol: an n-bit value with a hex form.

    Coordinate i is bit i of ``value`` (LSB first). Codecs, adversaries and
    permutations act on plain ints; a BitWord names a message outcome in a
    `FiniteDist` and in reports.
    """

    __slots__ = ("_value", "_n")

    def __init__(self, value: int, n: int):
        if n < 0:
            raise ValueError("length must be nonnegative")
        if value < 0 or value >> n:
            raise ValueError(f"value {value} does not fit in {n} bits")
        self._value = value
        self._n = n

    @property
    def value(self) -> int:
        return self._value

    @property
    def n(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self._n

    def to_hex(self) -> str:
        ndigits = max(1, (self._n + 3) // 4)
        return f"{self._value:0{ndigits}x}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitWord)
            and self._n == other._n
            and self._value == other._value
        )

    def __hash__(self) -> int:
        return hash((self._value, self._n))

    def __repr__(self) -> str:
        return f"BitWord(0x{self.to_hex()}, {self._n})"


def hamming_ball_volume(n: int, radius: int) -> int:
    """Number of n-bit words within the given Hamming radius of a center."""
    from math import comb

    radius = min(radius, n)
    return sum(comb(n, i) for i in range(radius + 1)) if radius >= 0 else 0


# ---------------------------------------------------------------------------
# Outcome symbols
# ---------------------------------------------------------------------------


class _Marker:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __reduce__(self):
        return (_marker_by_name, (self._name,))


#: Decoder failure outcome.
BOTTOM = _Marker("BOTTOM")
#: Placeholder whose mass is reassigned to the true message by `push_copy`.
SAME = _Marker("SAME")

_MARKERS = {"BOTTOM": BOTTOM, "SAME": SAME}


def _marker_by_name(name: str) -> "_Marker":
    return _MARKERS[name]


Symbol = Union[BitWord, _Marker]


# ---------------------------------------------------------------------------
# Finite distributions
# ---------------------------------------------------------------------------

_PROB_SUM_TOL = Fraction(1, 10**12)


def _to_fraction(p) -> Fraction:
    if isinstance(p, Fraction):
        return p
    if isinstance(p, int):
        return Fraction(p)
    if isinstance(p, float):
        return Fraction(p)  # exact binary expansion
    raise TypeError(f"unsupported probability type {type(p)!r}")


class FiniteDist:
    """Probability distribution over message words, BOTTOM, and SAME.

    kind is "exact" or "empirical"; empirical distributions carry their
    sample count and hold exact frequency fractions count/samples.
    """

    __slots__ = ("_probs", "_kind", "_samples")

    def __init__(
        self,
        probs: Mapping[Symbol, Union[int, float, Fraction]],
        kind: str = "exact",
        samples: Optional[int] = None,
    ):
        if kind not in ("exact", "empirical"):
            raise ValueError(f"unknown kind {kind!r}")
        if kind == "empirical" and not samples:
            raise ValueError("empirical distribution requires a sample count")
        if kind == "exact" and samples is not None:
            raise ValueError("exact distribution takes no sample count")
        cleaned = {}
        msg_len = None
        for sym, p in probs.items():
            f = _to_fraction(p)
            if f < 0:
                raise ValueError(f"negative probability for {sym!r}")
            if f == 0:
                continue
            if isinstance(sym, BitWord):
                if msg_len is None:
                    msg_len = len(sym)
                elif msg_len != len(sym):
                    raise ValueError("message symbols must share one length")
            elif sym is not BOTTOM and sym is not SAME:
                raise ValueError(f"unsupported symbol {sym!r}")
            cleaned[sym] = f
        total = sum(cleaned.values(), Fraction(0))
        if abs(total - 1) > _PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {float(total)}, not 1")
        if kind == "empirical":
            for sym, f in cleaned.items():
                if (f * samples).denominator != 1:
                    raise ValueError("empirical probabilities must be counts/samples")
        self._probs = cleaned
        self._kind = kind
        self._samples = samples

    @classmethod
    def point_mass(cls, sym: Symbol) -> "FiniteDist":
        return cls({sym: Fraction(1)})

    @classmethod
    def from_counts(cls, counts: Mapping[Symbol, int]) -> "FiniteDist":
        """Empirical distribution of integer outcome counts; the sample
        count is their sum and zero counts are dropped."""
        n = sum(counts.values())
        if n <= 0:
            raise ValueError("no samples counted")
        return cls(
            {sym: Fraction(c, n) for sym, c in counts.items()},
            kind="empirical",
            samples=n,
        )

    @classmethod
    def from_samples(cls, samples: Sequence[Symbol]) -> "FiniteDist":
        counts: dict = {}
        for sym in samples:
            counts[sym] = counts.get(sym, 0) + 1
        return cls.from_counts(counts)

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def samples(self) -> Optional[int]:
        return self._samples

    def prob(self, sym: Symbol) -> Fraction:
        return self._probs.get(sym, Fraction(0))

    def support(self):
        return self._probs.keys()

    def items(self):
        return self._probs.items()

    def message_length(self) -> Optional[int]:
        for sym in self._probs:
            if isinstance(sym, BitWord):
                return len(sym)
        return None

    def total(self) -> Fraction:
        return sum(self._probs.values(), Fraction(0))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteDist) and self._probs == other._probs

    def __hash__(self):
        raise TypeError("FiniteDist is not hashable")

    def __repr__(self) -> str:
        body = ", ".join(f"{s!r}: {float(p):.4g}" for s, p in self._probs.items())
        return f"FiniteDist({{{body}}}, kind={self._kind!r})"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        def sym_key(item):
            sym, _ = item
            if sym is BOTTOM:
                return (0, 0)
            if sym is SAME:
                return (1, 0)
            return (2, sym.value)

        support = []
        for sym, p in sorted(self._probs.items(), key=sym_key):
            if sym is BOTTOM:
                entry = {"sym": "bottom", "p": float(p)}
            elif sym is SAME:
                entry = {"sym": "same", "p": float(p)}
            else:
                entry = {"sym": sym.to_hex(), "bits": len(sym), "p": float(p)}
            support.append(entry)
        out = {"kind": self._kind, "support": support}
        if self._samples is not None:
            out["samples"] = self._samples
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteDist":
        probs = {}
        samples = obj.get("samples")
        for entry in obj["support"]:
            raw = entry["sym"]
            if raw == "bottom":
                sym: Symbol = BOTTOM
            elif raw == "same":
                sym = SAME
            else:
                sym = BitWord(int(raw, 16), entry["bits"])
            p = entry["p"]
            if samples is not None:
                probs[sym] = Fraction(round(p * samples), samples)
            else:
                probs[sym] = p
        return cls(probs, kind=obj["kind"], samples=samples)


def _check_compatible(p: FiniteDist, q: FiniteDist) -> None:
    lp, lq = p.message_length(), q.message_length()
    if lp is not None and lq is not None and lp != lq:
        raise ValueError(f"mismatched symbol universes: {lp}-bit vs {lq}-bit messages")


def statistical_distance(p: FiniteDist, q: FiniteDist) -> Fraction:
    """Half the L1 distance between the two probability vectors."""
    _check_compatible(p, q)
    syms = set(p.support()) | set(q.support())
    acc = Fraction(0)
    for sym in syms:
        acc += abs(p.prob(sym) - q.prob(sym))
    return acc / 2


def push_copy(d: FiniteDist, s: BitWord) -> FiniteDist:
    """Reassign the mass of SAME to the concrete message s."""
    ml = d.message_length()
    if ml is not None and ml != len(s):
        raise ValueError(f"message length mismatch: {ml} vs {len(s)}")
    same_mass = d.prob(SAME)
    if same_mass == 0:
        return d
    probs = {sym: p for sym, p in d.items() if sym is not SAME}
    probs[s] = probs.get(s, Fraction(0)) + same_mass
    return FiniteDist(probs, kind=d.kind, samples=d.samples)


_INT64_MAX = (1 << 63) - 1
#: Most cells one numpy pass holds, for every chunked sweep of the package:
#: `worst_marginal`, `inner.verify_error_detection`,
#: `nmext.relaxed_error_sweep`, `perm.test_lwise_dependence` and
#: `perm.seed_table`. Each reads it as core.PASS_CELLS at call time, so the
#: one value sets every chunk boundary.
PASS_CELLS = 1 << 16
#: Most entries one table or enumeration holds, for every size guard on a
#: table; each reads it as core.TABLE_CELLS at call time.
TABLE_CELLS = 1 << 20


def uniform_distance(counts: Iterable[int], total: int, outcomes: int) -> Fraction:
    """Exact distance of a counted marginal from uniform on `outcomes` cells.

    `counts` (an integer array or any iterable of ints) holds the counts of
    the cells that occurred, out of `total` draws; cells missing from it
    count 0. Returns 1/2 * sum over all cells of |c/total - 1/outcomes|,
    summed as one int64 array sum of |c*outcomes - total| plus `total` per
    missing cell, with one Fraction built at the end. Raises GuardExceeded
    when an int64 product or sum could overflow.
    """
    counts = np.asarray(counts if isinstance(counts, np.ndarray) else list(counts), dtype=np.int64)
    cells = len(counts)
    if counts.min(initial=0) < 0:
        raise ValueError("counts must be nonnegative")
    # Each term |c*outcomes - total| is at most c*outcomes + total, so the
    # int64 sum stays below outcomes * sum(c) + cells * total; sum(c)
    # itself fits when cells * max(c) does.
    top = max(total, int(counts.max(initial=0)))
    if cells * top > _INT64_MAX or outcomes * int(counts.sum()) + cells * total > _INT64_MAX:
        raise GuardExceeded(f"{cells} counts of {total} draws over {outcomes} cells overflow int64")
    acc = int(np.abs(counts * outcomes - total).sum()) + (outcomes - cells) * total
    return Fraction(acc, 2 * total * outcomes)


def worst_marginal(
    groups: Sequence[Sequence[int]], n: int, ell: int
) -> Tuple[Fraction, Optional[int], Optional[Tuple[int, ...]]]:
    """Worst `uniform_distance` of the marginals of the n-bit words of each
    group, uniform over the group, over every group and index set of size
    1..ell; the groups hold equally many words.

    Returns (distance, group, index set); ties keep the first group, then
    the first set in size, then `combinations`, order, and (0, None, None)
    when every marginal is uniform. For each size the index sets go in
    chunks of at most PASS_CELLS cells: set s's key of a word of
    group g (bit j is the word's bit idxs[j]) is offset by
    (s * len(groups) + g) << size, one `bincount` counts the chunk, and each
    (set, group) is scored by the int64 row sum of |c * 2^size - total|,
    the numerator of its `uniform_distance`, total the words per group.
    """
    total = len(groups[0])
    if any(len(words) != total for words in groups):
        raise ValueError("every group needs the same number of words")
    words = [w for group in groups for w in group]
    if n <= 64:  # one little-endian uint64 per word
        width, raw = 8, np.array(words, dtype="<u8").view(np.uint8)
    else:
        width = (n + 7) // 8
        raw = np.frombuffer(b"".join(int(w).to_bytes(width, "little") for w in words), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(words), width), axis=1, bitorder="little")[:, :n]
    bits = bits.T.astype(np.int64)  # bits[i, w] is bit i of word w
    top_size = max(0, min(ell, n))
    if (2 * total) << top_size > _INT64_MAX:
        raise GuardExceeded(f"2^{top_size} cells of {total} draws overflow int64")
    ngroups = len(groups)
    group_of = np.repeat(np.arange(ngroups, dtype=np.int64), total)
    # Per group, the worst score so far over 2 * total * 2^top_size, and its set.
    worst = np.zeros(ngroups, dtype=np.int64)
    witness: List[Optional[Tuple[int, ...]]] = [None] * ngroups
    for size in range(1, top_size + 1):
        outcomes = 1 << size
        sets = np.array(list(combinations(range(n), size)), dtype=np.intp)
        per_chunk = max(1, PASS_CELLS // max(len(words), ngroups * outcomes))
        top = np.full(ngroups, -1, dtype=np.int64)
        top_set = np.zeros(ngroups, dtype=np.intp)
        for lo in range(0, len(sets), per_chunk):
            chunk = sets[lo : lo + per_chunk]
            keys = (np.arange(len(chunk), dtype=np.int64)[:, None] * ngroups + group_of) << size
            for j in range(size):
                keys += bits[chunk[:, j]] << j  # (sets, words)
            counts = np.bincount(keys.ravel(), minlength=(len(chunk) * ngroups) << size)
            scores = np.abs(counts.reshape(len(chunk), ngroups, outcomes) * outcomes - total).sum(axis=2)
            best = scores.argmax(axis=0)
            value = scores[best, np.arange(ngroups)]
            better = value > top
            top[better] = value[better]
            top_set[better] = lo + best[better]
        top <<= top_size - size
        for g in np.flatnonzero(top > worst).tolist():
            worst[g] = top[g]
            witness[g] = tuple(sets[top_set[g]].tolist())
    g = int(worst.argmax())
    if not worst[g]:
        return Fraction(0), None, None
    return Fraction(int(worst[g]), (2 * total) << top_size), g, witness[g]


def confidence_radius(samples: int) -> float:
    """Two-sided Hoeffding radius for an empirical distance at confidence 1 - 10^-6."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    return sqrt(log(2.0 / 1e-6) / (2.0 * samples))


# ---------------------------------------------------------------------------
# Verifier reports
# ---------------------------------------------------------------------------


@dataclass
class PropertyReport:
    """Outcome of an exhaustive or sampled property sweep.

    `worst_value` is the extremal quantity the property bounds;
    `counterexample` is present exactly when the sweep failed.
    """

    name: str
    passed: bool
    worst_case: str
    worst_value: Union[Fraction, float]
    counterexample: Optional[dict] = None
    details: Optional[dict] = None

    def __post_init__(self):
        if self.passed and self.counterexample is not None:
            raise ValueError("passing report must not carry a counterexample")
        if not self.passed and self.counterexample is None:
            raise ValueError("failing report must carry a counterexample")

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "passed": self.passed,
            "worst_case": self.worst_case,
            "worst_value": float(self.worst_value),
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.details:
            out["details"] = self.details
        return out


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RngSeed:
    """32-byte root seed plus a stream id.

    Equal (seed, stream_id) pairs reproduce identical streams on every
    platform; parallel workers take distinct stream ids so they never share
    a stream.
    """

    seed: bytes
    stream_id: int = 0

    def __post_init__(self):
        if len(self.seed) != 32:
            raise ValueError("seed must be exactly 32 bytes")
        if self.stream_id < 0:
            raise ValueError("stream_id must be nonnegative")

    @classmethod
    def from_int(cls, n: int, stream_id: int = 0) -> "RngSeed":
        digest = hashlib.sha256(b"nmcode.seed:" + str(n).encode()).digest()
        return cls(digest, stream_id)

    @classmethod
    def from_hex(cls, s: str, stream_id: int = 0) -> "RngSeed":
        raw = bytes.fromhex(s)
        if len(raw) < 32:
            raw = hashlib.sha256(b"nmcode.hexseed:" + raw).digest()
        return cls(raw[:32], stream_id)

    def child(self, stream_id: int) -> "RngSeed":
        return RngSeed(self.seed, stream_id)

    def stream(self, label: str = "") -> random.Random:
        material = (
            self.seed
            + self.stream_id.to_bytes(8, "little")
            + label.encode("utf-8")
        )
        return random.Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))

    def to_json(self) -> dict:
        return {"seed": self.seed.hex(), "stream_id": self.stream_id}

    @classmethod
    def from_json(cls, obj: dict) -> "RngSeed":
        if not isinstance(obj, dict) or not isinstance(obj.get("seed"), str):
            raise ValueError('a seed needs a hex "seed" string')
        return cls(bytes.fromhex(obj["seed"]), obj.get("stream_id", 0))


def dumps_report(obj) -> str:
    """Canonical JSON used for golden-file report comparisons."""
    return json.dumps(obj, indent=2, sort_keys=True)
