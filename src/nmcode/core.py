"""Shared vocabulary: bit words, outcome symbols, finite distributions,
statistical distance, and reproducible seeded randomness.

Bit words are packed into a single Python int (bit i of the int is
coordinate i, so index 0 is the first coordinate). Probabilities are kept
as exact `fractions.Fraction` values so that toy-scale checks can assert
exact equalities; empirical distributions store exact frequency counts.
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
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

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
    """Immutable fixed-length bit string packed into an int.

    Coordinate i is bit i of ``value`` (LSB first), so ``BitWord.from_str("0110")``
    has word[1] == word[2] == 1.
    """

    __slots__ = ("_value", "_n")

    def __init__(self, value: int, n: int):
        if n < 0:
            raise ValueError("length must be nonnegative")
        if value < 0 or value >> n:
            raise ValueError(f"value {value} does not fit in {n} bits")
        self._value = value
        self._n = n

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitWord":
        value = 0
        n = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            value |= b << n
            n += 1
        return cls(value, n)

    @classmethod
    def from_str(cls, s: str) -> "BitWord":
        return cls.from_bits(int(ch) for ch in s)

    @classmethod
    def zeros(cls, n: int) -> "BitWord":
        return cls(0, n)

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "BitWord":
        return cls(rng.getrandbits(n) if n else 0, n)

    @property
    def value(self) -> int:
        return self._value

    @property
    def n(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._n:
            raise IndexError(i)
        return (self._value >> i) & 1

    def __iter__(self) -> Iterator[int]:
        v = self._value
        for _ in range(self._n):
            yield v & 1
            v >>= 1

    def restrict(self, indices: Sequence[int]) -> "BitWord":
        """Restriction to an index set, preserving the order of `indices`."""
        return BitWord.from_bits((self._value >> i) & 1 for i in indices)

    def concat(self, other: "BitWord") -> "BitWord":
        """Self occupies coordinates [0, len(self)), other follows."""
        return BitWord(self._value | (other._value << self._n), self._n + other._n)

    def __xor__(self, other: "BitWord") -> "BitWord":
        if self._n != other._n:
            raise ValueError("length mismatch")
        return BitWord(self._value ^ other._value, self._n)

    def flip(self, i: int) -> "BitWord":
        if not 0 <= i < self._n:
            raise IndexError(i)
        return BitWord(self._value ^ (1 << i), self._n)

    def popcount(self) -> int:
        return self._value.bit_count()

    def to01(self) -> str:
        return "".join(str(b) for b in self)

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
        return f"BitWord('{self.to01()}')"


def hamming_distance(x: BitWord, y: BitWord) -> int:
    """Number of coordinates where x and y differ; lengths must match."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return (x.value ^ y.value).bit_count()


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


def copy_symbol(x: Symbol, y: Symbol) -> Symbol:
    """Return y if x is the SAME marker, else x. y itself must not be SAME."""
    if y is SAME:
        raise ValueError("second argument must not be SAME")
    return y if x is SAME else x


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

    @classmethod
    def uniform_messages(cls, k: int) -> "FiniteDist":
        p = Fraction(1, 1 << k)
        return cls({BitWord(v, k): p for v in range(1 << k)})

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
    words: Sequence[int], n: int, ell: int
) -> Tuple[Fraction, Optional[Tuple[int, ...]]]:
    """Worst `uniform_distance` of the n-bit words' marginals, uniform over
    the list, over every index set of size 1..ell.

    Returns (distance, index set); ties keep the first set in size, then
    `combinations`, order, and (0, None) when every marginal is uniform.
    """
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


def confidence_radius(samples: int, eta: float = 1e-6) -> float:
    """Two-sided Hoeffding radius for an empirical distance at confidence 1-eta."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    return sqrt(log(2.0 / eta) / (2.0 * samples))


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
        return cls(bytes.fromhex(obj["seed"]), obj.get("stream_id", 0))


def dumps_report(obj) -> str:
    """Canonical JSON used for golden-file report comparisons."""
    return json.dumps(obj, indent=2, sort_keys=True)
