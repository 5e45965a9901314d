"""GF(2^m) arithmetic via log/exp tables.

One irreducible (primitive) modulus is pinned per field size so encodings
are bit-exact across platforms and serialized artifacts stay stable:

    m : polynomial (bit i = coefficient of x^i)
    1 : x + 1                  0x3
    2 : x^2 + x + 1            0x7
    3 : x^3 + x + 1            0xb
    4 : x^4 + x + 1            0x13
    5 : x^5 + x^2 + 1          0x25
    6 : x^6 + x + 1            0x43
    7 : x^7 + x^3 + 1          0x89
    8 : x^8+x^4+x^3+x^2+1      0x11d
    9 : x^9 + x^4 + 1          0x211
    10: x^10 + x^3 + 1         0x409
    11: x^11 + x^2 + 1         0x805
    12: x^12+x^6+x^4+x+1       0x1053

Elements are plain ints in [0, 2^m); addition is XOR.
"""

from __future__ import annotations

from typing import Dict, List

IRREDUCIBLE_POLY: Dict[int, int] = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
}

_FIELDS: Dict[int, "GF2m"] = {}


def _mul_nolut(a: int, b: int, poly: int, m: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= poly
    return acc


class GF2m:
    """The field with 2^m elements under the pinned modulus for m."""

    def __init__(self, m: int):
        if m not in IRREDUCIBLE_POLY:
            raise ValueError(f"no modulus pinned for m={m}")
        self.m = m
        self.q = 1 << m
        self.poly = IRREDUCIBLE_POLY[m]
        exp: List[int] = [0] * (2 * (self.q - 1))
        log: List[int] = [0] * self.q
        x = 1
        for i in range(self.q - 1):
            exp[i] = x
            log[x] = i
            x = _mul_nolut(x, 2, self.poly, m)
        # x must have full order q-1, i.e. the power table hits every
        # nonzero element exactly once; otherwise the log table is broken.
        if x != 1 or len(set(exp[: self.q - 1])) != self.q - 1:
            raise ValueError(f"x is not primitive modulo 0x{self.poly:x}")
        for i in range(self.q - 1, 2 * (self.q - 1)):
            exp[i] = exp[i - (self.q - 1)]
        self._exp = exp
        self._log = log

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[(self.q - 1) - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def eval_poly(self, coeffs, x: int) -> int:
        """Evaluate sum coeffs[i] * x^i (x^0 = 1 even at x = 0)."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.mul(acc, x) ^ c
        return acc

    def __repr__(self):
        return f"GF2m(m={self.m}, poly=0x{self.poly:x})"


def field(m: int) -> GF2m:
    """Cached field instance for the given extension degree."""
    if m not in _FIELDS:
        _FIELDS[m] = GF2m(m)
    return _FIELDS[m]


def invert_matrix(fld: GF2m, matrix):
    """Inverse of a small square matrix over the field, or None if singular."""
    n = len(matrix)
    aug = [list(row) + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = fld.inv(aug[col][col])
        aug[col] = [fld.mul(v, inv) for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a ^ fld.mul(factor, b) for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
