"""Exact rational linear programming, sized for toy-scale minimizations.

The strict non-malleability checks need the distance-minimizing reference
distribution over outputs plus a SAME marker. That minimization is a small
linear program; solving it in exact arithmetic keeps every reported error
an exact Fraction, which the factor-4 and reduction inequalities rely on.

`solve_lp` runs the simplex on sparse {column: int} rows, since the
reduction LPs are mostly zeros, with fraction-free (Edmonds/Bareiss)
pivots. Each row is scaled by the lcm of its own denominators, not by one
lcm of the whole matrix, so the determinant grows only by the scales of the
rows pivoted on; phase 1 weights row i by L / s_i to keep Bland's path.

A closed form exists for one output bit and is validated against both the
simplex solver and a brute-force grid in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Mapping, Sequence, Tuple

from .core import SAME, NmcodeError

_ZERO = Fraction(0)
_ONE = Fraction(1)

Row = Dict[int, int]  # a tableau row: column -> nonzero integer entry


class LpInfeasible(NmcodeError):
    pass


def _pivot(tab: List[Row], basis: List[int], row: int, col: int, det: int) -> int:
    """Integer-preserving pivot; returns the new basis determinant.

    Every row r stands for the rational row tab[r] / det. Pivoting keeps
    the pivot row as it is, makes its pivot entry p the new determinant,
    and sets each other row to (p*a - f*b) // det, a division that is
    exact because every entry is a minor of the integer input matrix
    (Edmonds 1967; Bareiss 1968). The pivot must be positive.
    """
    prow = tab[row]
    p = prow[col]
    for r, line in enumerate(tab):
        if r == row:
            continue
        f = line.get(col)
        if f:
            tab[r] = {j: v // det for j in line.keys() | prow.keys()
                      if (v := p * line.get(j, 0) - f * prow.get(j, 0))}
        elif p != det:
            tab[r] = {j: p * a // det for j, a in line.items()}
    basis[row] = col
    return p


def _simplex(tab: List[Row], basis: List[int], ncols: int, det: int) -> int:
    # Bland's rule on both choices: guaranteed termination. The common positive
    # denominator det cancels from every sign test and ratio. Column ncols is the rhs.
    while True:
        col = min((j for j, v in tab[-1].items() if v < 0 and j < ncols), default=None)
        if col is None:
            return det
        best_row = None
        for r in range(len(tab) - 1):
            a = tab[r].get(col, 0)
            if a > 0:
                if best_row is None:
                    best_row = r
                    continue
                # ratio rhs_r / a against the best, cross-multiplied.
                lhs = tab[r].get(ncols, 0) * tab[best_row][col]
                rhs = tab[best_row].get(ncols, 0) * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best_row]):
                    best_row = r
        if best_row is None:
            raise LpInfeasible("objective unbounded below")
        det = _pivot(tab, basis, best_row, col, det)


def solve_lp(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> Tuple[Fraction, List[Fraction]]:
    """Minimize c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0.

    Two-phase simplex with Bland's rule on sparse integer rows. Row i and
    its rhs are scaled by s_i > 0, the lcm of their denominators; its slack
    and artificial entries stay 1, which scales those variables instead.
    That leaves every ratio test and every structural-basic row of B^-1 A
    as they were, and multiplies a row whose basic variable is a slack or
    an artificial by s_i, keeping its zeros and signs. Phase 1 weights row
    i by L / s_i (L = lcm of the s_i), so its objective row is L times the
    unscaled -sum of rows and Bland's rule picks the same columns; a plain
    -sum of the scaled rows would not. Artificial columns start as the
    identity, so the basis determinant starts at 1, and are not stored, as
    none may enter. Returns (optimal value, solution) as exact Fractions.
    """
    n, nslack = len(c), len(a_ub)
    total = n + nslack  # columns that may enter; column `total` is the rhs
    tab: List[Row] = []
    scales: List[int] = []
    for i, (row, b) in enumerate([*zip(a_ub, b_ub), *zip(a_eq, b_eq)]):
        cells = {j: v for j, v in enumerate(row) if v}
        if b:
            cells[total] = b
        s = lcm(*(v.denominator for v in cells.values()))
        line = {j: v.numerator * (s // v.denominator) for j, v in cells.items()}
        if i < nslack:
            line[n + i] = 1
        # Normalize to a nonnegative rhs; the artificial keeps entry 1.
        if line.get(total, 0) < 0:
            line = {j: -v for j, v in line.items()}
        tab.append(line)
        scales.append(s)
    basis = list(range(total, total + len(tab)))
    # Phase-1 cost L / s_i per artificial, reduced against the artificial basis.
    big = lcm(*scales)
    phase1: Row = {}
    for line, s in zip(tab, scales):
        for j, v in line.items():
            phase1[j] = phase1.get(j, 0) - big // s * v
    tab.append({j: v for j, v in phase1.items() if v})
    det = _simplex(tab, basis, total, 1)
    # Objective-row invariant: the rhs entry holds minus the current value.
    if tab.pop().get(total, 0) < 0:
        raise LpInfeasible("no feasible point")
    # Drive any artificial variables remaining in the basis out of it.
    for r, b in enumerate(basis):
        if b >= total:
            col = min((j for j in tab[r] if j < total), default=None)
            if col is not None:
                if tab[r][col] < 0:
                    # Negating the row keeps the determinant positive; the
                    # pivot divides the row by its pivot entry either way.
                    tab[r] = {j: -v for j, v in tab[r].items()}
                det = _pivot(tab, basis, r, col, det)
    cost_scale = lcm(*(v.denominator for v in c))
    cost = {j: v.numerator * (cost_scale // v.denominator) for j, v in enumerate(c) if v}
    # Express the objective in terms of the nonbasic variables.
    obj = {j: det * v for j, v in cost.items()}
    for line, b in zip(tab, basis):
        f = cost.get(b)
        if f:
            for j, v in line.items():
                obj[j] = obj.get(j, 0) - f * v
    tab.append({j: v for j, v in obj.items() if v})
    det = _simplex(tab, basis, total, det)
    solution = [_ZERO] * n
    for line, b in zip(tab, basis):
        if b < n:
            solution[b] = Fraction(line.get(total, 0), det)
    return Fraction(-tab[-1].get(total, 0), det * cost_scale), solution


# ---------------------------------------------------------------------------
# Distance to the nearest "independent output + SAME marker" explanation
# ---------------------------------------------------------------------------


def copy_distance(
    joint: Mapping[Tuple[int, int], Fraction],
    marginal: Mapping[int, Fraction],
    d: Mapping[object, Fraction],
    outputs: Sequence[int],
) -> Fraction:
    """Statistical distance between `joint` and the explanation induced by d.

    d assigns mass to each output value and to SAME; the explanation places
    probability p_a * (d[b] + d[SAME]*[a==b]) on the pair (a, b).
    """
    ds = Fraction(d.get(SAME, 0))
    acc = _ZERO
    for a, pa in marginal.items():
        for b in outputs:
            model = pa * (Fraction(d.get(b, 0)) + (ds if a == b else _ZERO))
            acc += abs(joint.get((a, b), _ZERO) - model)
    return acc / 2


def same_minimax(
    groups: Sequence[Sequence[Tuple[int, Fraction, Fraction, bool]]],
    outputs: int,
) -> Tuple[Fraction, List[Fraction]]:
    """Reference distribution over `outputs` values plus SAME that minimizes
    the worst group distance; the one LP behind both SAME-marker minimaxes.

    A cell (o, w, p, same) asks that its mass p be explained by
    w * (d[o] + [same] * d[SAME]); a group's distance is half its summed
    cell errors. The LP minimizes t subject to sum_group e <= 2t,
    |p - w * (d_o + [same] * d_same)| <= e, d >= 0 and sum d + d_same = 1.
    Returns (t, [d_0, ..., d_{outputs-1}, d_same]).
    """
    # Variables: d[0..outputs-1], d_same, t, then one error e per cell.
    nd = outputs + 1
    nvars = nd + 1 + sum(len(g) for g in groups)
    c = [_ZERO] * nvars
    c[nd] = _ONE
    a_ub: List[List[Fraction]] = []
    b_ub: List[Fraction] = []
    col = nd + 1
    for group in groups:
        row = [_ZERO] * nvars
        row[col : col + len(group)] = [_ONE] * len(group)
        row[nd] = Fraction(-2)
        a_ub.append(row)
        b_ub.append(_ZERO)
        for o, w, p, same in group:
            # w*(d_o + [same]*d_same) - e <= p and its mirror >= p.
            for sign in (-1, 1):
                row = [_ZERO] * nvars
                row[col] = -_ONE
                row[o] = sign * w
                if same:
                    row[outputs] = sign * w
                a_ub.append(row)
                b_ub.append(sign * p)
            col += 1
    a_eq = [[_ONE] * nd + [_ZERO] * (nvars - nd)]
    value, x = solve_lp(c, a_ub, b_ub, a_eq, [_ONE])
    return value, x[:nd]


def min_copy_distance(
    joint: Mapping[Tuple[int, int], Fraction],
    marginal: Mapping[int, Fraction],
    outputs: Sequence[int],
) -> Tuple[Fraction, Dict[object, Fraction]]:
    """Exact minimizer of `copy_distance` over all reference distributions.

    One `same_minimax` group holding every (a, b) cell with weight p_a;
    exact for any output alphabet size, but meant for toy scales (the LP
    has O(|A|*|outputs|) variables).
    """
    cells = [
        (bi, Fraction(pa), Fraction(joint.get((a, b), _ZERO)), a == b)
        for a, pa in marginal.items()
        if pa > 0
        for bi, b in enumerate(outputs)
    ]
    value, x = same_minimax([cells], len(outputs))
    d: Dict[object, Fraction] = {b: x[bi] for bi, b in enumerate(outputs)}
    d[SAME] = x[len(outputs)]
    return value, d


def min_copy_distance_m1(
    joint: Mapping[Tuple[int, int], Fraction],
    marginal: Mapping[int, Fraction],
) -> Tuple[Fraction, Dict[object, Fraction]]:
    """Closed form of `min_copy_distance` for a single output bit.

    With outputs {0,1} the objective collapses to
        |J(0,1) - p0*d1| + |J(1,0) - p1*d0|,
    minimized subject to d0, d1 >= 0 and d0 + d1 <= 1. When the
    unconstrained optimum fits inside the simplex the distance is 0;
    otherwise the optimum sits on the d_same = 0 face and is found among
    the breakpoints of the two absolute values.
    """
    p0 = Fraction(marginal.get(0, _ZERO))
    p1 = Fraction(marginal.get(1, _ZERO))
    j01 = Fraction(joint.get((0, 1), _ZERO))
    j10 = Fraction(joint.get((1, 0), _ZERO))
    if p0 == 0 or p1 == 0:
        # One branch vanishes; the other reaches 0 inside the simplex.
        if p0 == 0 and p1 == 0:
            return _ZERO, {0: _ZERO, 1: _ZERO, SAME: _ONE}
        if p0 == 0:
            u = j10 / p1
            return _ZERO, {0: u, 1: _ZERO, SAME: _ONE - u}
        v = j01 / p0
        return _ZERO, {0: _ZERO, 1: v, SAME: _ONE - v}
    u0 = j10 / p1
    v0 = j01 / p0
    if u0 + v0 <= 1:
        return _ZERO, {0: u0, 1: v0, SAME: _ONE - u0 - v0}

    def g(v: Fraction) -> Fraction:
        return abs(j01 - p0 * v) + abs(j10 - p1 * (_ONE - v))

    candidates = {_ZERO, _ONE}
    for v in (v0, _ONE - u0):
        if _ZERO <= v <= _ONE:
            candidates.add(v)
    best_v = min(candidates, key=g)
    val = g(best_v)
    return val, {0: _ONE - best_v, 1: best_v, SAME: _ZERO}
