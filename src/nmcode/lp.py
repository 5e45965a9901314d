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
Each row also keeps the determinant of its own last rewrite, so a pivot
rewrites only the rows that have an entry in the pivot column.

`same_minimax` is the one SAME-marker minimax LP. `min_copy_distance`
builds it from a (2^m, 2^m) count matrix of (output, tampered output)
cells, and `min_copy_distance_m1` is its closed form for one output bit,
on int64 count arrays; the test suite checks the closed form against the
simplex, a Fraction oracle and a brute-force grid.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .core import SAME, NmcodeError

_ZERO = Fraction(0)
_ONE = Fraction(1)

Row = Dict[int, int]  # a tableau row: column -> nonzero integer entry


class LpInfeasible(NmcodeError):
    pass


def _pivot(tab: List[Row], basis: List[int], row: int, col: int, det: int, dets: List[int]) -> int:
    """Integer-preserving pivot; returns the new basis determinant.

    Row r stands for the rational row tab[r] / dets[r], where dets[r] is
    the basis determinant at the row's last update; det is the current
    one. The pivot row is first brought to det (times det / dets[row]).
    Its pivot entry p becomes the new determinant, and each row with an
    entry f in the pivot column becomes (p*a - f*b) // dets[r]: the
    Edmonds/Bareiss update (Edmonds 1967; Bareiss 1968) of that row
    brought to det, so the division is exact, as every entry is a minor of
    the integer input matrix. A row without the pivot column keeps its
    value and is left as it is. The pivot must be positive.
    """
    prow = tab[row]
    if dets[row] != det:
        prow = tab[row] = {j: v * det // dets[row] for j, v in prow.items()}
    p = prow[col]
    for r, line in enumerate(tab):
        f = line.get(col)
        if f and r != row:
            d = dets[r]
            tab[r] = {j: v // d for j in line.keys() | prow.keys()
                      if (v := p * line.get(j, 0) - f * prow.get(j, 0))}
            dets[r] = p
    dets[row] = p
    basis[row] = col
    return p


def _simplex(tab: List[Row], basis: List[int], ncols: int, det: int, dets: List[int]) -> int:
    # Bland's rule on both choices: guaranteed termination. Each row's positive
    # determinant cancels from its sign tests and ratios. Column ncols is the rhs.
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
        det = _pivot(tab, basis, best_row, col, det, dets)


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
    dets = [1] * len(tab)
    det = _simplex(tab, basis, total, 1, dets)
    dets.pop()
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
                det = _pivot(tab, basis, r, col, det, dets)
    cost_scale = lcm(*(v.denominator for v in c))
    cost = {j: v.numerator * (cost_scale // v.denominator) for j, v in enumerate(c) if v}
    # Express the objective in terms of the nonbasic variables, over det:
    # row r brought to det is line * det / dets[r], an exact division.
    obj = {j: det * v for j, v in cost.items()}
    for line, b, d in zip(tab, basis, dets):
        f = cost.get(b)
        if f:
            for j, v in line.items():
                obj[j] = obj.get(j, 0) - f * (v * det // d)
    tab.append({j: v for j, v in obj.items() if v})
    dets.append(det)
    _simplex(tab, basis, total, det, dets)
    solution = [_ZERO] * n
    for line, b, d in zip(tab, basis, dets):
        if b < n:
            solution[b] = Fraction(line.get(total, 0), d)
    return Fraction(-tab[-1].get(total, 0), dets[-1] * cost_scale), solution


# ---------------------------------------------------------------------------
# Distance to the nearest "independent output + SAME marker" explanation
# ---------------------------------------------------------------------------


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


def min_copy_distance(counts: np.ndarray) -> Tuple[Fraction, Dict[object, Fraction]]:
    """Reference distribution d over the outputs plus SAME closest to the
    law of (output, tampered output); returns (distance, d).

    counts[a, b] counts the cells with output a and tampered output b;
    with p_a the share of output a, d explains the pair (a, b) by
    p_a * (d[b] + [a == b] * d[SAME]). One `same_minimax` group holding
    every cell of each output that occurs; exact for any output alphabet,
    but meant for toy scales (the LP has O(outputs^2) variables).
    """
    total = int(counts.sum())
    outputs = len(counts)
    cells = [
        (b, Fraction(ra, total), Fraction(c, total), a == b)
        for a, (row, ra) in enumerate(zip(counts.tolist(), counts.sum(axis=1).tolist()))
        if ra
        for b, c in enumerate(row)
    ]
    value, x = same_minimax([cells], outputs)
    d: Dict[object, Fraction] = dict(enumerate(x[:outputs]))
    d[SAME] = x[outputs]
    return value, d


def min_copy_distance_m1(c01, c11, r0, r1, total):
    """Closed form of `min_copy_distance` for one output bit, elementwise
    on integer counts: returns (numerator, denominator) int64 arrays of the
    exact distance.

    c01 and c11 count the cells whose tampered output is 1 under output 0
    and 1; r0 and r1 count output 0 and 1, out of `total` cells. The
    objective collapses to |J(0,1) - p0*d1| + |J(1,0) - p1*d0| over
    d0, d1 >= 0 with d0 + d1 <= 1. It is 0 when either output is missing
    or c10*r0 + c01*r1 <= r0*r1, where the unconstrained optimum fits in
    the simplex; otherwise the optimum lies on the d_SAME = 0 face, at the
    least of the four breakpoints v = d1 = 0, 1, c01/r0 and 1 - c10/r1.
    Values compare by cross-multiplication: with total <= 2^16 (n <=
    EXTRACTION_GUARD_N = 8 for full sources) every numerator is at most
    r0*r1 <= 2^30, every denominator at most total^2 = 2^32, and every
    product at most 2^62, so int64 inputs never overflow.
    """
    c00 = r0 - c01
    c10 = r1 - c11
    cands = [
        (c01 + c11, total),
        (c00 + c10, total),
        (np.abs(r1 * c01 - c11 * r0), total * r0),
        (np.abs(r0 * c10 - c00 * r1), total * r1),
    ]
    num, den = cands[0]
    for n, d in cands[1:]:
        take = n * den < num * d
        num = np.where(take, n, num)
        den = np.where(take, d, den)
    zero = (r0 == 0) | (r1 == 0) | (c10 * r0 + c01 * r1 <= r0 * r1)
    return np.where(zero, 0, num), np.where(zero, 1, den)
