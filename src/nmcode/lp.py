"""Exact rational linear programming, sized for toy-scale minimizations.

The strict non-malleability checks need the distance-minimizing reference
distribution over outputs plus a SAME marker. That minimization is a small
linear program; solving it in exact arithmetic keeps every reported error
an exact Fraction, which the factor-4 and reduction inequalities rely on.

`solve_lp` runs the two-phase simplex with Bland's rule on sparse
{column: int} rows with fraction-free (Edmonds/Bareiss) pivots. Each row
is scaled by the lcm of its own denominators, not by one lcm of the whole
matrix, so the determinant grows only by the scales of the rows pivoted
on; phase 1 weights row i by L / s_i to keep Bland's path. Each row also
keeps the determinant of its own last rewrite, so a pivot rewrites only
the rows that have an entry in the pivot column.

`message_minimax` (one budget for every message's row: the minimax over
messages of `schemes.optimal_nm_error` and of the extractor code's error)
and `min_copy_distance` (one budget per output: the strict distance of a
(2^m, 2^m) count matrix of (output, tampered output) cells) solve the
SAME-marker LP through its row-subset dual, `_same_dual`: every row is <=
with a nonnegative rhs, so it starts from the slack basis with no phase
1, prices by Dantzig's rule with Bland's rule after a run of degenerate
pivots, generates its subset columns by pricing and reads the minimizing
reference off the slack reduced costs. `min_copy_distance_m1` is the copy
distance's closed form for one output bit, on Python int or int64 array
counts alike. The test suite checks the closed form against the simplex,
a Fraction oracle and a brute-force grid, and both minimaxes against the
SAME-marker LP in its two-inequality-rows form, solved by `solve_lp`.
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


def _simplex(
    tab: List[Row], basis: List[int], rhs: int, det: int, dets: List[int], patience: int = 0
) -> int:
    """Pivot to optimality; returns the basis determinant.

    Column `rhs` is the right-hand side; every other column may enter. The
    entering column has the most negative reduced cost (Dantzig's rule),
    or, once `patience` pivots in a row have been degenerate, the lowest
    index with a negative one (Bland's rule) until a pivot makes progress;
    patience 0 is Bland's rule throughout. A degenerate run therefore ends
    in Bland's rule, which cannot cycle, and progress never revisits a
    basis, so the solve terminates. The leaving row has the least ratio,
    ties to the lowest basic column. Each row's positive determinant
    cancels from its sign tests and ratios.
    """
    degenerate = 0
    while True:
        entering = [(v, j) for j, v in tab[-1].items() if v < 0 and j != rhs]
        if not entering:
            return det
        col = min(entering)[1] if degenerate < patience else min(j for _, j in entering)
        best_row = None
        for r in range(len(tab) - 1):
            a = tab[r].get(col, 0)
            if a > 0:
                if best_row is None:
                    best_row = r
                    continue
                # ratio rhs_r / a against the best, cross-multiplied.
                lhs = tab[r].get(rhs, 0) * tab[best_row][col]
                rhs_best = tab[best_row].get(rhs, 0) * a
                if lhs < rhs_best or (lhs == rhs_best and basis[r] < basis[best_row]):
                    best_row = r
        if best_row is None:
            raise LpInfeasible("objective unbounded below")
        degenerate = degenerate + 1 if not tab[best_row].get(rhs, 0) else 0
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


def _add_column(tab: List[Row], dets: List[int], col: int, cells: Sequence[int], cost: int) -> None:
    """Append column `col`, with entry 1 in the constraint rows `cells` and
    objective coefficient -cost, to the current tableau. Row i's slack is
    column i and started as the identity, so row r holds dets[r] * B^-1 in
    its slack entries and the new column's entry is their sum over `cells`:
    the integer that Bareiss pivots would have kept there had the column
    been present from the start."""
    for r, line in enumerate(tab):
        v = sum(line.get(i, 0) for i in cells) - (cost * dets[r] if r == len(tab) - 1 else 0)
        if v:
            line[col] = v


def _same_dual(
    outputs: int,
    rows: Sequence[Sequence[int]],
    own: Sequence[int],
    budget_of: Sequence[int],
    budgets: Sequence[int],
) -> Tuple[Fraction, List[Fraction]]:
    """The SAME-marker LP through its row-subset dual.

    Row s holds counts over `outputs` outputs, with shares P_s = row / sum(row),
    and SAME explains its output own[s]. For a reference d over the outputs
    plus SAME, with Q_s(o) = d_o + [o = own[s]] * d_SAME, both P_s and Q_s
    sum to 1, so the distance of row s is dist_s(d) = sum_o (P_s(o) -
    Q_s(o))+, the largest sum of P_s - Q_s over a subset S of the row's
    support. Row s is charged to budget row budget_of[s]. The primal
    minimizes sum_b budgets[b] * t_b over d with sum d <= 1 and
    t_{budget_of[s]} >= sum_{o in S} (P_s(o) - Q_s(o)) for every (s, S).
    Its dual maximizes sum lambda_{s,S} * P_s(S) - w over lambda, w >= 0
    subject to one row per output and one for SAME, sum of the lambda
    whose S holds the output (for SAME, holds own[s]) minus w <= 0, and one
    budget row per b, sum of row b's lambda <= budgets[b]. Every row is <=
    with rhs >= 0, so the simplex starts from the slack basis. One budget
    of 1 gives min_d max_s dist_s; a budget of sum(row) per row gives
    sum(counts) times min_d sum_s sum(row_s) / sum(counts) * dist_s.

    Columns are generated, not listed (a row has 2^|support| - 1 of them).
    The pool starts with each row's own-output singleton; every subset of
    a support of at most 4 cells up front measured slower. After each
    optimum the output and SAME rows' slack reduced costs, over the
    objective row's determinant and L, are the prices d, and the budget
    rows' are the t; row s's positive residuals P_s - Q_s form the column
    that prices in when their sum exceeds t_{budget_of[s]}. The solve ends
    when no column prices in, the columns entering through the slack block
    (see `_add_column`) so each master solve starts from the last basis.
    Costs are scaled to integers by the lcm L of the row sums. Returns
    (optimum, [d_0, ..., d_SAME]), and d sums to 1: at a positive optimum
    some lambda and hence w is positive, so its primal constraint
    sum d <= 1 is tight, and at optimum 0 every row has Q_s >= P_s, so
    sum d >= 1.
    """
    nrows = outputs + 1 + len(budgets)
    scale = lcm(*(sum(row) for row in rows))
    # Column i is row i's slack, column nrows is w, the lambda follow it;
    # column -1 is the right-hand side.
    tab: List[Row] = [{i: 1} for i in range(nrows)]
    for b, rhs in enumerate(budgets):
        tab[outputs + 1 + b][-1] = rhs
    for i in range(outputs + 1):
        tab[i][nrows] = -1
    tab.append({nrows: scale})
    basis = list(range(nrows))
    dets = [1] * len(tab)
    weights = [scale // sum(row) for row in rows]

    def column(s: int, subset: Sequence[int]) -> Tuple[List[int], int]:
        """Row s's column for `subset`: its constraint rows and its cost."""
        cells = [*subset, outputs + 1 + budget_of[s]]
        if own[s] in subset:
            cells.append(outputs)
        return cells, weights[s] * sum(rows[s][o] for o in subset)

    col = nrows + 1
    new = [column(s, [own[s]]) for s, row in enumerate(rows) if row[own[s]]]
    det = 1
    while True:
        for cells, cost in new:
            _add_column(tab, dets, col, cells, cost)
            col += 1
        det = _simplex(tab, basis, -1, det, dets, patience=len(tab))
        obj, d = tab[-1], dets[-1]
        new = []
        for s, row in enumerate(rows):
            residual = [
                (o, c * weights[s] * d - obj.get(o, 0) - (obj.get(outputs, 0) if o == own[s] else 0))
                for o, c in enumerate(row)
                if c
            ]
            subset = [o for o, v in residual if v > 0]
            if sum(v for _, v in residual if v > 0) > obj.get(outputs + 1 + budget_of[s], 0):
                new.append(column(s, subset))
        if not new:
            break
    den = dets[-1] * scale
    return Fraction(obj.get(-1, 0), den), [Fraction(obj.get(i, 0), den) for i in range(outputs + 1)]


def message_minimax(
    rows: Sequence[Sequence[int]], sizes: Sequence[int], messages: Sequence[int]
) -> Tuple[Fraction, List[Fraction]]:
    """Reference distribution d over the outputs plus SAME minimizing the
    worst message's distance: rows[i] counts, out of its sum sizes[i], the
    outcomes of one message over the outputs (for `schemes`, its count
    cells: decoder failure, then the messages), explained by d with SAME
    standing for output messages[i], the message's own. One budget row for
    every message (see `_same_dual`). Returns (t, [d_0, ..., d_{outputs-1},
    d_same])."""
    for row, size in zip(rows, sizes):
        if sum(row) != size or not size:
            raise ValueError(f"size {size} of row {list(row)} is not its positive sum")
    return _same_dual(len(rows[0]), rows, messages, [0] * len(rows), [1])


def min_copy_distance(counts: np.ndarray) -> Tuple[Fraction, Dict[object, Fraction]]:
    """Reference distribution d over the outputs plus SAME closest to the
    law of (output, tampered output); returns (distance, d).

    counts[a, b] counts the cells with output a and tampered output b;
    with p_a the share of output a, d explains the pair (a, b) by
    p_a * (d[b] + [a == b] * d[SAME]), so the distance is the sum over
    outputs a of p_a times the distance of row a, and each output that
    occurs gets its own budget row (see `_same_dual`). Exact for any
    output alphabet.
    """
    total = int(counts.sum())
    if not total:
        raise ValueError("min_copy_distance needs at least one cell")
    own = [a for a, row in enumerate(counts.tolist()) if any(row)]
    rows = counts[own].tolist()
    outputs = len(counts)
    value, x = _same_dual(outputs, rows, own, range(len(rows)), [sum(row) for row in rows])
    d: Dict[object, Fraction] = dict(enumerate(x[:outputs]))
    d[SAME] = x[outputs]
    return value / total, d


def min_copy_distance_m1(c01, c11, r0, r1, total):
    """Closed form of `min_copy_distance` for one output bit, elementwise
    on integer counts: returns (numerator, denominator) of the exact
    distance, Python ints for int inputs and int64 arrays for int64 array
    inputs, from one body of arithmetic that both kinds support.

    c01 and c11 count the cells whose tampered output is 1 under output 0
    and 1; r0 and r1 count output 0 and 1, out of `total` cells. The
    objective collapses to |J(0,1) - p0*d1| + |J(1,0) - p1*d0| over
    d0, d1 >= 0 with d0 + d1 <= 1. With c10 = r1 - c11 and the excess
    e = c10*r0 + c01*r1 - r0*r1, it is 0 when e <= 0, where the
    unconstrained optimum fits in the simplex (as when either output is
    missing, since its cells then count 0). Otherwise the optimum lies on
    the d_SAME = 0 face, where the objective is convex and piecewise
    linear in v = d1 with slope -(p0 + p1) below both of its kinks
    v = c01/r0 and v = 1 - c10/r1 and +(p0 + p1) above them. Both kinks lie
    in [0, 1], so the least value is at one of them: e/(total*r0) or
    e/(total*r1), the distance e / (total * max(r0, r1)). The larger row
    is selected as r0 + wider * (r1 - r0) and the zero branch by a 0/1
    factor. With total <= 2^16 (n <= EXTRACTION_GUARD_N = 8 for full
    sources) the numerator is at most r0*r1 <= 2^30 and the denominator at
    most total^2 = 2^32, so int64 inputs never overflow and callers may
    compare two values by cross-multiplication below 2^62.
    """
    excess = (r1 - c11) * r0 + c01 * r1 - r0 * r1
    positive = excess > 0
    wider = r1 > r0
    return positive * excess, positive * (total * (r0 + wider * (r1 - r0)) - 1) + 1
