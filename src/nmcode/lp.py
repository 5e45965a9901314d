"""Exact rational linear programming, sized for toy-scale minimizations.

The strict non-malleability checks need the distance-minimizing reference
distribution over outputs plus a SAME marker. That minimization is a small
linear program; solving it in exact arithmetic keeps every reported error
an exact Fraction, which the factor-4 and reduction inequalities rely on.

One fraction-free simplex serves every LP here: `_simplex`, on a dense
tableau of Python-int lists with `_pivot`'s Edmonds/Bareiss update and
one determinant per row. `solve_lp` runs its two phases under Bland's
rule, each row scaled by the lcm of its own denominators. Nothing in the
package calls it: it serves the test oracles' cell-form LPs (1,703 calls
in the test suite, the largest of 153 rows and 83 variables; no
benchmark workload makes one).

`message_minimax` (one budget for every message's row: the minimax over
messages of `schemes.optimal_nm_error` and of the extractor code's error
at m != 1) and `min_copy_distance` (one budget per output: the strict
distance of a (2^m, 2^m) count matrix of (output, tampered output)
cells) solve the SAME-marker LP through its row-subset dual, `_same_dual`,
which starts from the slack basis, generates its subset columns by
pricing and reads the minimizing reference off the slack reduced costs.
The tests check both against the LP's two-inequality-rows form, solved
by `solve_lp` and by a Fraction simplex that shares no code with this
module. `min_copy_distance_m1` is the copy distance's closed form for
one output bit, on Python int or int64 array counts alike. Each kernel
takes only its counts: row sums and totals are summed here, never passed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import List, Sequence, Tuple

import numpy as np

from .core import NmcodeError

class LpInfeasible(NmcodeError):
    pass


def _pivot(tab: List[List[int]], basis: List[int], row: int, col: int, det: int, dets: List[int]) -> int:
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
        prow = tab[row] = [v * det // dets[row] for v in prow]
    p = prow[col]
    for r, line in enumerate(tab):
        f = line[col]
        if f and r != row:
            d = dets[r]
            tab[r] = [(p * a - f * b) // d for a, b in zip(line, prow)]
            dets[r] = p
    dets[row] = p
    basis[row] = col
    return p


def _simplex(tab: List[List[int]], basis: List[int], det: int, dets: List[int], patience: int) -> int:
    """Pivot to optimality; returns the basis determinant.

    Column 0 is the rhs and the last row the objective; every other
    column may enter. It enters by the most negative reduced cost
    (Dantzig's rule), or by the lowest negative one (Bland's rule, which
    cannot cycle) after `patience` degenerate pivots in a row, from the
    first pivot when patience is 0. The leaving row has the least ratio,
    ties to the lowest basic column; each row's positive determinant
    cancels from its sign tests and ratios. Raises LpInfeasible when the
    objective is unbounded below.
    """
    degenerate = 0
    while True:
        obj = tab[-1]
        least = min(obj[1:], default=0)
        if least >= 0:
            return det
        if degenerate < patience:
            col = obj.index(least, 1)
        else:
            col = next(j for j in range(1, len(obj)) if obj[j] < 0)
        best = None
        for r in range(len(tab) - 1):
            line = tab[r]
            a = line[col]
            # The least ratio line[0] / a against the best's rhs / top, cross-multiplied.
            if a > 0 and (best is None or (q := line[0] * top - rhs * a) < 0
                          or not q and basis[r] < basis[best]):
                best, top, rhs = r, a, line[0]
        if best is None:
            raise LpInfeasible("objective unbounded below")
        degenerate = 0 if rhs else degenerate + 1
        # A module-global lookup, so that a patched `_pivot` sees every pivot.
        det = _pivot(tab, basis, best, col, det, dets)


def solve_lp(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> Tuple[Fraction, List[Fraction]]:
    """Minimize c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0.

    Two-phase simplex with Bland's rule (`_simplex` with patience 0) on a
    dense integer tableau: column 0 the rhs, 1..n the variables, then the
    slacks. Row i and its rhs are scaled by s_i > 0, the lcm of their
    denominators; its slack and artificial entries stay 1, which scales
    those variables instead. That leaves every ratio test and every
    structural-basic row of B^-1 A as they were, and multiplies a row
    whose basic variable is a slack or an artificial by s_i, keeping its
    zeros and signs. Phase 1 weights row i by L / s_i (L = lcm of the
    s_i), so its objective row is L times the unscaled -sum of rows and
    Bland's rule picks the same columns; a plain -sum of the scaled rows
    would not. Artificial columns start as the identity, so the basis
    determinant starts at 1, and are not stored, as none may enter; their
    basis labels sort after every stored column. Returns (optimal value,
    solution) as exact Fractions.
    """
    n, nslack = len(c), len(a_ub)
    total = n + nslack  # columns 1..total may enter
    tab: List[List[int]] = []
    scales: List[int] = []
    for i, (row, b) in enumerate([*zip(a_ub, b_ub), *zip(a_eq, b_eq)]):
        s = lcm(*(v.denominator for v in (b, *row)))
        line = [v.numerator * (s // v.denominator) for v in (b, *row)] + [0] * nslack
        if i < nslack:
            line[1 + n + i] = 1
        # Normalize to a nonnegative rhs; the artificial keeps entry 1.
        if line[0] < 0:
            line = [-v for v in line]
        tab.append(line)
        scales.append(s)
    basis = list(range(total + 1, total + 1 + len(tab)))
    # Phase-1 cost L / s_i per artificial, reduced against the artificial basis.
    big = lcm(*scales)
    phase1 = [0] * (total + 1)
    for line, s in zip(tab, scales):
        phase1 = [p - big // s * v for p, v in zip(phase1, line)]
    tab.append(phase1)
    dets = [1] * len(tab)
    det = _simplex(tab, basis, 1, dets, 0)
    dets.pop()
    # Objective-row invariant: the rhs entry holds minus the current value.
    if tab.pop()[0] < 0:
        raise LpInfeasible("no feasible point")
    # Drive any artificial variables remaining in the basis out of it.
    for r, b in enumerate(basis):
        if b > total and (col := next((j for j in range(1, total + 1) if tab[r][j]), None)):
            if tab[r][col] < 0:
                # Negating the row keeps the determinant positive; the
                # pivot divides the row by its pivot entry either way.
                tab[r] = [-v for v in tab[r]]
            det = _pivot(tab, basis, r, col, det, dets)
    cost_scale = lcm(*(v.denominator for v in c))
    cost = [0] + [v.numerator * (cost_scale // v.denominator) for v in c]
    # Express the objective in terms of the nonbasic variables, over det:
    # row r brought to det is line * det / dets[r], an exact division.
    obj = [det * v for v in cost] + [0] * nslack
    for line, b, d in zip(tab, basis, dets):
        if b <= n and (f := cost[b]):
            obj = [o - f * (v * det // d) for o, v in zip(obj, line)]
    tab.append(obj)
    dets.append(det)
    _simplex(tab, basis, det, dets, 0)
    solution = [Fraction(0)] * n
    for line, b, d in zip(tab, basis, dets):
        if b <= n:
            solution[b - 1] = Fraction(line[0], d)
    return Fraction(-tab[-1][0], dets[-1] * cost_scale), solution


# ---------------------------------------------------------------------------
# Distance to the nearest "independent output + SAME marker" explanation
# ---------------------------------------------------------------------------


def _same_dual(
    rows: Sequence[Sequence[int]],
    own: Sequence[int],
    budget_of: Sequence[int],
    budgets: Sequence[int],
) -> Tuple[Fraction, List[Fraction]]:
    """The SAME-marker LP through its row-subset dual.

    Row s holds counts over len(rows[0]) outputs, shares P_s = row / sum(row),
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

    The tableau is `_simplex`'s: column 0 the rhs, 1 + i row i's slack,
    then w and the lambda, the objective row last. Each master round runs
    `_simplex` with a patience of len(tab) degenerate pivots before
    Bland's rule; its leaving row always exists, as the dual is bounded.

    Columns are generated, not listed (a row has 2^|support| - 1 of them).
    The pool starts with each row's own-output singleton; every subset of
    a support of at most 4 cells up front measured slower. After each
    optimum the output and SAME rows' slack reduced costs, over the
    objective row's determinant and L, are the prices d, and the budget
    rows' are the t; row s's positive residuals P_s - Q_s form the column
    that prices in when their sum exceeds t_{budget_of[s]}. The solve ends
    when no column prices in. A new column's entry in row r is the sum of
    its slack entries, dets[r] * B^-1, over the rows the column meets, less
    cost * dets[r] in the objective row: what the pivots would have kept
    there, so each master solve starts from the last basis.
    Costs are scaled to integers by the lcm L of the row sums. Returns
    (optimum, [d_0, ..., d_SAME]), and d sums to 1: at a positive optimum
    some lambda and hence w is positive, so its primal constraint
    sum d <= 1 is tight, and at optimum 0 every row has Q_s >= P_s, so
    sum d >= 1.
    """
    outputs = len(rows[0])
    nrows = outputs + 1 + len(budgets)
    scale = lcm(*(sum(row) for row in rows))
    tab = [[0] * (nrows + 2) for _ in range(nrows + 1)]
    for i in range(nrows):
        tab[i][1 + i] = 1
    for i in range(outputs + 1):
        tab[i][nrows + 1] = -1
    for b, rhs in enumerate(budgets):
        tab[outputs + 1 + b][0] = rhs
    tab[-1][nrows + 1] = scale
    basis = list(range(1, nrows + 1))
    dets = [1] * len(tab)
    weights = [scale // sum(row) for row in rows]

    def column(s: int, subset: Sequence[int]) -> Tuple[itemgetter, int]:
        """Row s's column for `subset`: a getter of its rows' slacks, and its cost."""
        cells = [1 + o for o in subset] + [2 + outputs + budget_of[s]]
        if own[s] in subset:
            cells.append(1 + outputs)
        return itemgetter(*cells), weights[s] * sum(rows[s][o] for o in subset)

    new = [column(s, [own[s]]) for s, row in enumerate(rows) if row[own[s]]]
    det = 1
    while True:
        for line in tab:
            line.extend([sum(get(line)) for get, _ in new])
        for j, (_, cost) in enumerate(new, len(tab[-1]) - len(new)):
            tab[-1][j] -= cost * dets[-1]
        det = _simplex(tab, basis, det, dets, len(tab))
        obj, d = tab[-1], dets[-1]
        same = obj[1 + outputs]
        new = []
        for s, row in enumerate(rows):
            w = weights[s] * d
            residual = {o: v for o, c in enumerate(row)
                        if c and (v := c * w - obj[1 + o] - (same if o == own[s] else 0)) > 0}
            if sum(residual.values()) > obj[2 + outputs + budget_of[s]]:
                new.append(column(s, list(residual)))
        if not new:
            break
    den = d * scale
    return Fraction(obj[0], den), [Fraction(v, den) for v in obj[1 : outputs + 2]]


def message_minimax(rows: Sequence[Sequence[int]], messages: Sequence[int]) -> Tuple[Fraction, List[Fraction]]:
    """Reference distribution d over the outputs plus SAME minimizing the
    worst message's distance: rows[i] counts the outcomes of one message
    over the outputs (for `schemes`, its count cells: decoder failure, then
    the messages), explained by d with SAME standing for output
    messages[i], the message's own. One budget row for every message (see
    `_same_dual`). Returns (t, [d_0, ..., d_{outputs-1}, d_same]). Raises
    ValueError for no rows, rows of unequal lengths, a row without a
    positive sum, and messages other than one output per row."""
    if not rows:
        raise ValueError("message_minimax needs at least one row")
    if len(messages) != len(rows) or not all(0 <= s < len(rows[0]) for s in messages):
        raise ValueError(f"need one output in [0, {len(rows[0])}) per row, not {list(messages)}")
    for row in rows:
        if len(row) != len(rows[0]) or sum(row) <= 0:
            raise ValueError(f"row {list(row)} is not {len(rows[0])} counts with a positive sum")
    return _same_dual(rows, messages, [0] * len(rows), [1])


def min_copy_distance(counts: np.ndarray) -> Tuple[Fraction, List[Fraction]]:
    """Reference distribution d over the outputs plus SAME closest to the
    law of (output, tampered output); returns (distance, [d_0, ...,
    d_{outputs-1}, d_same]), as `message_minimax` does.

    counts[a, b] counts the cells with output a and tampered output b;
    with p_a the share of output a, d explains the pair (a, b) by
    p_a * (d_b + [a == b] * d_same), so the distance is the sum over
    outputs a of p_a times the distance of row a, and each output that
    occurs gets its own budget row (see `_same_dual`). Exact for any
    output alphabet.
    """
    total = int(counts.sum())
    if not total:
        raise ValueError("min_copy_distance needs at least one cell")
    own = [a for a, row in enumerate(counts.tolist()) if any(row)]
    rows = counts[own].tolist()
    value, d = _same_dual(rows, own, range(len(rows)), [sum(row) for row in rows])
    return value / total, d


def min_copy_distance_m1(c01, c11, r0, r1):
    """Closed form of `min_copy_distance` for one output bit, elementwise
    on integer counts: returns (numerator, denominator) of the exact
    distance, Python ints for int inputs and int64 arrays for int64 array
    inputs, from one body of arithmetic that both kinds support.

    c01 and c11 count the cells whose tampered output is 1 under output 0
    and 1; r0 and r1 count output 0 and 1, out of total = r0 + r1 cells.
    The objective collapses to |J(0,1) - p0*d1| + |J(1,0) - p1*d0| over
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
    return positive * excess, positive * ((r0 + r1) * (r0 + wider * (r1 - r0)) - 1) + 1
