"""The SAME-marker minimax LP in its two-inequality-rows-per-cell form,
and the Fraction simplex that checks `lp.solve_lp`.

`lp.message_minimax` and `lp.min_copy_distance` solve the LP dual of the
positive-part form of the distances. This module keeps the cell form as
an oracle: one shared error e per cell, bounded by two inequality rows,
and it accepts any weights and masses, not only count rows. Both oracle
modules solve their minimaxes with it. `two_row_minimax` solves the cell
form by `lp.solve_lp`, which runs on the same `lp._simplex` kernel as the
minimaxes it checks, so on its own it cannot catch a fault in that
kernel. `oracle_solve_lp` is the independent path: a two-phase simplex
on one Fraction per cell that shares no pivot or simplex code with `lp`.
The tests check `solve_lp` against it, pivot for pivot, and run
`two_row_minimax` through it in place of `lp.solve_lp`.
"""

from fractions import Fraction

from nmcode import lp
from nmcode.lp import LpInfeasible

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Groups (messages) the oracle takes. Its rows are dense over one error
# variable per cell: 256 messages of 257 cells would take about 66k
# variables and 131k rows of Fractions, more memory than a test may use.
MAX_GROUPS = 16


def check_groups(count):
    """Raise ValueError for more than MAX_GROUPS groups, before the caller
    builds any of them."""
    if count > MAX_GROUPS:
        raise ValueError(f"{count} groups exceed the oracle's limit of {MAX_GROUPS}")


def two_row_minimax(groups, outputs):
    """Reference distribution over `outputs` values plus SAME minimizing the
    worst group distance: minimize t subject to
    sum_group e <= 2t, |p - w * (d_o + [same] * d_same)| <= e as two rows,
    d >= 0 and sum d + d_same = 1. Returns (t, [d_0, ..., d_same]); raises
    ValueError past MAX_GROUPS groups."""
    check_groups(len(groups))
    # Variables: d[0..outputs-1], d_same, t, then one error e per cell.
    nd = outputs + 1
    nvars = nd + 1 + sum(len(g) for g in groups)
    c = [_ZERO] * nvars
    c[nd] = _ONE
    a_ub, b_ub = [], []
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
    value, x = lp.solve_lp(c, a_ub, b_ub, a_eq, [_ONE])
    return value, x[:nd]


def _oracle_pivot(tab, basis, row, col):
    inv = 1 / tab[row][col]
    tab[row] = [v * inv for v in tab[row]]
    prow = tab[row]
    for r, line in enumerate(tab):
        if r != row and line[col] != 0:
            f = line[col]
            tab[r] = [a - f * b for a, b in zip(line, prow)]
    basis[row] = col


def _oracle_simplex(tab, basis, ncols):
    while True:
        obj = tab[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return
        best_row = best_ratio = None
        for r in range(len(tab) - 1):
            a = tab[r][col]
            if a > 0:
                ratio = tab[r][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_row])
                ):
                    best_ratio, best_row = ratio, r
        if best_row is None:
            raise LpInfeasible("objective unbounded below")
        _oracle_pivot(tab, basis, best_row, col)


def oracle_solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """`lp.solve_lp`'s phases, drive-out step and Bland's rule on one
    Fraction per cell, with the rhs in the last column and the artificial
    columns stored, so it must return the identical (value, solution) and
    pivot on the same rows, its column j being solve_lp's j + 1."""
    n, nslack = len(c), len(a_ub)
    rows, rhs = [], []
    for i, row in enumerate(a_ub):
        line = [Fraction(v) for v in row] + [_ZERO] * nslack
        line[n + i] = _ONE
        rows.append(line)
        rhs.append(Fraction(b_ub[i]))
    for i, row in enumerate(a_eq):
        rows.append([Fraction(v) for v in row] + [_ZERO] * nslack)
        rhs.append(Fraction(b_eq[i]))
    m, total = len(rows), n + nslack
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    tab, basis = [], []
    for i in range(m):
        line = rows[i] + [_ZERO] * m + [rhs[i]]
        line[total + i] = _ONE
        tab.append(line)
        basis.append(total + i)
    phase1 = [_ZERO] * (total + m + 1)
    for i in range(m):
        phase1 = [a - b for a, b in zip(phase1, tab[i])]
    for i in range(m):
        phase1[total + i] += 1
    tab.append(phase1)
    _oracle_simplex(tab, basis, total)
    if tab[-1][-1] < 0:
        raise LpInfeasible("no feasible point")
    for r in range(m):
        if basis[r] >= total:
            col = next((j for j in range(total) if tab[r][j] != 0), None)
            if col is not None:
                _oracle_pivot(tab, basis, r, col)
    tab.pop()
    obj = [Fraction(v) for v in c] + [_ZERO] * (nslack + m + 1)
    for r in range(m):
        f = obj[basis[r]]
        if f != 0:
            obj = [a - f * b for a, b in zip(obj, tab[r])]
    tab.append(obj)
    _oracle_simplex(tab, basis, total)
    solution = [_ZERO] * n
    for r in range(m):
        if basis[r] < n:
            solution[basis[r]] = tab[r][-1]
    return -tab[-1][-1], solution
