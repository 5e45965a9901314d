"""The SAME-marker minimax LP in its two-inequality-rows-per-cell form.

`lp.message_minimax` and `lp.min_copy_distance` solve the LP dual of the
positive-part form of the distances. This module keeps the cell form as
an independent oracle: one shared error e per cell, bounded by two
inequality rows, solved by `lp.solve_lp`, and it accepts any weights and
masses, not only count rows. Both oracle modules solve their minimaxes
with it, so a change to the `lp` minimaxes cannot carry the oracles along.
"""

from fractions import Fraction

from nmcode import lp

_ZERO = Fraction(0)
_ONE = Fraction(1)


def two_row_minimax(groups, outputs):
    """Reference distribution over `outputs` values plus SAME minimizing the
    worst group distance: minimize t subject to
    sum_group e <= 2t, |p - w * (d_o + [same] * d_same)| <= e as two rows,
    d >= 0 and sum d + d_same = 1. Returns (t, [d_0, ..., d_same])."""
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
