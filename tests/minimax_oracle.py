"""The SAME-marker minimax LP in its two-inequality-rows-per-cell form.

`lp.same_minimax` gives each cell one equality row with its error split
into e+ and e-. This is the formulation it replaced, kept as an
independent oracle: one shared error e per cell, bounded by two
inequality rows. Both oracle modules solve their minimaxes with it, so a
change to the shape of `same_minimax` cannot carry the oracles along.
"""

from fractions import Fraction

from nmcode import lp

_ZERO = Fraction(0)
_ONE = Fraction(1)


def two_row_minimax(groups, outputs):
    """Reference distribution over `outputs` values plus SAME minimizing the
    worst group distance, as `lp.same_minimax`: minimize t subject to
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
