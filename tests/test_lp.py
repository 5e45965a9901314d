import random
from fractions import Fraction

import pytest

from nmcode import lp, nmext
from nmcode.core import SAME, RngSeed
from nmcode.lp import (
    LpInfeasible,
    copy_distance,
    min_copy_distance,
    min_copy_distance_m1,
    solve_lp,
)


def F(a, b=1):
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# Reference oracle: the two-phase Fraction simplex that solve_lp replaced.
# Same tableau layout, phases, drive-out step and Bland's rule, one
# Fraction per cell; solve_lp must return identical (value, solution).
# ---------------------------------------------------------------------------


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
    n, nslack = len(c), len(a_ub)
    rows, rhs = [], []
    for i, row in enumerate(a_ub):
        line = [F(v) for v in row] + [F(0)] * nslack
        line[n + i] = F(1)
        rows.append(line)
        rhs.append(F(b_ub[i]))
    for i, row in enumerate(a_eq):
        rows.append([F(v) for v in row] + [F(0)] * nslack)
        rhs.append(F(b_eq[i]))
    m, total = len(rows), n + nslack
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    tab, basis = [], []
    for i in range(m):
        line = rows[i] + [F(0)] * m + [rhs[i]]
        line[total + i] = F(1)
        tab.append(line)
        basis.append(total + i)
    phase1 = [F(0)] * (total + m + 1)
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
    obj = [F(v) for v in c] + [F(0)] * (nslack + m + 1)
    for r in range(m):
        f = obj[basis[r]]
        if f != 0:
            obj = [a - f * b for a, b in zip(obj, tab[r])]
    tab.append(obj)
    _oracle_simplex(tab, basis, total)
    solution = [F(0)] * n
    for r in range(m):
        if basis[r] < n:
            solution[basis[r]] = tab[r][-1]
    return -tab[-1][-1], solution


def _solve_both(args):
    """(solve_lp result, oracle result), or the exception type each raised."""
    out = []
    for fn in (solve_lp, oracle_solve_lp):
        try:
            out.append(fn(*args))
        except LpInfeasible:
            out.append(LpInfeasible)
    return out


def _random_lp(rng):
    """A small LP with rational entries; most are feasible by construction
    (the right-hand sides are taken at a random point x >= 0), and some
    repeat an equality, which leaves an artificial basic after phase 1."""
    nv, nub, neq = rng.randint(1, 6), rng.randint(0, 5), rng.randint(0, 3)

    def q():
        return F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6]))

    c = [q() for _ in range(nv)]
    a_ub = [[q() for _ in range(nv)] for _ in range(nub)]
    a_eq = [[q() for _ in range(nv)] for _ in range(neq)]
    if rng.random() < 0.8:
        x = [abs(q()) for _ in range(nv)]
        b_ub = [sum(a * v for a, v in zip(row, x)) + abs(q()) for row in a_ub]
        b_eq = [sum(a * v for a, v in zip(row, x)) for row in a_eq]
    else:
        b_ub = [q() for _ in range(nub)]
        b_eq = [q() for _ in range(neq)]
    if a_eq and rng.random() < 0.3:
        k = rng.choice([-2, -1, F(1, 2), 3])
        a_eq.append([k * v for v in a_eq[0]])
        b_eq.append(k * b_eq[0])
    if rng.random() < 0.7:
        a_ub.append([F(1)] * nv)
        b_ub.append(F(rng.randint(1, 12)))
    return c, a_ub, b_ub, a_eq, b_eq


def _reduction_lps(n, m, tables, adversaries):
    """Every solve_lp call of verify_reduction (the same_minimax LPs of
    optimal_nm_error, and of min_copy_distance at m >= 2)."""
    seen = []
    original = lp.solve_lp

    def record(*args):
        seen.append(args)
        return original(*args)

    lp.solve_lp = record
    try:
        for i in range(tables):
            table = nmext.sample_random_extractor(n, m, RngSeed.from_int(300 + 10 * n + i))
            nmext.verify_reduction(table, adversaries, RngSeed.from_int(400 + 10 * m + i))
    finally:
        lp.solve_lp = original
    return seen


class TestSimplex:
    def test_simple_lower_bound(self):
        v, x = solve_lp([F(1), F(1)], [[F(-1), F(-1)]], [F(-2)])
        assert v == 2 and x[0] + x[1] == 2

    def test_equality_constraint(self):
        v, x = solve_lp([F(2), F(3)], a_eq=[[F(1), F(1)]], b_eq=[F(1)])
        assert v == 2 and x == [F(1), F(0)]

    def test_mixed_constraints(self):
        # min x + 2y st x + y = 1, x <= 1/3
        v, x = solve_lp(
            [F(1), F(2)],
            a_ub=[[F(1), F(0)]],
            b_ub=[F(1, 3)],
            a_eq=[[F(1), F(1)]],
            b_eq=[F(1)],
        )
        assert v == F(1, 3) + 2 * F(2, 3)

    def test_infeasible_detected(self):
        with pytest.raises(LpInfeasible):
            solve_lp([F(1)], a_ub=[[F(1)]], b_ub=[F(-1)])

    def test_unbounded_detected(self):
        with pytest.raises(LpInfeasible):
            solve_lp([F(-1)], a_ub=[[F(0)]], b_ub=[F(1)])

    def test_against_scipy_on_random_instances(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = random.Random(0)
        for _ in range(25):
            nv, nc = rng.randint(2, 4), rng.randint(1, 3)
            c = [F(rng.randint(-4, 4)) for _ in range(nv)]
            a = [[F(rng.randint(-3, 3)) for _ in range(nv)] for _ in range(nc)]
            b = [F(rng.randint(1, 6)) for _ in range(nc)]
            # Keep instances bounded: add sum(x) <= 10.
            a.append([F(1)] * nv)
            b.append(F(10))
            v, _ = solve_lp(c, a, b)
            ref = scipy_opt.linprog(
                [float(x) for x in c],
                A_ub=[[float(v_) for v_ in row] for row in a],
                b_ub=[float(x) for x in b],
                bounds=[(0, None)] * nv,
                method="highs",
            )
            assert ref.success
            assert abs(float(v) - ref.fun) < 1e-9


class TestOracle:
    def test_random_lps_match_fraction_simplex(self):
        rng = random.Random(7)
        outcomes = set()
        for _ in range(200):
            args = _random_lp(rng)
            got, want = _solve_both(args)
            assert got == want, args
            outcomes.add(want if want is LpInfeasible else "optimal")
        assert outcomes == {LpInfeasible, "optimal"}

    @pytest.mark.parametrize("n, m, tables, adversaries", [
        (3, 1, 4, 4), (3, 2, 2, 1), (4, 1, 4, 3), (4, 2, 2, 1),
    ])
    def test_reduction_lps_match_fraction_simplex(self, n, m, tables, adversaries):
        instances = _reduction_lps(n, m, tables, adversaries)
        assert len(instances) >= tables * adversaries
        for args in instances:
            got, want = _solve_both(args)
            assert got == want

    def test_negative_drive_out_pivot(self):
        # -x0 - x1 = 0: phase 1 ends with that row's artificial basic at 0
        # and entry -1 under x0, so the drive-out step pivots on a negative
        # entry; phase 2 then still has to pivot on x1 and keep x2 at 3.
        args = ([F(2), F(-2), F(-1)], [[F(0), F(0), F(1)]], [F(3)],
                [[F(-1), F(-1), F(0)]], [F(0)])
        got, want = _solve_both(args)
        assert got == want == (F(-3), [F(0), F(0), F(3)])


def random_joint(rng, m=1):
    size = 1 << m
    cells = {
        (a, b): rng.randint(0, 9) for a in range(size) for b in range(size)
    }
    total = sum(cells.values()) or 1
    joint = {k: Fraction(v, total) for k, v in cells.items() if v}
    marg = {}
    for (a, _), p in joint.items():
        marg[a] = marg.get(a, Fraction(0)) + p
    return joint, marg


class TestCopyDistanceMinimizer:
    def test_closed_form_matches_lp_single_bit(self):
        rng = random.Random(1)
        for _ in range(120):
            joint, marg = random_joint(rng, 1)
            v1, d1 = min_copy_distance_m1(joint, marg)
            v2, d2 = min_copy_distance(joint, marg, [0, 1])
            assert v1 == v2
            assert copy_distance(joint, marg, d1, [0, 1]) == v1
            assert copy_distance(joint, marg, d2, [0, 1]) == v2

    def test_brute_force_grid_validation_single_bit(self):
        # Dense grid over the reference simplex: the exact optimum must
        # lower-bound every grid point and sit within one grid cell of the
        # grid minimum (the objective is 1-Lipschitz in L1 on references).
        rng = random.Random(2)
        steps = 60
        for _ in range(12):
            joint, marg = random_joint(rng, 1)
            v, _ = min_copy_distance_m1(joint, marg)
            grid_min = None
            for i in range(steps + 1):
                for j in range(steps + 1 - i):
                    d = {
                        0: Fraction(i, steps),
                        1: Fraction(j, steps),
                        SAME: Fraction(steps - i - j, steps),
                    }
                    val = copy_distance(joint, marg, d, [0, 1])
                    if grid_min is None or val < grid_min:
                        grid_min = val
            assert v <= grid_min
            assert grid_min - v <= Fraction(2, steps)

    def test_optimum_below_random_candidates_two_bits(self):
        rng = random.Random(3)
        outputs = [0, 1, 2, 3]
        for _ in range(8):
            joint, marg = random_joint(rng, 2)
            v, d = min_copy_distance(joint, marg, outputs)
            assert copy_distance(joint, marg, d, outputs) == v
            for _ in range(25):
                raw = [rng.randint(0, 9) for _ in range(5)]
                tot = sum(raw) or 1
                cand = {o: Fraction(raw[i], tot) for i, o in enumerate(outputs)}
                cand[SAME] = Fraction(raw[4], tot)
                assert copy_distance(joint, marg, cand, outputs) >= v

    def test_perfectly_explained_joints_have_zero_distance(self):
        # Independent product joints and identity joints are explainable.
        marg = {0: Fraction(1, 3), 1: Fraction(2, 3)}
        product = {
            (a, b): marg[a] * Fraction(1, 2) for a in (0, 1) for b in (0, 1)
        }
        assert min_copy_distance_m1(product, marg)[0] == 0
        diag = {(a, a): marg[a] for a in (0, 1)}
        v, d = min_copy_distance_m1(diag, marg)
        assert v == 0 and d[SAME] == 1

    def test_anticorrelated_joint_is_inexplicable(self):
        # Output always flips: the best reference still misses by 1/2.
        marg = {0: Fraction(1, 2), 1: Fraction(1, 2)}
        flip = {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}
        v, _ = min_copy_distance_m1(flip, marg)
        assert v == Fraction(1, 2)
