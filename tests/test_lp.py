import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import minimax_oracle
import split_state_oracle as oracle
from minimax_oracle import oracle_solve_lp, two_row_minimax
from nmcode import lp, nmext, schemes
from nmcode.concat import build_concat, toy_concat_plan
from nmcode.core import SAME, RngSeed
from nmcode.tamper import random_tamper
from nmcode.lp import LpInfeasible, min_copy_distance, min_copy_distance_m1, solve_lp


def F(a, b=1):
    return Fraction(a, b)


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


# Pairwise coprime: each row of a _row_scaled_lp draws its own.
_COPRIME_DENOMINATORS = (7, 9, 64, 125, 11, 13, 17, 19, 23)


def _row_scaled_lp(rng):
    """A small LP whose rows have pairwise-coprime denominators, one per
    row (1/7, 1/9, 1/64, ...), so that every row gets its own scale. Some
    right-hand sides are negative; some instances repeat an equality under
    another denominator, which leaves an artificial basic after phase 1,
    and some add a zero-rhs equality with nonpositive entries, whose
    artificial the drive-out step removes by a negative pivot."""
    nv, nub, neq = rng.randint(2, 5), rng.randint(0, 3), rng.randint(1, 2)
    dens = iter(rng.sample(_COPRIME_DENOMINATORS, nub + neq + 3))
    x = [F(rng.randint(0, 6), rng.choice([1, 2])) for _ in range(nv)]
    feasible = rng.random() < 0.7

    def constraint(slack):
        d = next(dens)
        row = [F(rng.randint(-9, 9), rng.choice([1, d, d])) for _ in range(nv)]
        if feasible:
            return row, sum(a * v for a, v in zip(row, x)) + F(slack * rng.randint(0, 4), d)
        return row, F(rng.randint(-9, 9), d)

    a_ub, b_ub = map(list, zip(*[constraint(1) for _ in range(nub)])) if nub else ([], [])
    a_eq, b_eq = map(list, zip(*[constraint(0) for _ in range(neq)]))
    if rng.random() < 0.3:
        k = F(rng.choice([-3, -2, 2, 5]), next(dens))
        a_eq.append([k * v for v in a_eq[0]])
        b_eq.append(k * b_eq[0])
    if rng.random() < 0.3:
        d = next(dens)
        a_eq.append([F(-rng.randint(0, 2), d) for _ in range(nv)])
        b_eq.append(F(0))
    if rng.random() < 0.8:
        d = next(dens)
        a_ub.append([F(1, d)] * nv)
        b_ub.append(F(rng.randint(4, 40), d))
    c = [F(rng.randint(-6, 6), rng.choice([1, 3, 5])) for _ in range(nv)]
    return c, a_ub, b_ub, a_eq, b_eq


def _reduction_lps(n, m, tables, adversaries):
    """Every distinct solve_lp call of the oracle reduction: the
    two_row_minimax LPs of the dict optimal_nm_error, and of the dict
    min_copy_distance at m >= 2."""
    seen = []
    original = lp.solve_lp

    def record(*args):
        if args not in seen:
            seen.append(args)
        return original(*args)

    lp.solve_lp = record
    try:
        for i in range(tables):
            table = nmext.sample_random_extractor(n, m, RngSeed.from_int(300 + 10 * n + i))
            oracle.reduction_rows(table, adversaries, RngSeed.from_int(400 + 10 * m + i))
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

    def test_row_scaled_lps_match_fraction_simplex(self, monkeypatch):
        # Beyond equal results, both solvers must pivot on the same
        # (row, column) sequence. The oracle pivots on a negative entry
        # only in its drive-out step.
        lp_pivot, oracle_pivot = lp._pivot, minimax_oracle._oracle_pivot
        paths, negative = ([], []), []

        def record_lp(tab, basis, row, col, *dets):
            # lp's column 0 is the rhs, so its column c is the oracle's c - 1.
            paths[0].append((row, col - 1))
            return lp_pivot(tab, basis, row, col, *dets)

        def record_oracle(tab, basis, row, col):
            paths[1].append((row, col))
            negative.append(tab[row][col] < 0)
            oracle_pivot(tab, basis, row, col)

        monkeypatch.setattr(lp, "_pivot", record_lp)
        monkeypatch.setattr(minimax_oracle, "_oracle_pivot", record_oracle)
        rng = random.Random(11)
        outcomes, negative_rhs = [], 0
        for _ in range(300):
            args = _row_scaled_lp(rng)
            got, want = _solve_both(args)
            assert got == want, args
            assert paths[0] == paths[1], args
            for path in paths:
                path.clear()
            outcomes.append(want if want is LpInfeasible else "optimal")
            negative_rhs += any(b < 0 for b in (*args[2], *args[4]))
        # Seed 11 gives 176 optimal and 124 infeasible instances, 257 with a
        # negative rhs and 22 negative drive-out pivots.
        assert outcomes.count("optimal") >= 100 and outcomes.count(LpInfeasible) >= 100
        assert negative_rhs >= 100 and sum(negative) >= 10

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


def _random_count_rows(rng, square=False, widest=7):
    """1-5 count rows over 2-`widest` outputs (a square matrix when
    `square`). Cells are 0 about half the time, so some rows have a small
    support and, when square, some no mass at all; past 4 outputs, others
    have more than 4 support cells."""
    outputs = rng.randint(2, widest)
    while True:
        rows = [[rng.randint(1, 9) if rng.random() < 0.5 else 0 for _ in range(outputs)]
                for _ in range(outputs if square else rng.randint(1, 5))]
        if square and any(map(any, rows)) or all(map(any, rows)):
            return rows


def _distance(row, d, own):
    """Statistical distance of row's shares from d with SAME on `own`."""
    size = sum(row)
    return sum(abs(F(c, size) - d[o] - (d[-1] if o == own else 0)) for o, c in enumerate(row)) / 2


class TestSameMinimax:
    """The row-subset dual against the SAME-marker LP in its two-inequality-
    rows form, on count rows (each row's shares sum to 1)."""

    def test_message_minimax_matches_two_row_oracle(self):
        rng = random.Random(4170)
        wide = 0
        for _ in range(200):
            rows = _random_count_rows(rng)
            messages = [rng.randrange(len(rows[0])) for _ in rows]
            groups = [[(o, 1, F(c, sum(row)), o == s) for o, c in enumerate(row)]
                      for row, s in zip(rows, messages)]
            value, d = lp.message_minimax(rows, [sum(row) for row in rows], messages)
            assert value == two_row_minimax(groups, len(rows[0]))[0]
            assert len(d) == len(rows[0]) + 1 and min(d) >= 0 and sum(d) == 1
            assert max(_distance(row, d, s) for row, s in zip(rows, messages)) == value
            wide += any(sum(map(bool, row)) > 4 for row in rows)
        assert wide >= 10

    def test_copy_distance_matches_two_row_oracle(self):
        rng = random.Random(4171)
        empty = wide = 0
        for _ in range(100):
            counts = np.array(_random_count_rows(rng, square=True))
            outputs = list(range(len(counts)))
            joint, marg = oracle_law(counts)
            value, d = min_copy_distance(counts)
            assert value == oracle.min_copy_distance(joint, marg, outputs)[0]
            assert min(d) >= 0 and sum(d) == 1
            assert oracle.copy_distance(joint, marg, oracle.as_reference(d), outputs) == value
            empty += not counts.sum(axis=1).all()
            wide += ((counts > 0).sum(axis=1) > 4).any()
        assert empty >= 10 and wide >= 10

    @pytest.mark.parametrize("minimax", ["message", "copy"])
    def test_minimaxes_match_the_fraction_simplex(self, monkeypatch, minimax):
        # two_row_minimax through oracle_solve_lp, which shares no pivot or
        # simplex code with lp, in place of lp.solve_lp.
        calls = []
        monkeypatch.setattr(lp, "solve_lp", lambda *args: calls.append(args) or oracle_solve_lp(*args))
        rng = random.Random(4910)
        for _ in range(30):
            if minimax == "message":
                rows = _random_count_rows(rng, widest=4)
                messages = [rng.randrange(len(rows[0])) for _ in rows]
                groups = [[(o, 1, F(c, sum(row)), o == s) for o, c in enumerate(row)]
                          for row, s in zip(rows, messages)]
                value, _ = lp.message_minimax(rows, [sum(row) for row in rows], messages)
                assert value == two_row_minimax(groups, len(rows[0]))[0]
            else:
                counts = np.array(_random_count_rows(rng, square=True, widest=4))
                joint, marg = oracle_law(counts)
                value, _ = min_copy_distance(counts)
                assert value == oracle.min_copy_distance(joint, marg, range(len(counts)))[0]
        assert len(calls) == 30

    def test_message_minimax_needs_a_row(self):
        with pytest.raises(ValueError, match="needs at least one row"):
            lp.message_minimax([], [], [])

    def test_sizes_must_be_row_sums(self):
        with pytest.raises(ValueError, match="is not its positive sum"):
            lp.message_minimax([[1, 2], [3, 0]], [3, 4], [0, 1])
        with pytest.raises(ValueError, match="at least one cell"):
            min_copy_distance(np.zeros((2, 2), dtype=np.int64))

    @pytest.mark.parametrize("m", [2, 3])
    def test_identity_and_constant_adversaries_terminate(self, m):
        # Fully degenerate LPs: every row is one point mass, so the optimum
        # is 0 and most pivots make no progress.
        table = nmext.sample_random_extractor(3, m, RngSeed.from_int(4172 + m))
        full = nmext.FlatSourcePair.full(3)
        for f1, f2 in [(list(range(8)), None), ([5] * 8, [2] * 8), ([0] * 8, [7] * 8)]:
            counts = nmext.joint_output_dist(table, full, f1, f2)
            value, d = min_copy_distance(counts)
            joint, marg = oracle_law(counts)
            assert value == 0 == oracle.copy_distance(joint, marg, oracle.as_reference(d), list(range(1 << m)))
            value, d = lp.message_minimax(counts.tolist(), counts.sum(axis=1).tolist(), range(1 << m))
            assert value == 0
            assert all(_distance(row, d, s) == 0 for s, row in enumerate(counts.tolist()))

    @pytest.mark.parametrize("m, rows", [
        (3, [("21614461/107659776", "109/406"), ("3942625/23814144", "93/476")]),
        (4, [("6204157/16773120", "142/315"), ("1229583/3540992", "192917/444600")]),
    ])
    def test_reduction_rows_at_n4_pinned(self, m, rows):
        # The values of the cell formulation that the dual replaced.
        table = nmext.sample_random_extractor(4, m, RngSeed.from_int(4400 + m))
        report = nmext.verify_reduction(table, 2, RngSeed.from_int(4410 + m))
        assert [(r.extractor_error, r.code_error) for r in report.rows] == [
            (Fraction(a), Fraction(b)) for a, b in rows
        ]


def _pinned_count_matrices():
    """(output, tampered output) counts of 200 seeded (table, adversary)
    pairs at n=4, m=2 and 50 at n=4, m=3."""
    full = nmext.FlatSourcePair.full(4)
    for m, tables, per_table in ((2, 10, 20), (3, 5, 10)):
        for t in range(tables):
            table = nmext.sample_random_extractor(4, m, RngSeed.from_int(4700 + 10 * m + t))
            rng = random.Random(4800 + 10 * m + t)
            for _ in range(per_table):
                f1 = [rng.randrange(16) for _ in range(16)]
                f2 = [rng.randrange(16) for _ in range(16)]
                yield nmext.joint_output_dist(table, full, f1, f2)


class TestPivotPath:
    """SHA-256 digests of (value, d), taken from the sparse-row master that
    the dense one replaced. Where the optimal d is not unique, d names the
    vertex that the pivot path ends at, so a changed pivot rule fails a
    digest even when it keeps every value."""

    def test_split_state_minimaxes_pinned(self):
        digest = hashlib.sha256()
        for counts in _pinned_count_matrices():
            copy = min_copy_distance(counts)
            code = lp.message_minimax(counts.tolist(), counts.sum(axis=1).tolist(), range(len(counts)))
            for value, d in (copy, code):
                digest.update(" ".join(map(str, (value, *d))).encode() + b"\n")
        assert digest.hexdigest() == "ef32ee4c49199208b3a1ca5653ce2577492283778a3ef82515c59fad09405a90"

    def test_bland_rule_from_the_first_pivot_keeps_every_value(self, monkeypatch):
        # The 200 m=2 instances above under Bland's rule throughout: the
        # values must hold, though the vertex d may move.
        instances = list(itertools.islice(_pinned_count_matrices(), 200))

        def values():
            return [(min_copy_distance(counts)[0],
                     lp.message_minimax(counts.tolist(), counts.sum(axis=1).tolist(), range(len(counts)))[0])
                    for counts in instances]

        default, simplex, patience = values(), lp._simplex, []

        def bland(tab, basis, det, dets, given):
            patience.append(given)
            return simplex(tab, basis, det, dets, 0)

        monkeypatch.setattr(lp, "_simplex", bland)
        assert values() == default
        assert len(patience) >= 400 and min(patience) > 0

    def test_optimal_nm_error_on_the_toy_plan_pinned(self):
        code = build_concat(toy_concat_plan(t_block=2), RngSeed.from_int(4302))
        profiles = ((0.92, 0.0, 0.08), (0.5, 0.25, 0.25), (0.0, 0.5, 0.5))
        rng = random.Random(4810)
        digest = hashlib.sha256()
        for i in range(4):
            value, ref = schemes.optimal_nm_error(code, random_tamper(code.block_bits, profiles[i % 3], rng))
            cells = sorted(ref.items(), key=lambda item: str(item[0]))
            digest.update(" ".join([str(value), *(f"{sym}:{p}" for sym, p in cells)]).encode() + b"\n")
        assert digest.hexdigest() == "6f9caa651de4e5087bb93c06c69da657a69e418b3764187462866e5c46363d82"


@st.composite
def _count_rows(draw):
    """1-6 nonzero count rows over 2-8 outputs, each with its own output."""
    outputs = draw(st.integers(2, 8))
    cell = st.one_of(st.just(0), st.integers(1, 9))
    rows = draw(st.lists(st.lists(cell, min_size=outputs, max_size=outputs).filter(any), min_size=1, max_size=6))
    own = draw(st.lists(st.integers(0, outputs - 1), min_size=len(rows), max_size=len(rows)))
    return outputs, rows, own


@given(_count_rows(), st.booleans())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_dense_master_matches_two_row_oracle(instance, per_row):
    """Both budget shapes of the dense master against the two-row oracle:
    one budget (the worst row) and one budget per row (the rows' weighted
    sum, as in `min_copy_distance`). d sums to 1 and attains the value."""
    outputs, rows, own = instance
    sizes = [sum(row) for row in rows]
    if per_row:
        total = sum(sizes)
        value, d = lp._same_dual(outputs, rows, own, range(len(rows)), sizes)
        value /= total
        group = [(o, F(size, total), F(c, total), o == s)
                 for row, size, s in zip(rows, sizes, own) for o, c in enumerate(row)]
        assert value == two_row_minimax([group], outputs)[0]
        attained = sum(F(size, total) * _distance(row, d, s) for row, size, s in zip(rows, sizes, own))
    else:
        value, d = lp.message_minimax(rows, sizes, own)
        groups = [[(o, 1, F(c, size), o == s) for o, c in enumerate(row)] for row, size, s in zip(rows, sizes, own)]
        assert value == two_row_minimax(groups, outputs)[0]
        attained = max(_distance(row, d, s) for row, s in zip(rows, own))
    assert len(d) == outputs + 1 and min(d) >= 0 and sum(d) == 1
    assert attained == value


def random_counts(rng, m=1):
    """A (2^m, 2^m) count matrix with at least one nonzero cell."""
    size = 1 << m
    while True:
        counts = np.array([[rng.randint(0, 9) for _ in range(size)] for _ in range(size)])
        if counts.any():
            return counts


def oracle_law(counts):
    joint = oracle.joint_from_counts(counts)
    return joint, oracle.first_marginal(joint)


def closed_form(counts):
    """`min_copy_distance_m1` on one 2 x 2 count matrix, as a Fraction."""
    (c00, c01), (c10, c11) = counts
    num, den = min_copy_distance_m1(c01, c11, c00 + c01, c10 + c11, counts.sum())
    return Fraction(int(num), int(den))


class TestCopyDistanceMinimizer:
    def test_closed_form_matches_lp_single_bit(self):
        # Elementwise over one batch of 120 matrices, as relaxed_error_sweep
        # calls it, against the LP and the Fraction-dict closed form.
        rng = random.Random(1)
        batch = np.array([random_counts(rng, 1) for _ in range(120)])
        c01, c11 = batch[:, 0, 1], batch[:, 1, 1]
        r0, r1 = batch[:, 0].sum(axis=1), batch[:, 1].sum(axis=1)
        nums, dens = min_copy_distance_m1(c01, c11, r0, r1, r0 + r1)
        for counts, num, den in zip(batch, nums, dens):
            joint, marg = oracle_law(counts)
            v, d = min_copy_distance(counts)
            assert Fraction(int(num), int(den)) == v == oracle.min_copy_distance_m1(joint, marg)[0]
            assert oracle.copy_distance(joint, marg, oracle.as_reference(d), [0, 1]) == v

    def test_closed_form_on_ints_equals_arrays_and_oracle(self):
        # Every 2 x 2 count matrix of at most 12 cells, as Python ints one
        # matrix at a time and as one batch of int64 arrays.
        grid = [c for c in itertools.product(range(13), repeat=4) if sum(c) <= 12]
        c00, c01, c10, c11 = np.array(grid, dtype=np.int64).T
        nums, dens = min_copy_distance_m1(c01, c11, c00 + c01, c10 + c11, c00 + c01 + c10 + c11)
        assert nums.dtype == dens.dtype == np.int64
        for (a, b, c, d), num_a, den_a in zip(grid, nums.tolist(), dens.tolist()):
            num, den = min_copy_distance_m1(b, d, a + b, c + d, a + b + c + d)
            assert type(num) is int and type(den) is int
            assert (num, den) == (num_a, den_a)
            joint, marg = oracle_law(np.array([[a, b], [c, d]]))
            assert Fraction(num, den) == oracle.min_copy_distance_m1(joint, marg)[0]

    def test_brute_force_grid_validation_single_bit(self):
        # Dense grid over the reference simplex: the exact optimum must
        # lower-bound every grid point and sit within one grid cell of the
        # grid minimum (the objective is 1-Lipschitz in L1 on references).
        rng = random.Random(2)
        steps = 60
        for _ in range(12):
            counts = random_counts(rng, 1)
            joint, marg = oracle_law(counts)
            v = closed_form(counts)
            grid_min = None
            for i in range(steps + 1):
                for j in range(steps + 1 - i):
                    d = {
                        0: Fraction(i, steps),
                        1: Fraction(j, steps),
                        SAME: Fraction(steps - i - j, steps),
                    }
                    val = oracle.copy_distance(joint, marg, d, [0, 1])
                    if grid_min is None or val < grid_min:
                        grid_min = val
            assert v <= grid_min
            assert grid_min - v <= Fraction(2, steps)

    def test_optimum_below_random_candidates_two_bits(self):
        rng = random.Random(3)
        outputs = [0, 1, 2, 3]
        for _ in range(8):
            counts = random_counts(rng, 2)
            joint, marg = oracle_law(counts)
            v, d = min_copy_distance(counts)
            assert v == oracle.min_copy_distance(joint, marg, outputs)[0]
            assert oracle.copy_distance(joint, marg, oracle.as_reference(d), outputs) == v
            for _ in range(25):
                raw = [rng.randint(0, 9) for _ in range(5)]
                tot = sum(raw) or 1
                cand = {o: Fraction(raw[i], tot) for i, o in enumerate(outputs)}
                cand[SAME] = Fraction(raw[4], tot)
                assert oracle.copy_distance(joint, marg, cand, outputs) >= v

    def test_perfectly_explained_joints_have_zero_distance(self):
        # Independent product joints and identity joints are explainable.
        product = np.array([[1, 1], [2, 2]])
        assert closed_form(product) == min_copy_distance(product)[0] == 0
        diag = np.array([[1, 0], [0, 2]])
        v, d = min_copy_distance(diag)
        assert v == closed_form(diag) == 0 and d[-1] == 1

    def test_anticorrelated_joint_is_inexplicable(self):
        # Output always flips: the best reference still misses by 1/2.
        flip = np.array([[0, 1], [1, 0]])
        assert closed_form(flip) == min_copy_distance(flip)[0] == Fraction(1, 2)

    @pytest.mark.parametrize("mirror", [False, True])
    def test_closed_form_exact_at_the_table_guard(self, mirror):
        # n = 8 full sources: 2^16 cells, r0 = r1 = 2^15. Output 0 always
        # tampers to 1 and output 1 to 0 (cross-products reach 2^61), or,
        # mirrored, every output is kept.
        half = np.int64(1 << 15)
        counts = np.array([[half, 0], [0, half]]) if mirror else np.array([[0, half], [half, 0]])
        joint, marg = oracle_law(counts)
        want = oracle.min_copy_distance_m1(joint, marg)[0]
        assert closed_form(counts) == want == (0 if mirror else Fraction(1, 2))
