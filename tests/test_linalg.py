"""Exact rational linear algebra and LP layer."""

import itertools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import coapprox as ca
import coapprox.linalg
from coapprox.linalg import (
    ONE,
    ZERO,
    add,
    affine_rank,
    canonical_sorted,
    dot,
    is_zero,
    neg,
    scale,
    sub,
    unit,
    zeros,
)

from conftest import independent_basis, rational, rational_point, seeded

F = Fraction

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


class TestFr:
    def test_string_form(self):
        assert ca.fr("3/4") == F(3, 4)
        assert ca.fr("-7") == F(-7)

    def test_int_and_fraction_pass_through(self):
        assert ca.fr(2) == F(2)
        assert ca.fr(F(1, 3)) == F(1, 3)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            ca.fr(0.5)

    def test_bool_rejected(self):
        # bool is an int subclass, still refused: True is not a rational literal
        with pytest.raises(TypeError):
            ca.fr(True)

    @pytest.mark.parametrize("text", ["1e10000000", "1e-10000000", "-3E2", "1.5e0"])
    def test_exponent_string_rejected_at_once(self, text):
        # Fraction would build 10**exp exactly: seconds of work for 1e7
        start = time.perf_counter()
        with pytest.raises(ValueError, match="p/q"):
            ca.fr(text)
        assert time.perf_counter() - start < 1

    def test_decimal_string_still_exact(self):
        assert ca.fr("1.25") == F(5, 4)


class TestVectorOps:
    def test_basics(self):
        v = ca.vec((1, "1/2", -3))
        w = ca.vec((0, 2, 1))
        assert dot(v, w) == F(-2)
        assert add(v, w) == (F(1), F(5, 2), F(-2))
        assert sub(v, w) == (F(1), F(-3, 2), F(-4))
        assert scale(v, F(2)) == (F(2), F(1), F(-6))
        assert neg(v) == (F(-1), F(-1, 2), F(3))
        assert is_zero(zeros(3)) and not is_zero(v)
        assert unit(3, 1) == (F(0), F(1), F(0))


class TestRank:
    def test_empty_matrix(self):
        assert ca.rank(()) == 0

    def test_identity(self):
        assert ca.rank(ca.mat([(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == 3

    def test_dependent_rows(self):
        assert ca.rank(ca.mat([(1, 2), (2, 4)])) == 1

    def test_wide(self):
        assert ca.rank(ca.mat([(1, 1, 2), (2, 2, 1)])) == 2

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_row_scaling(self, rows):
        m = ca.mat(rows)
        scaled = tuple(scale(r, F(3)) for r in m)
        assert ca.rank(m) == ca.rank(scaled)

    def test_invariant_under_permutation(self):
        rng = seeded(3)
        for _ in range(20):
            rows = [rational_point(rng, 4) for _ in range(3)]
            m = ca.mat(rows)
            assert ca.rank(m) == ca.rank(ca.mat(rows[::-1]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: ca.rank([(1, 0), (0, 1, 1)]),
        lambda: ca.solve_linear([(1, 0), (0, 1, 1)], (1, 1)),
        # zip in the start-cone transposition would cut the long point to (1, 1)
        lambda: ca.conv_facets([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1, 1)]),
    ],
    ids=["rank", "solve_linear", "conv_facets"],
)
def test_ragged_rows_are_refused(call):
    with pytest.raises(ValueError, match="unequal lengths"):
        call()


class TestSolveLinear:
    def test_unique(self):
        sol = ca.solve_linear(ca.mat([(1, 1), (1, -1)]), ca.vec((2, 0)))
        assert sol.kind == "unique"
        assert sol.particular == (F(1), F(1))

    def test_affine(self):
        sol = ca.solve_linear(ca.mat([(1, 1)]), ca.vec((2,)))
        assert sol.kind == "affine"
        a = ca.mat([(1, 1)])
        # particular solves the system, nullspace directions stay in the kernel
        assert dot(a[0], sol.particular) == F(2)
        for d in sol.nullspace:
            assert dot(a[0], d) == 0

    def test_inconsistent(self):
        sol = ca.solve_linear(ca.mat([(1, 1), (1, 1)]), ca.vec((2, 3)))
        assert sol.kind == "inconsistent"
        assert sol.particular is None

    @given(
        st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=2, max_size=3),
        st.lists(rationals, min_size=3, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_residual_is_zero(self, rows, xs):
        a = ca.mat(rows)
        x = ca.vec(xs)
        b = tuple(dot(r, x) for r in a)
        sol = ca.solve_linear(a, b)
        assert sol.kind in ("unique", "affine")
        for r, rhs in zip(a, b):
            assert dot(r, sol.particular) == rhs


class TestNullspace:
    def test_dimension(self):
        a = ca.mat([(1, 1, 0), (0, 0, 1)])
        basis = ca.solve_linear(a, zeros(len(a))).nullspace
        assert len(basis) == 1
        for v in basis:
            for row in a:
                assert dot(row, v) == 0

    def test_full_rank_square(self):
        a = ca.mat([(1, 0), (0, 1)])
        assert ca.solve_linear(a, zeros(len(a))).nullspace == ()


class TestOneElimination:
    """rank and solve_linear share one fraction-free Gauss-Jordan elimination.

    The two separate eliminations they replaced (Bareiss forward elimination
    for rank, Gauss-Jordan over Fractions for solve_linear) are kept below as
    oracles; the reduced row echelon form is unique, so every answer must be
    the same.
    """

    def test_agrees_with_the_separate_eliminations(self):
        rng = seeded(41)
        seen = set()
        for _ in range(2400):
            a, b = _random_system(rng)
            sol = ca.solve_linear(a, b)
            want = _fraction_solve(a, b)
            assert ca.rank(a) == _bareiss_rank(a)
            assert (sol.kind, sol.particular, sol.nullspace) == (
                want.kind, want.particular, want.nullspace
            )
            nrows, ncols = len(a), len(a[0])
            seen.add(sol.kind)
            seen.add("wide" if nrows < ncols else "tall" if nrows > ncols else "square")
            if ca.rank(a) < min(nrows, ncols):
                seen.add("deficient")
            if any(is_zero(row) for row in a):
                seen.add("zero row")
            if any(is_zero(col) for col in zip(*a)):
                seen.add("zero column")
        assert seen == {
            "unique", "affine", "inconsistent", "wide", "tall", "square",
            "deficient", "zero row", "zero column",
        }

    def test_right_hand_side_holds_d_times_the_solution(self):
        # the pivot columns hold the swapped-out slacks; the rhs over d is the solution
        rows = [[2, 1, -1, 8], [-3, -1, 2, -11], [-2, 1, 2, -3]]
        pivots, d = coapprox.linalg._reduce(rows, 3)
        assert pivots == [0, 1, 2]
        assert all(type(x) is int for row in rows for x in row)
        assert [F(row[3], d) for row in rows] == [2, 3, -1]

    def test_only_int_rows_are_eliminated(self):
        # rank and solve_linear clear their rows first; the elimination itself
        # refuses anything else, as the grown tableau does
        for entry in (F(1), F(1, 2), True, "1"):
            with pytest.raises(TypeError):
                coapprox.linalg._reduce([[1, 0], [entry, 1]], 2)


def _random_system(rng):
    """A rational system with 1-7 rows and columns, often degenerate."""
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)

    def entry():
        return F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else F(0)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    shape = rng.random()
    if shape < 0.3 and nrows > 1:
        k, i, j = (rng.randrange(nrows) for _ in range(3))
        c = rng.choice((F(-2), F(1, 2), F(3)))
        rows[k] = [c * x + y for x, y in zip(rows[i], rows[j])]
    elif shape < 0.4:
        rows[rng.randrange(nrows)] = [F(0)] * ncols
    elif shape < 0.5:
        col = rng.randrange(ncols)
        for row in rows:
            row[col] = F(0)
    a = tuple(tuple(row) for row in rows)
    if rng.random() < 0.5:
        x = [entry() for _ in range(ncols)]
        b = tuple(dot(row, x) for row in a)
    else:
        b = tuple(entry() for _ in range(nrows))
    return a, b


def _bareiss_rank(m) -> int:
    """The former rank: Bareiss forward elimination over cleared integer rows."""
    if not m or not m[0]:
        return 0
    rows = []
    for row in m:
        mult = math.lcm(*(x.denominator for x in row)) if row else 1
        rows.append([int(x * mult) for x in row])
    nrows, ncols = len(rows), len(rows[0])
    r = 0
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nrows):
            for j in range(col + 1, ncols):
                rows[i][j] = (rows[r][col] * rows[i][j] - rows[i][col] * rows[r][j]) // prev
            rows[i][col] = 0
        prev = rows[r][col]
        r += 1
        if r == nrows:
            break
    return r


def _fraction_solve(a, b):
    """The former solve_linear: Gauss-Jordan reduction over Fractions."""
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    aug = [list(row) + [rhs] for row, rhs in zip(a, b, strict=True)]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    if any(aug[i][ncols] != 0 for i in range(r, nrows)):
        return ca.LinearSolution(kind="inconsistent")
    particular = [F(0)] * ncols
    for i, col in enumerate(pivots):
        particular[col] = aug[i][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return ca.LinearSolution(kind="unique", particular=tuple(particular))
    basis = []
    for f in free:
        v = [F(0)] * ncols
        v[f] = F(1)
        for i, col in enumerate(pivots):
            v[col] = -aug[i][f]
        basis.append(tuple(v))
    return ca.LinearSolution(kind="affine", particular=tuple(particular), nullspace=tuple(basis))


class TestLp:
    def test_box_maximum(self):
        prob = ca.lp(
            (F(1), F(1)),
            (((F(1), F(0)), "<=", F(1)), ((F(0), F(1)), "<=", F(1))),
        )
        res = ca.lp_solve(prob, "max")
        assert res.status == "optimal"
        assert res.value == F(2)
        assert res.point == (F(1), F(1))

    def test_minimum(self):
        res = ca.lp_solve(ca.lp((F(1),), (((F(1),), ">=", F(3)),)), "min")
        assert res.status == "optimal" and res.value == F(3)

    def test_unbounded(self):
        res = ca.lp_solve(ca.lp((F(1),), (((F(1),), ">=", F(3)),)), "max")
        assert res.status == "unbounded"

    def test_infeasible(self):
        prob = ca.lp(
            (F(1), F(1)),
            (((F(1), F(0)), ">=", F(1)), ((F(-1), F(0)), ">=", F(1))),
        )
        assert ca.lp_solve(prob, "max").status == "infeasible"

    def test_equality_constraint(self):
        prob = ca.lp(
            (F(0), F(1)),
            (((F(1), F(1)), "==", F(1)), ((F(0), F(1)), "<=", F(10))),
        )
        res = ca.lp_solve(prob, "max")
        assert res.status == "optimal"
        assert res.point[0] + res.point[1] == F(1)
        assert res.value == F(10)

    def test_optimum_is_exact(self):
        # thirds stay thirds, no rounding anywhere
        prob = ca.lp(
            (F(1),),
            (((F(3),), "<=", F(1)),),
        )
        res = ca.lp_solve(prob, "max")
        assert res.value == F(1, 3)

    def test_rows_violated_at_the_origin_match_vertex_enumeration(self):
        # several ">=" rows with positive right-hand side, all violated at the origin
        rng = seeded(13)
        outcomes = set()
        for _ in range(60):
            cons = [(unit(2, i) if s > 0 else neg(unit(2, i)), "<=", F(4)) for i in range(2) for s in (1, -1)]
            for _ in range(rng.randint(2, 4)):
                cons.append((rational_point(rng, 2, -3, 3, 2), ">=", F(rng.randint(1, 4))))
            if rng.random() < 0.3:
                cons.append((rational_point(rng, 2, -3, 3, 1), "==", F(rng.randint(-2, 2))))
            obj = rational_point(rng, 2, -3, 3, 2)
            res = ca.lp_solve(ca.lp(obj, cons), "max")
            best = _best_vertex(obj, cons)
            outcomes.add(res.status)
            if best is None:
                assert res.status == "infeasible"
            else:
                assert res.status == "optimal" and res.value == best
                assert _satisfies(cons, res.point)
        assert outcomes == {"optimal", "infeasible"}

    def test_solution_satisfies_all_constraints(self):
        rng = seeded(7)
        count = 0
        while count < 25:
            n = rng.randint(2, 4)
            rows = [rational_point(rng, n, -3, 3, 2) for _ in range(rng.randint(2, 5))]
            cons = tuple((r, "<=", F(rng.randint(1, 5))) for r in rows)
            # box keeps everything bounded
            box = tuple(
                c
                for i in range(n)
                for c in ((unit(n, i), "<=", F(9)), (neg(unit(n, i)), "<=", F(9)))
            )
            obj = rational_point(rng, n, -3, 3, 2)
            res = ca.lp_solve(ca.lp(obj, cons + box), "max")
            assert res.status == "optimal"
            for lhs, rel, rhs in cons + box:
                assert rel == "<="
                assert dot(lhs, res.point) <= rhs
            count += 1

    def test_an_unknown_relation_is_refused(self):
        # "<" was once read as ">=", so max x under x < 1 came back unbounded
        with pytest.raises(ValueError, match="relation"):
            ca.LpProblem(objective=(F(1),), constraints=(((F(1),), "<", F(1)),))
        with pytest.raises(ValueError, match="relation"):
            ca.lp((1,), (((1,), "=", 1),))

    def test_a_row_longer_than_the_objective_is_refused(self):
        # its second coefficient once landed in the slack column
        with pytest.raises(ValueError, match="constraint arity"):
            ca.LpProblem(objective=(F(1),), constraints=(((F(1), F(1)), "<=", F(1)),))
        with pytest.raises(ValueError, match="constraint arity"):
            ca.lp((1, 1), (((1,), "<=", 1),))

    def test_one_bound_pair_per_variable(self):
        # a second pair on a one-variable problem was once ignored
        with pytest.raises(ValueError, match="bounds arity"):
            ca.LpProblem(objective=(F(1),), constraints=(), bounds=((F(0), F(1)), (F(0), F(2))))
        with pytest.raises(ValueError, match="bounds arity"):
            ca.lp((1, 1), (), bounds=((0, 1),))


class TestIntegerSimplex:
    """lp_solve grows its constraints into one integer tableau, then optimizes it.

    The former two-phase simplex over a Fraction tableau is kept below as the
    oracle.  Its batch phase one is replaced by the growing system's, not
    loosened, and a different phase one may stop at another optimal vertex:
    status and value must equal the oracle's, and every optimal point is
    rechecked exactly, so where the optimum is unique it is the oracle's point.
    """

    def test_agrees_with_the_fraction_simplex(self):
        rng = seeded(53)
        statuses = set()
        for _ in range(5000):
            statuses.add(_agrees_with_the_oracle(*_random_lp(rng)).status)
        assert statuses == {"optimal", "infeasible", "unbounded"}

    def test_beale_cycling_example_reaches_its_optimum(self):
        # Beale (1955): the textbook rule without Bland's tie-breaks cycles here
        prob = ca.lp(
            (F(-3, 4), 20, F(-1, 2), 6),
            (
                ((F(1, 4), -8, -1, 9), "<=", 0),
                ((F(1, 2), -12, F(-1, 2), 3), "<=", 0),
                ((0, 0, 1, 0), "<=", 1),
            ),
            bounds=((0, None),) * 4,
        )
        res = ca.lp_solve(prob, "min")
        assert res.status == "optimal"
        assert res.value == F(-5, 4)
        assert res.point == (F(1), F(0), F(1), F(0))

    def test_every_tableau_row_holds_only_ints(self, monkeypatch):
        seen = []

        def spying(real):
            def spy(rows, r, col, prev):
                p = real(rows, r, col, prev)
                seen.append(len(rows))
                assert type(prev) is int and type(p) is int and p != 0
                assert all(type(x) is int for row in rows for x in row)
                return p

            return spy

        monkeypatch.setattr(coapprox.linalg, "_pivot", spying(coapprox.linalg._pivot))
        rng = seeded(59)
        for _ in range(300):
            _agrees_with_the_oracle(*_random_lp(rng))
        assert len(seen) > 300

    def test_a_sign_flip_in_the_pivot_fails_fast(self):
        # _pivot writing f instead of -f into column s once made the simplex
        # run forever; its invariant checks turn that into a Discrepancy, and
        # the timeout fails the suite rather than stalling it should one regress
        here = str(Path(__file__).resolve().parent)
        src = str(Path(ca.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, here, os.environ.get("PYTHONPATH")))
        )}
        proc = subprocess.run(
            [sys.executable, "-c", _SIGN_FLIP_SCRIPT],
            capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        mutated, beale, caught, total = proc.stdout.split()
        assert (mutated, beale) == ("True", "Discrepancy")
        assert 0 < int(caught) <= int(total) == 300


_SIGN_FLIP_SCRIPT = """
import inspect

import coapprox as ca
import coapprox.linalg as la
from conftest import seeded
from test_linalg import _random_lp

source = inspect.getsource(la._pivot)
print("rows[i][s] = -f" in source)
exec(source.replace("rows[i][s] = -f", "rows[i][s] = f"), vars(la))
F = ca.fr
beale = ca.lp(
    (F("-3/4"), 20, F("-1/2"), 6),
    (
        ((F("1/4"), -8, -1, 9), "<=", 0),
        ((F("1/2"), -12, F("-1/2"), 3), "<=", 0),
        ((0, 0, 1, 0), "<=", 1),
    ),
    bounds=((0, None),) * 4,
)
try:
    ca.lp_solve(beale, "min")
except ca.Discrepancy:
    print("Discrepancy")
else:
    print("answered")
rng, caught = seeded(53), 0
for _ in range(300):
    try:
        ca.lp_solve(*_random_lp(rng))
    except ca.Discrepancy:
        caught += 1
print(caught, 300)
"""


def _agrees_with_the_oracle(problem, sense):
    """lp_solve's status and value are the oracle's; its optimal point is rechecked."""
    res = ca.lp_solve(problem, sense)
    want = _fraction_lp_solve(problem, sense)
    assert (res.status, res.value) == (want.status, want.value)
    if res.status != "optimal":
        assert res.point is None
        return res
    assert _satisfies(problem.constraints, res.point)
    for x, (lo, hi) in zip(res.point, problem.bounds or [(None, None)] * len(res.point)):
        assert (lo is None or lo <= x) and (hi is None or x <= hi)
    assert dot(problem.objective, res.point) == res.value
    return res


def _random_lp(rng):
    """A rational LP with 1-5 variables and 1-8 mixed rows, sometimes bounded."""
    nvars = rng.randint(1, 5)

    def entry():
        return F(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.75 else F(0)

    def row():
        return tuple(entry() for _ in range(nvars))

    objective = zeros(nvars) if rng.random() < 0.3 else row()
    constraints = tuple(
        (row(), rng.choice(("<=", ">=", "==")), entry()) for _ in range(rng.randint(1, 8))
    )
    bounds = None
    if rng.random() < 0.3:
        bounds = tuple(
            (rng.choice((None, entry())), rng.choice((None, entry()))) for _ in range(nvars)
        )
    problem = ca.LpProblem(objective=objective, constraints=constraints, bounds=bounds)
    return problem, rng.choice(("max", "min"))


def _fraction_pivot(tableau, basis, row, col, cost):
    """The former pivot over a Fraction tableau, cost row kept apart."""
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    prow = tableau[row]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            f = r[col]
            tableau[i] = [x - f * y for x, y in zip(r, prow)]
    if cost[col] != 0:
        f = cost[col]
        for j, y in enumerate(prow):
            cost[j] -= f * y
    basis[row] = col


def _fraction_run_simplex(tableau, basis, cost):
    """Minimize over the tableau in place; returns "optimal" or "unbounded".

    Bland's rule both for the entering column (lowest index with negative
    reduced cost) and for ratio-test ties (lowest basis index), which rules
    out cycling.
    """
    width = len(cost) - 1
    for row, bc in enumerate(basis):
        if cost[bc] != 0:
            f = cost[bc]
            for j, y in enumerate(tableau[row]):
                cost[j] -= f * y
    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for i, r in enumerate(tableau):
            if r[enter] > 0:
                ratio = r[-1] / r[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded"
        _fraction_pivot(tableau, basis, leave, enter, cost)


def _fraction_lp_solve(problem, sense="max"):
    """The former lp_solve: the same two phases over a Fraction tableau."""
    if sense not in ("max", "min"):
        raise ValueError(f"unknown sense {sense!r}")
    nvars = len(problem.objective)
    cons = list(problem.constraints)
    if problem.bounds is not None:
        for j, (lo, hi) in enumerate(problem.bounds):
            if lo is not None:
                cons.append((unit(nvars, j), ">=", lo))
            if hi is not None:
                cons.append((unit(nvars, j), "<=", hi))

    ineq_rows = [i for i, (_, rel, _) in enumerate(cons) if rel != "=="]
    slack_col = {row: 2 * nvars + k for k, row in enumerate(ineq_rows)}
    nstruct = 2 * nvars + len(ineq_rows)

    rows = []
    for i, (coeffs, rel, rhs) in enumerate(cons):
        row = [ZERO] * nstruct
        for j, c in enumerate(coeffs):
            row[j] = c
            row[nvars + j] = -c
        if rel != "==":
            row[slack_col[i]] = ONE if rel == "<=" else -ONE
        row.append(rhs)
        if rhs < 0:
            row = [-x for x in row]
        rows.append(row)

    # The shared artificial starts on the surplus row with the largest
    # right-hand side; subtracting every other surplus row from that one
    # leaves its slack basic at a nonnegative value (one pivot, not one each).
    surplus = [i for i, col in slack_col.items() if rows[i][col] == -ONE]
    top = max(surplus, key=lambda i: rows[i][-1], default=None)
    for i in surplus:
        if i != top:
            rows[i] = [a - b for a, b in zip(rows[top], rows[i])]
    basis = []
    art_cols = []
    for i, (_, rel, _) in enumerate(cons):
        col = slack_col.get(i)
        if col is not None and rows[i][col] == ONE:
            basis.append(col)
        else:
            art = nstruct + len(art_cols)
            art_cols.append(art)
            basis.append(art)

    width = nstruct + len(art_cols)
    for row in rows:
        rhs = row.pop()
        row.extend(ZERO for _ in range(width - len(row)))
        row.append(rhs)
    for i, bc in enumerate(basis):
        if bc >= nstruct:
            rows[i][bc] = ONE

    if art_cols:
        cost = [ZERO] * width + [ZERO]
        for c in art_cols:
            cost[c] = ONE
        status = _fraction_run_simplex(rows, basis, cost)
        if status != "optimal":
            raise ca.Discrepancy("phase one cannot be unbounded")
        if -cost[-1] > 0:
            return ca.LpResult(status="infeasible")
        for i in range(len(rows) - 1, -1, -1):
            if basis[i] >= nstruct:
                col = next((j for j in range(nstruct) if rows[i][j] != 0), None)
                if col is None:
                    del rows[i], basis[i]
                else:
                    _fraction_pivot(rows, basis, i, col, cost)
        rows = [r[:nstruct] + [r[-1]] for r in rows]
        width = nstruct

    minimize = sense == "min"
    cost = [ZERO] * (width + 1)
    for j, c in enumerate(problem.objective):
        cost[j] = c if minimize else -c
        cost[nvars + j] = -cost[j]
    status = _fraction_run_simplex(rows, basis, cost)
    if status == "unbounded":
        return ca.LpResult(status="unbounded")

    values = [ZERO] * width
    for i, bc in enumerate(basis):
        values[bc] = rows[i][-1]
    point = tuple(values[j] - values[nvars + j] for j in range(nvars))
    value = dot(problem.objective, point)
    return ca.LpResult(status="optimal", value=value, point=point)


class TestGrowingSystem:
    """_Growing answers every row's feasibility as the former two-phase simplex does.

    Rows are offered one at a time to one integer tableau; each answer is
    compared with the Fraction oracle on the accepted rows plus the offered
    one, and each tableau's basic point must satisfy every accepted row.  A
    refused row leaves the system as it was.  Branches grow copies of one
    parent, as the anti search does.
    """

    def test_agrees_with_the_fraction_simplex_on_every_prefix(self, monkeypatch):
        monkeypatch.setattr(coapprox.linalg, "_pivot", _exact_pivot)
        rng = seeded(263)
        kinds, answers = set(), []
        for _ in range(2000):
            nvars = rng.randint(1, 4)
            grown, accepted = coapprox.linalg._Growing(nvars), []
            branches = []
            for _ in range(rng.randint(1, 7)):
                kind, row = _growing_row(rng, nvars, accepted)
                kinds.add(kind)
                if rng.random() < 0.2:
                    branches.append((grown.copy(), list(accepted)))
                answers.append(_grow_and_compare(grown, accepted, row))
            for twin, prefix in branches:
                # the copy is untouched by the parent's later rows
                _, row = _growing_row(rng, nvars, prefix)
                _grow_and_compare(twin, prefix, row)
        assert kinds == {"fresh", "duplicate", "opposite", "redundant", "degenerate"}
        assert len(answers) >= 5000 and answers.count(False) >= 500

    def test_a_refused_row_leaves_the_system_as_it_was(self):
        grown = coapprox.linalg._Growing(2)
        assert grown.add((-1, 0), -1)  # x1 >= 1
        state = (list(grown.rows), list(grown.basis), grown.d)
        assert not grown.add((1, 0), 0)
        assert (grown.rows, grown.basis, grown.d) == state
        assert grown.add((2, 2), 3)  # x1 + x2 <= 3/2
        assert not grown.add((0, -1), -1)  # x2 >= 1
        with pytest.raises(TypeError):
            grown.add((ONE, ONE), ONE)

    def test_a_row_of_another_length_is_refused(self):
        grown = coapprox.linalg._Growing(2)
        for coeffs in ((1,), (1, 1, 1)):
            with pytest.raises(ValueError, match="arity"):
                grown.add(coeffs, 1)
        assert (grown.rows, grown.basis, grown.d) == ([], [], 1)

    @pytest.mark.parametrize(
        "ints, b",
        [
            ((F(1), 0), 1), ((F(1, 2), 0), 1), ((1, 0), F(1)),
            ((1, 0.5), 1), ((True, 0), 1), ((1, 0), False),
        ],
    )
    def test_a_row_that_is_not_all_ints_is_refused(self, ints, b):
        # // on a Fraction would truncate silently; the guard raises rather
        # than asserts (the exactness lint keeps asserts out), so python -O keeps it
        grown = coapprox.linalg._Growing(2)
        assert grown.add((-1, 0), -1)
        state = (list(grown.rows), list(grown.basis), list(grown.cols), grown.d)
        with pytest.raises(TypeError, match="int entries"):
            grown.add(ints, b)
        assert (grown.rows, grown.basis, grown.cols, grown.d) == state


def _exact_pivot(rows, r, s, prev):
    """The condensed Bareiss step of linalg, refusing any division that leaves a remainder."""
    top = rows[r]
    p = top[s]
    assert type(prev) is int and type(p) is int and p != 0
    for i, row in enumerate(rows):
        if i != r:
            f = row[s]
            new = []
            for a, b in zip(row, top):
                q, rest = divmod(p * a - f * b, prev)
                if rest:
                    raise ArithmeticError("inexact Bareiss division")
                new.append(q)
            new[s] = -f
            rows[i] = new
    rows[r] = [*top[:s], prev, *top[s + 1:]]
    return p


def _growing_row(rng, nvars, system):
    """One more row: fresh, a duplicate, an opposite, a redundant sum, or through the origin."""
    kind = rng.choice(["fresh", "duplicate", "opposite", "redundant", "degenerate"])
    if kind not in ("fresh", "degenerate") and not system:
        kind = "fresh"
    rel = rng.choice(["<=", ">="])
    if kind == "fresh":
        return kind, (rational_point(rng, nvars, -3, 3, 3), rel, rational(rng, -4, 4, 3))
    if kind == "degenerate":
        return kind, (rational_point(rng, nvars, -2, 2, 2), rel, ZERO)
    coeffs, rel, rhs = rng.choice(system)
    if kind == "duplicate":
        return kind, (coeffs, rel, rhs)
    if kind == "opposite":
        flipped = "<=" if rel == ">=" else ">="
        return kind, (coeffs, flipped, rhs + rng.choice([0, 0, 1, -1]))
    # a positive combination of two rows, turned into "<=" rows first
    (a, ra, ba), (b, rb, bb) = (coeffs, rel, rhs), rng.choice(system)
    a, ba = (neg(a), -ba) if ra == ">=" else (a, ba)
    b, bb = (neg(b), -bb) if rb == ">=" else (b, bb)
    s, t = F(rng.randint(1, 3)), F(rng.randint(0, 2))
    return kind, (add(scale(a, s), scale(b, t)), "<=", s * ba + t * bb + rng.choice([0, 1]))


def _feasible(system):
    problem = ca.LpProblem(objective=zeros(len(system[0][0])), constraints=tuple(system))
    return _fraction_lp_solve(problem).status != "infeasible"


def _int_row(row):
    """A rational row (coeffs, rel, rhs) cleared to the integer "<=" row (ints, b)."""
    coeffs, rel, rhs = row
    mult = math.lcm(*(x.denominator for x in (*coeffs, rhs))) * (1 if rel == "<=" else -1)
    ints = [c.numerator * (mult // c.denominator) for c in coeffs]
    return ints, rhs.numerator * (mult // rhs.denominator)


def _grow_and_compare(grown, accepted, row):
    """Offer ``row``, check the answer and the tableau, and accept the row into ``accepted``."""
    answer = grown.add(*_int_row(row))
    assert answer == _feasible(accepted + [row])
    if answer:
        accepted.append(row)
    nvars, values = grown.nvars, {}
    assert grown.d > 0 and len(grown.rows) == len(grown.basis) == len(accepted)
    assert all(len(r) == 2 * nvars + 1 for r in grown.rows)
    assert all(r[-1] >= 0 for r in grown.rows)
    for bc, r in zip(grown.basis, grown.rows):
        values[bc] = F(r[-1], grown.d)
    point = tuple(values.get(j, ZERO) - values.get(nvars + j, ZERO) for j in range(nvars))
    assert _satisfies(accepted, point) and grown.point() == point
    return answer


class TestCondensedTableau:
    """The condensed tableau is the former full tableau without its basic columns.

    The former ``_Growing``, with its full [x+ | x- | one slack per row | rhs]
    tableau, its ``_cost_row``, its ``_run_simplex`` and the full-row Bareiss
    step ``_eliminate`` they pivot with, is kept verbatim below as the oracle.  Both are offered the same integer rows, so they
    must take the same pivots: after every row the answer, the basis labels
    and d agree, each condensed row is the oracle's row on the nonbasic
    columns plus its right-hand side, and each oracle basic column is d
    times a unit vector.
    """

    def test_every_row_matches_the_full_tableau(self, monkeypatch):
        drive_outs, real = [], coapprox.linalg._pivot

        def spy(rows, r, s, d):
            # only the drive-out of a basic artificial pivots outside _run_simplex
            drive_outs.append(sys._getframe(1).f_code.co_name == "add")
            return real(rows, r, s, d)

        monkeypatch.setattr(coapprox.linalg, "_pivot", spy)
        rng = seeded(271)
        answers = []
        for _ in range(2000):
            nvars = rng.randint(1, 4)
            grown, full = coapprox.linalg._Growing(nvars), _FullGrowing(nvars)
            accepted, branches = [], []
            for _ in range(rng.randint(1, 7)):
                _, row = _growing_row(rng, nvars, accepted)
                if rng.random() < 0.2:
                    branches.append((grown.copy(), full.copy(), list(accepted)))
                answers.append(_offer_both(grown, full, accepted, row))
            for twin, full_twin, prefix in branches:
                _, row = _growing_row(rng, nvars, prefix)
                _offer_both(twin, full_twin, prefix, row)
        assert len(answers) >= 5000 and answers.count(False) >= 500
        assert sum(drive_outs) >= 100 and len(drive_outs) >= 2000

    def test_lp_solve_matches_the_full_tableau(self):
        rng = seeded(277)
        statuses = set()
        for _ in range(5000):
            problem, sense = _random_lp(rng)
            res, want = ca.lp_solve(problem, sense), _full_lp_solve(problem, sense)
            assert (res.status, res.value, res.point) == (want.status, want.value, want.point)
            statuses.add(res.status)
        assert statuses == {"optimal", "infeasible", "unbounded"}


def _offer_both(grown, full, accepted, row):
    """Offer one row to both tableaus and compare them entry by entry."""
    ints, b = _int_row(row)
    answer = grown.add(ints, b)
    assert full.add(*row) == answer
    if answer:
        accepted.append(row)
    assert (grown.basis, grown.d) == (full.basis, full.d)
    width = 2 * grown.nvars + len(full.rows)
    assert sorted(grown.cols + grown.basis) == list(range(width))
    for i, (bc, condensed, r) in enumerate(zip(grown.basis, grown.rows, full.rows)):
        assert condensed == [r[c] for c in grown.cols] + [r[-1]]
        assert [x[bc] for x in full.rows] == [grown.d * (k == i) for k in range(len(full.rows))]
    return answer


# The former full-tableau kernel of linalg, verbatim but for its names.

def _full_cost_row(rows: list, basis: list[int], cost: list[int], d: int) -> list[int]:
    """d times ``cost`` with its basic entries eliminated by their rows.

    For a cost row (0 at the right-hand side) these are the reduced costs; for
    a new constraint row, its entries in the current basis.
    """
    out = [d * c for c in cost]
    for bc, row in zip(basis, rows):
        w = cost[bc]
        if w:
            out = [o - w * a for o, a in zip(out, row)]
    return out


def _eliminate(rows: list, r: int, col: int, prev: int) -> int:
    """One Bareiss step on the integer rows[r][col], in place; returns the pivot p."""
    top = rows[r]
    p = top[col]
    for i, row in enumerate(rows):
        if i != r:
            f = row[col]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
    return p


def _full_run_simplex(tableau: list, basis: list[int], d: int) -> tuple[str, int]:
    """Minimize over the integer tableau in place; returns the status and the new d.

    Every row holds d times its entries, the cost row last, so a pivot is one
    ``_eliminate`` step.  Bland's rule both for the entering column (lowest
    index with negative reduced cost) and for ratio-test ties (lowest basis
    index), which rules out cycling; ratios are compared cross-multiplied.
    """
    while True:
        cost = tableau[-1]
        enter = next((j for j in range(len(cost) - 1) if cost[j] < 0), None)
        if enter is None:
            return "optimal", d
        leave = None
        for i, (bc, row) in enumerate(zip(basis, tableau)):
            a, rhs = row[enter], row[-1]
            if a > 0 and (leave is None or (rhs * den, bc) < (num * a, basis[leave])):
                leave, num, den = i, rhs, a
        if leave is None:
            return "unbounded", d
        d = _eliminate(tableau, leave, enter, d)
        basis[leave] = enter


def _full_lp_solve(problem, sense: str = "max"):
    """Exact simplex on one fraction-free integer tableau, grown row by row.

    Free variables are split into positive and negative parts.  Every
    constraint joins one ``_Growing`` system, an equality as a "<=" and a
    ">=" row, each bound as a row of its own; a refused row means the problem
    is infeasible.  Phase two then minimizes the cleared objective on the
    grown tableau, which holds d times its entries, d > 0 the basis
    determinant, so Fractions are made only when the point is read off.
    """
    if sense not in ("max", "min"):
        raise ValueError(f"unknown sense {sense!r}")
    nvars = len(problem.objective)
    rows = [
        (c, r, b) for c, rel, b in problem.constraints for r in ("<=", ">=") if rel in (r, "==")
    ]
    for j, (lo, hi) in enumerate(problem.bounds or ()):
        rows += [(unit(nvars, j), r, b) for r, b in ((">=", lo), ("<=", hi)) if b is not None]
    grown = _FullGrowing(nvars)
    if not all(grown.add(*row) for row in rows):
        return ca.LpResult(status="infeasible")

    mult = math.lcm(*(c.denominator for c in problem.objective)) * (1 if sense == "min" else -1)
    obj = [c.numerator * (mult // c.denominator) for c in problem.objective]
    cost = [*obj, *(-c for c in obj), *[0] * (len(grown.rows) + 1)]
    tableau = grown.rows + [_full_cost_row(grown.rows, grown.basis, cost, grown.d)]
    status, grown.d = _full_run_simplex(tableau, grown.basis, grown.d)
    if status == "unbounded":
        return ca.LpResult(status="unbounded")
    grown.rows = tableau[:-1]
    point = grown.point()
    return ca.LpResult(status="optimal", value=dot(problem.objective, point), point=point)


class _FullGrowing:
    """A feasible system of inequalities on free variables, grown one row at a time.

    It keeps one feasible integer tableau: columns [x+ | x- | one slack per
    row | rhs], every row holding d times its entries, d > 0.  A new row is
    reduced against the current basis with its slack basic; only when that
    slack comes out negative does phase one run, on one artificial in that
    row and from the current basis, so a grown system costs a few pivots.  A
    row that would make the system infeasible is refused and leaves it as it
    was.  This is the only phase one: ``lp_solve`` grows its constraints here
    and runs phase two on them, ``strict_feasibility`` reads its basic point.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.rows: list[list[int]] = []
        self.basis: list[int] = []
        self.d = 1

    def copy(self):
        # no row list is changed in place, so the copies may share them
        twin = _FullGrowing(self.nvars)
        twin.rows, twin.basis, twin.d = list(self.rows), list(self.basis), self.d
        return twin

    def add(self, coeffs, rel, rhs) -> bool:
        """Add <coeffs, x> rel rhs, rel "<=" or ">=", if the system stays feasible."""
        if rel not in ("<=", ">="):
            raise ValueError(f"unknown relation {rel!r}")
        if len(coeffs) != self.nvars:
            raise ValueError("row arity does not match the system")
        mult = math.lcm(*(x.denominator for x in (*coeffs, rhs))) * (1 if rel == "<=" else -1)
        ints = [c.numerator * (mult // c.denominator) for c in coeffs]
        d, slack = self.d, 2 * self.nvars + len(self.rows)
        # every old row is 0 in the new slack column, so the row is reduced
        # without it and takes d there
        row = [*ints, *(-c for c in ints), *[0] * len(self.rows)]
        row = _full_cost_row(
            self.rows, self.basis, [*row, rhs.numerator * (mult // rhs.denominator)], d
        )
        if row[-1] >= 0:
            self.rows = [r[:-1] + [0, r[-1]] for r in self.rows] + [row[:-1] + [d, row[-1]]]
            self.basis.append(slack)
            return True
        # flipped, the row takes one artificial, the column after its slack, basic at d
        art = slack + 1
        rows = [r[:-1] + [0, 0, r[-1]] for r in self.rows]
        rows.append([-x for x in row[:-1]] + [-d, d, -row[-1]])
        basis = self.basis + [art]
        cost = [0] * (art + 2)
        cost[art] = 1
        rows.append(_full_cost_row(rows, basis, cost, d))
        status, d = _full_run_simplex(rows, basis, d)
        if status != "optimal":
            raise ca.Discrepancy("phase one cannot be unbounded")
        if rows.pop()[-1] < 0:
            return False
        if art in basis:
            # basic at 0; [A | I] has full row rank, so the row has a nonzero
            # entry outside the artificial column
            i = basis.index(art)
            col = next(j for j in range(art) if rows[i][j] != 0)
            if rows[i][col] < 0:  # its right-hand side is 0: flip it to keep d > 0
                rows[i] = [-x for x in rows[i]]
            d = _eliminate(rows, i, col, d)
            basis[i] = col
        self.rows = [r[:art] + r[-1:] for r in rows]
        self.basis, self.d = basis, d
        return True

    def point(self):
        """The basic point of the tableau, which satisfies every row."""
        values = {bc: row[-1] for bc, row in zip(self.basis, self.rows)}
        n = self.nvars
        return tuple(F(values.get(j, 0) - values.get(n + j, 0), self.d) for j in range(n))


class TestExactDot:
    def test_agrees_with_the_fraction_sum(self):
        rng = seeded(269)
        for _ in range(3000):
            n = rng.randint(0, 8)
            u, v = rational_point(rng, n, -9, 9, 12), rational_point(rng, n, -9, 9, 12)
            assert dot(u, v) == sum((a * b for a, b in zip(u, v)), ZERO)
            assert type(dot(u, v)) is F

    def test_int_entries_and_the_empty_vector(self):
        assert dot((1, -2, 3), (4, 5, 6)) == 12 and type(dot((1, 2), (3, 4))) is F
        assert dot((F(1, 2), 3), (4, F(-1, 6))) == F(3, 2)
        assert dot((), ()) == 0 and type(dot((), ())) is F

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            dot((ONE, ONE), (ONE,))


class TestStrictFeasibility:
    def test_witness_verified(self):
        res = ca.strict_feasibility(ca.mat([(1, 0), (0, 1), (1, 1)]))
        assert res.feasible
        for row in ((F(1), F(0)), (F(0), F(1)), (F(1), F(1))):
            assert dot(row, res.witness) > 0

    def test_opposed_rows_infeasible(self):
        res = ca.strict_feasibility(ca.mat([(1, 0), (-1, 0)]))
        assert not res.feasible and res.witness is None

    def test_zero_row_infeasible(self):
        assert not ca.strict_feasibility(ca.mat([(0, 0)])).feasible

    def test_homogeneity(self):
        # scaling rows by positive constants never changes the answer
        rng = seeded(11)
        for _ in range(20):
            rows = [rational_point(rng, 3, -3, 3, 2) for _ in range(4)]
            m = ca.mat(rows)
            scaled = tuple(scale(r, F(rng.randint(1, 5))) for r in m)
            assert ca.strict_feasibility(m).feasible == ca.strict_feasibility(scaled).feasible

    def test_no_lp_solve_call(self, monkeypatch):
        # the rows grow one system directly; no zero-objective LP is built
        calls = []
        real = coapprox.linalg.lp_solve

        def spy(problem, *args):
            calls.append(problem)
            return real(problem, *args)

        monkeypatch.setattr(coapprox.linalg, "lp_solve", spy)
        c = ca.mat([(1, 0, 2), (0, 1, -1), (1, 1, 1), (-1, 2, 0)])
        assert ca.strict_feasibility(c).feasible
        assert not ca.strict_feasibility(ca.mat([(1, 0), (-1, 0)])).feasible
        assert calls == []

    def test_agrees_with_the_box_lp(self):
        rng = seeded(29)
        for _ in range(200):
            k = rng.randint(1, 4)
            rows = [tuple(F(rng.randint(-3, 3)) for _ in range(k)) for _ in range(rng.randint(1, 5))]
            extra = rng.random()
            if extra < 0.15:
                rows.append(zeros(k))
            elif extra < 0.4:
                rows.append(neg(rng.choice(rows)))
            rng.shuffle(rows)
            c = tuple(rows)
            res = ca.strict_feasibility(c)
            assert res.feasible == _box_lp_feasible(c)
            if res.feasible:
                assert all(dot(row, res.witness) > 0 for row in c)
            else:
                assert res.witness is None

    def test_rows_of_another_length_are_refused(self):
        # the witness recheck once zipped the rows short and passed (1, 0)
        with pytest.raises(ValueError, match="arity"):
            ca.strict_feasibility(((1, 2), (1, 2, 3)))

    def test_witness_recheck_survives_optimized_mode(self):
        # an LP kernel that reports a non-witness as optimal must not pass
        # silently under python -O, which strips asserts
        src = str(Path(ca.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        )}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _LYING_KERNEL_SCRIPT],
            capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "Discrepancy"]


_LYING_KERNEL_SCRIPT = """
import coapprox as ca
import coapprox.linalg as la

print(__debug__)
la._Growing.point = lambda self: (0, 0)
try:
    la.strict_feasibility(ca.mat([(1, 0), (0, 1)]))
except ca.Discrepancy:
    print("Discrepancy")
else:
    print("answered")
"""


def _satisfies(cons, point) -> bool:
    checks = {"<=": lambda v, b: v <= b, ">=": lambda v, b: v >= b, "==": lambda v, b: v == b}
    return all(checks[rel](dot(a, point), b) for a, rel, b in cons)


def _best_vertex(obj, cons):
    """Reference for bounded planar LPs: the best feasible pairwise line intersection."""
    values = []
    for (a, _, b), (c, _, d) in itertools.combinations(cons, 2):
        sol = ca.solve_linear((a, c), (b, d))
        if sol.kind == "unique" and _satisfies(cons, sol.particular):
            values.append(dot(obj, sol.particular))
    return max(values, default=None)


def _box_lp_feasible(c) -> bool:
    """Reference: maximize t subject to C beta >= t 1 and -1 <= beta_j <= 1."""
    k = len(c[0])
    cons = tuple((row + (F(-1),), ">=", 0) for row in c)
    bounds = ((-1, 1),) * k + ((None, None),)
    res = _fraction_lp_solve(ca.lp(unit(k + 1, k), cons, bounds), "max")
    assert res.status == "optimal"
    return res.value > 0


class TestHelpers:
    def test_affine_rank(self):
        square = ca.mat([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert affine_rank(square) == 2
        segment = ca.mat([(0, 0), (2, 2)])
        assert affine_rank(segment) == 1
        assert affine_rank(ca.mat([(5, 5)])) == 0

    def test_canonical_sorted(self):
        out = canonical_sorted([(F(1), F(0)), (F(-1), F(0)), (F(0), F(1))])
        assert out == ((F(-1), F(0)), (F(0), F(1)), (F(1), F(0)))

    def test_random_bases_have_full_rank(self):
        rng = seeded(13)
        for _ in range(10):
            rows = independent_basis(rng, 4, 2)
            assert ca.rank(ca.mat(rows)) == 2
