"""Exact rational linear algebra and LP layer."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import coapprox as ca
import coapprox.linalg
from coapprox.linalg import (
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

from conftest import independent_basis, rational_point, seeded

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
        # several ">=" rows with positive right-hand side share one artificial
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

    def test_one_zero_objective_lp_without_bounds(self, monkeypatch):
        calls = []
        real = coapprox.linalg.lp_solve

        def spy(problem, *args):
            calls.append(problem)
            return real(problem, *args)

        monkeypatch.setattr(coapprox.linalg, "lp_solve", spy)
        c = ca.mat([(1, 0, 2), (0, 1, -1), (1, 1, 1), (-1, 2, 0)])
        assert ca.strict_feasibility(c).feasible
        assert len(calls) == 1
        (problem,) = calls
        assert len(problem.constraints) == len(c)
        assert is_zero(problem.objective) and len(problem.objective) == 3
        assert problem.bounds is None

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
    res = ca.lp_solve(ca.lp(unit(k + 1, k), cons, bounds), "max")
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
