"""Best coapproximation: membership test, solver, defect, classification."""

from fractions import Fraction

import pytest

import coapprox as ca
import coapprox.subspaces
from coapprox.linalg import add, dot, neg, sub, zeros

from conftest import (
    NARROW_BASIS,
    independent_basis,
    nonzero_point,
    rational_point,
    seeded,
)

F = Fraction


@pytest.fixture(scope="module")
def linf3():
    return ca.make_linf(3)


@pytest.fixture(scope="module")
def narrow():
    return ca.subspace(NARROW_BASIS)


@pytest.fixture(scope="module")
def wide():
    return ca.subspace([(3, 0, 2), (0, 3, 2)])


class TestIsBestCoapprox:
    def test_flat_prism_projection(self, prism, prism_flat):
        assert ca.is_best_coapprox(prism, prism_flat, (3, -2, 5), (3, -2, 0))
        assert not ca.is_best_coapprox(prism, prism_flat, (3, -2, 5), (0, 0, 0))

    def test_point_inside_subspace(self, prism, prism_flat):
        assert ca.is_best_coapprox(prism, prism_flat, (2, 1, 0), (2, 1, 0))

    def test_candidate_must_lie_in_subspace(self, prism, prism_flat):
        with pytest.raises(ca.BasisMismatch):
            ca.is_best_coapprox(prism, prism_flat, (3, -2, 5), (0, 0, 1))

    def test_translation_along_the_subspace(self, prism, prism_flat):
        rng = seeded(67)
        for _ in range(15):
            x = rational_point(rng, 3)
            y0 = (x[0], x[1], F(0))
            z = ca.embed(prism_flat, rational_point(rng, 2))
            assert ca.is_best_coapprox(prism, prism_flat, x, y0)
            assert ca.is_best_coapprox(prism, prism_flat, add(x, z), add(y0, z))

    def test_norm_inequality_holds_on_samples(self, prism, prism_flat):
        # spot check the defining property against random competitors
        rng = seeded(71)
        x, y0 = (F(3), F(-2), F(5)), (F(3), F(-2), F(0))
        for _ in range(40):
            y = ca.embed(prism_flat, rational_point(rng, 2))
            lhs = ca.norm(prism, tuple(a - b for a, b in zip(y0, y)))
            rhs = ca.norm(prism, tuple(a - b for a, b in zip(x, y)))
            assert lhs <= rhs


class TestSolveBestCoapprox:
    def test_flat_prism_always_solves(self, prism, prism_flat):
        rng = seeded(73)
        for _ in range(20):
            a, b, c = rational_point(rng, 3)
            res = ca.solve_best_coapprox(prism, prism_flat, (a, b, c))
            assert res.exists
            assert res.y0 == (a, b, F(0))
            assert res.alpha == (a, b)
            assert len(res.region) >= 1

    def test_l1_fixture_has_no_solution(self):
        sp = ca.make_l1(3)
        y = ca.subspace([(0, 1, 1), (-1, 0, 1)])
        res = ca.solve_best_coapprox(sp, y, (1, 0, 0))
        assert not res.exists
        assert res.y0 is None
        assert isinstance(res.failed_face, int)

    def test_solution_passes_the_membership_test(self, linf3, narrow):
        rng = seeded(79)
        found = 0
        for _ in range(20):
            x = rational_point(rng, 3)
            res = ca.solve_best_coapprox(linf3, narrow, x)
            if res.exists:
                assert ca.is_best_coapprox(linf3, narrow, x, res.y0)
                found += 1
        assert found > 0

    def test_strongly_anti_subspace_never_solves(self, linf3, wide):
        rng = seeded(83)
        checked = 0
        while checked < 10:
            x = nonzero_point(rng, 3)
            if ca.point_in_subspace(wide, x):
                continue
            assert not ca.solve_best_coapprox(linf3, wide, x).exists
            checked += 1

    def test_budget_is_enforced(self, linf3, narrow):
        with pytest.raises(ca.BudgetExceeded) as info:
            ca.solve_best_coapprox(linf3, narrow, (1, -1, 0), budget=1)
        assert info.value.budget == 1
        assert info.value.required == 4

    def test_point_inside_subspace_is_its_own_answer(self, prism, prism_flat):
        res = ca.solve_best_coapprox(prism, prism_flat, (2, -1, 0))
        assert res.exists and res.y0 == (F(2), F(-1), F(0))


class TestDefect:
    def test_zero_at_a_best_coapproximation(self, linf3, narrow):
        assert ca.eps_coapprox_defect(linf3, narrow, (1, -1, 0), (0, 0, 0)) == 0

    def test_one_on_a_strongly_anti_subspace(self, linf3, wide):
        rng = seeded(89)
        checked = 0
        while checked < 10:
            x = nonzero_point(rng, 3)
            if ca.point_in_subspace(wide, x):
                continue
            assert ca.eps_coapprox_defect(linf3, wide, x, (0, 0, 0)) == 1
            checked += 1

    def test_rejects_coincident_arguments(self, linf3, narrow):
        with pytest.raises(ca.DegenerateQuery):
            ca.eps_coapprox_defect(linf3, narrow, (1, 1, 2), (1, 1, 2))

    def test_range_and_membership_equivalence(self, prism, prism_flat):
        rng = seeded(97)
        for _ in range(25):
            x = rational_point(rng, 3)
            y0 = ca.embed(prism_flat, rational_point(rng, 2))
            if x == y0:
                continue
            d = ca.eps_coapprox_defect(prism, prism_flat, x, y0)
            assert 0 <= d <= 1
            assert (d == 0) == ca.is_best_coapprox(prism, prism_flat, x, y0)

    def test_defect_is_a_usable_epsilon(self, linf3, narrow):
        # at eps = defect, every subspace element is eps-orthogonal to x - y0
        rng = seeded(107)
        x, y0 = (F(5), F(1), F(2)), (F(0), F(0), F(0))
        d = ca.eps_coapprox_defect(linf3, narrow, x, y0)
        assert 0 <= d < 1
        v = tuple(a - b for a, b in zip(x, y0))
        for _ in range(30):
            y = ca.embed(narrow, nonzero_point(rng, 2))
            assert ca.eps_bj_orthogonal(linf3, y, v, d)


class TestAntiClassification:
    def test_flat_prism_section_is_not_anti(self, prism, prism_flat):
        res = ca.is_anti_coproximinal(prism, prism_flat)
        assert res.status == "no"
        assert res.rank == 2
        assert res.smooth_dense
        assert ca.is_best_coapprox(prism, prism_flat, res.witness_x, res.witness_y0)

    def test_tilted_prism_section_is_anti(self, prism, prism_tilted):
        res = ca.is_anti_coproximinal(prism, prism_tilted)
        assert res.status == "yes"
        assert res.rank == 3
        assert len(res.jy.functionals) == 6

    def test_steep_prism_section_is_anti(self, prism, prism_steep):
        assert ca.is_anti_coproximinal(prism, prism_steep).status == "yes"

    def test_narrow_section_witness_found(self, linf3, narrow):
        res = ca.is_anti_coproximinal(linf3, narrow)
        assert res.status == "no"
        assert res.witness_x is not None
        assert ca.is_best_coapprox(linf3, narrow, res.witness_x, res.witness_y0)

    def test_dimension_bounds(self, linf3):
        with pytest.raises(ca.DimensionOutOfRange):
            ca.is_anti_coproximinal(linf3, ca.subspace([(1, 0, 0)]))
        with pytest.raises(ca.DimensionOutOfRange):
            ca.is_anti_coproximinal(
                linf3, ca.subspace([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
            )


class TestStrongClassification:
    def test_tilted_prism_section(self, prism, prism_tilted):
        res = ca.is_strongly_anti_coproximinal(prism, prism_tilted)
        assert res.status == "no"
        assert res.missed in ((F(0), F(2), F(0)), (F(0), F(-2), F(0)))
        assert res.epsilon0 == F(1, 2)
        # the certificate: the interior point admits an epsilon-best answer at 0
        assert not ca.point_in_subspace(prism_tilted, res.interior_point)
        d = ca.eps_coapprox_defect(prism, prism_tilted, res.interior_point, (0, 0, 0))
        assert d <= res.epsilon0 < 1

    def test_steep_prism_section(self, prism, prism_steep):
        res = ca.is_strongly_anti_coproximinal(prism, prism_steep)
        assert res.status == "yes"
        assert set(res.jy.functionals) == set(prism.dual_extreme)

    def test_wide_linf_section(self, linf3, wide):
        assert ca.is_strongly_anti_coproximinal(linf3, wide).status == "yes"

    def test_narrow_linf_section(self, linf3, narrow):
        assert ca.is_strongly_anti_coproximinal(linf3, narrow).status == "no"

    def test_strongly_implies_anti_but_not_conversely(self, prism, prism_tilted, prism_steep):
        assert ca.is_strongly_anti_coproximinal(prism, prism_steep).status == "yes"
        assert ca.is_anti_coproximinal(prism, prism_steep).status == "yes"
        assert ca.is_anti_coproximinal(prism, prism_tilted).status == "yes"
        assert ca.is_strongly_anti_coproximinal(prism, prism_tilted).status == "no"

    def test_dimension_bounds(self, linf3):
        with pytest.raises(ca.DimensionOutOfRange):
            ca.is_strongly_anti_coproximinal(linf3, ca.subspace([(1, 1, 1)]))


class TestConditions:
    def test_sufficient_condition_on_a_strong_fixture(self, linf3, wide):
        assert ca.sufficient_condition_strong(linf3, wide, (1, 0, 0))

    def test_sufficient_condition_rejects_subspace_points(self, linf3, wide):
        with pytest.raises(ca.PointInSubspace):
            ca.sufficient_condition_strong(linf3, wide, (3, 0, 2))

    def test_sufficient_condition_forces_defect_one(self, linf3, wide):
        rng = seeded(101)
        hits = 0
        while hits < 8:
            x = nonzero_point(rng, 3)
            if ca.point_in_subspace(wide, x):
                continue
            if ca.sufficient_condition_strong(linf3, wide, x):
                assert ca.eps_coapprox_defect(linf3, wide, x, (0, 0, 0)) == 1
                hits += 1

    def test_necessary_condition_on_the_narrow_fixture(self, linf3, narrow):
        rng = seeded(103)
        for _ in range(50):
            x = nonzero_point(rng, 3)
            assert ca.necessary_condition_check(linf3, narrow, x)

    def test_necessary_condition_rejects_zero(self, linf3, narrow):
        with pytest.raises(ca.ZeroVector):
            ca.necessary_condition_check(linf3, narrow, (0, 0, 0))


class TestFacetsDecide:
    """The facet and vertex scans agree with a scan over the whole face lattice."""

    def test_no_face_lattice_on_a_cold_ball(self, monkeypatch, prism, prism_tilted, linf3, narrow):
        def refuse(*args):
            raise AssertionError("the face lattice was built")

        monkeypatch.setattr(coapprox.subspaces, "enumerate_faces", refuse)
        ca.induced_ball.cache_clear()
        for space, y, x in ((prism, prism_tilted, (1, 2, 0)), (linf3, narrow, (1, -1, 0))):
            assert ca.is_best_coapprox(space, y, x, (0, 0, 0)) in (True, False)
            assert 0 <= ca.eps_coapprox_defect(space, y, x, (0, 0, 0)) <= 1
            assert ca.sufficient_condition_strong(space, y, x) in (True, False)
            assert ca.necessary_condition_check(space, y, x) in (True, False)
        ca.induced_ball.cache_clear()

    def test_agrees_with_the_face_scan(self, prism, prism_flat, prism_tilted, prism_steep):
        rng = seeded(211)
        cases = [(prism, y) for y in (prism_flat, prism_tilted, prism_steep)]
        for n in (3, 4, 5):
            for space in (ca.make_linf(n), ca.make_l1(n)):
                for _ in range(2):
                    m = rng.randint(1, n - 1)
                    cases.append((space, ca.subspace(independent_basis(rng, n, m, -2, 2))))
        seen = set()
        for space, y in cases:
            n = space.dim
            for _ in range(5):
                x = nonzero_point(rng, n, -3, 3, 1)
                if ca.point_in_subspace(y, x):
                    continue
                y0s = [zeros(n), ca.embed(y, rational_point(rng, y.dim, -2, 2, 2))]
                try:
                    solved = ca.solve_best_coapprox(space, y, x, budget=2000)
                except ca.BudgetExceeded:
                    solved = None
                if solved is not None and solved.exists:
                    y0s.append(solved.y0)
                for y0 in y0s:
                    gap = _worst_face_gap(space, y, sub(x, y0))
                    best = ca.is_best_coapprox(space, y, x, y0)
                    assert best == (gap == 0)
                    assert ca.eps_coapprox_defect(space, y, x, y0) == gap / ca.norm(space, sub(x, y0))
                    seen.add(("best", best))
                sufficient, necessary = _face_conditions(space, y, x)
                assert ca.sufficient_condition_strong(space, y, x) == sufficient
                assert ca.necessary_condition_check(space, y, x) == necessary
                seen |= {("sufficient", sufficient), ("necessary", necessary)}
        assert len(seen) == 6, seen


def _worst_face_gap(space, y, diff):
    """Reference: the largest distance from 0 of conv D(G) on diff over all faces G."""
    worst = F(0)
    for data in ca.induced_ball(space, y).faces:
        values = [dot(space.dual_extreme[i], diff) for i in data.dual]
        lo, hi = min(values), max(values)
        worst = max(worst, F(0) if lo <= 0 <= hi else min(abs(lo), abs(hi)))
    return worst


def _face_conditions(space, y, x):
    """Reference: the sufficient and necessary conditions over all faces of B_Y."""
    supp = set(ca.support_set(space, x).indices)
    supp_neg = set(ca.support_set(space, neg(x)).indices)
    duals = [set(data.dual) for data in ca.induced_ball(space, y).faces]
    sufficient = any(d <= supp or d <= supp_neg for d in duals)
    necessary = any(supp & d for d in duals)
    return sufficient, necessary
