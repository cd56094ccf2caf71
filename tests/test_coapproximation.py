"""Best coapproximation: membership test, solver, defect, classification."""

import importlib.util
import itertools
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import coapprox as ca
import coapprox.coapproximation
import coapprox.linalg
import coapprox.spaces
import coapprox.subspaces
from coapprox.linalg import LpProblem, add, dot, lp_solve, neg, scale, sub, unit, vec, zeros

from conftest import (
    L1_BASIS,
    NARROW_BASIS,
    centroid,
    independent_basis,
    nonzero_point,
    rational_point,
    seeded,
)
from test_linalg import _fraction_lp_solve

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

    def test_no_lp_and_the_region_solves_to_the_witness(self, monkeypatch, linf3, narrow):
        # the grown tableau decides feasibility and gives the witness, so no
        # lp_solve runs; lp_solve on the returned region grows the same rows
        # in the same order and stops at the same point
        def refuse(*args):
            raise AssertionError("lp_solve called")

        assert len(ca.induced_ball(linf3, narrow)._facet_classes) == 2
        rng = seeded(241)
        cases = [(linf3, narrow, (1, -1, 0)), (ca.make_l1(3), ca.subspace(L1_BASIS), (1, 0, 0))]
        cases += [(linf3, narrow, rational_point(rng, 3)) for _ in range(20)]
        outcomes, found = set(), set()
        for space, y, x in cases:
            with monkeypatch.context() as patch:
                patch.setattr(coapprox.coapproximation, "lp_solve", refuse)
                patch.setattr(coapprox.linalg, "lp_solve", refuse)
                res = ca.solve_best_coapprox(space, y, x)
                z = coapprox.coapproximation._coapproximable_direction(space, y)
            if res.exists:
                assert lp_solve(LpProblem(zeros(y.dim), res.region)).point == res.alpha
            assert z is None or ca.is_best_coapprox(space, y, z, zeros(space.dim))
            outcomes.add(res.exists)
            found.add(z is not None)
        assert outcomes == found == {True, False}

    def test_a_lying_tableau_point_raises(self, monkeypatch, prism, prism_flat):
        x = (F(3), F(-2), F(5))
        lie = (F(7), F(7))
        assert not ca.is_best_coapprox(prism, prism_flat, x, ca.embed(prism_flat, lie))
        monkeypatch.setattr(coapprox.linalg._Growing, "point", lambda self: lie)
        with pytest.raises(ca.Discrepancy):
            ca.solve_best_coapprox(prism, prism_flat, x)

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

    def test_search_closes_the_gap_the_rank_criterion_leaves(self):
        # J_Y = {+-e1, +-e2} has rank 2 < 3 and Y is not smooth-dense, so
        # neither paper statement decides.  A z with 0 as a best
        # coapproximation needs, on every facet of B_Y, dual-face values that
        # straddle zero.  The facets whose dual faces are {+-e1} and {+-e2}
        # force z = (0, 0, t).  The facets on the rows +-(1, 1) carry e3 and
        # (1/2, 1/2, 1/2), whose values t and t/2 straddle zero only at
        # t = 0.  So no z outside Y works and Y is anti-coproximinal.
        verts = ((1, 1, 0), (1, -1, -1), (1, 0, 1), (0, 1, 1), (1, -1, 1))
        ball = ca.make_custom(vertices=verts + tuple(neg(v) for v in verts))
        res = ca.is_anti_coproximinal(ball, ca.subspace([(0, 1, 1), (1, 0, 1)]))
        assert (res.status, res.rank, res.smooth_dense) == ("yes", 2, False)
        assert res.witness_x is None

    def test_exhausted_search_in_r6_fits_a_cap_of_1000(self, monkeypatch):
        # an anti "yes" that the search proves by exhaustion; branching on the
        # first violated facet class instead of the smallest took 88,472 branches
        monkeypatch.setattr(coapprox.coapproximation, "_ANTI_LP_CAP", 1000)
        half = [
            (-2, -2, 2, -1, 1, -1), (-2, -1, 1, -2, -2, 0), (-2, -1, 2, -2, -1, 1),
            (-2, 1, 1, 1, 0, 2), (-1, -2, -2, 2, -1, 2), (-1, -2, 0, 0, -2, 0),
            (-1, 0, -2, 0, 0, 2), (-1, 1, -1, -2, -2, -2), (-1, 2, 0, -1, 2, -2),
            (0, -2, -1, 1, 1, 0), (0, 0, 0, -2, -2, -2),
        ]
        ball = ca.make_custom(vertices=half + [neg(v) for v in half])
        y = ca.subspace([(-2, -1, 1, -2, -2, 0), (1, 2, 0, 0, 2, 0), (-2, 1, 1, 1, 0, 2)])
        res = ca.is_anti_coproximinal(ball, y)
        assert (res.status, res.smooth_dense) == ("yes", False)
        assert res.rank < 6

    def test_dimension_bounds(self, linf3):
        with pytest.raises(ca.DimensionOutOfRange):
            ca.is_anti_coproximinal(linf3, ca.subspace([(1, 0, 0)]))
        with pytest.raises(ca.DimensionOutOfRange):
            ca.is_anti_coproximinal(
                linf3, ca.subspace([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
            )


_RECHECK_SCRIPT = """
from dataclasses import replace

import coapprox as ca
import coapprox.coapproximation as co
import coapprox.l1 as l1
import coapprox.subspaces as su

space, y = ca.make_linf(3), ca.subspace([(1, 0, 0), (0, 1, 0)])
narrow = ca.subspace([(1, 1, 2), (2, 2, 1)])
coordinates, is_best_coapprox = co.coordinates, co.is_best_coapprox
solve_linear, conv_facets = su.solve_linear, su.conv_facets


def doubled_vertices(points):
    return tuple(tuple(2 * c for c in vert) for vert in conv_facets(points))


def attempt(label, call):
    try:
        call()
    except ca.Discrepancy:
        print(label, "Discrepancy")
    else:
        print(label, "answered")


print(__debug__)
co.is_best_coapprox = lambda *args: False
attempt("anti-witness", lambda: co.is_anti_coproximinal(space, y))
attempt("anti-search-witness", lambda: co.is_anti_coproximinal(space, narrow))
# an equal space whose integer vertex rows hold only the first vertex, so the
# centroid of the missed facet's vertices is that vertex, not interior
one_vertex = replace(space)
vm, vertex_rows = space._vertex_ints
one_vertex.__dict__["_vertex_ints"] = (vm, vertex_rows[:1])
attempt("strong-interior", lambda: co.is_strongly_anti_coproximinal(one_vertex, y))
co.coordinates = lambda sub, x: coordinates(sub, x) or ()
attempt("strong-outside", lambda: co.is_strongly_anti_coproximinal(space, y))
co.is_best_coapprox = is_best_coapprox
attempt("anti-search-outside", lambda: co.is_anti_coproximinal(space, narrow))
su.solve_linear = lambda a, b: replace(solve_linear(a, b), kind="affine")
attempt("coordinates", lambda: su.coordinates(y, (1, 2, 0)))
su.solve_linear = solve_linear
su.induced_ball.cache_clear()
su.conv_facets = doubled_vertices
attempt("ball-vertex-norm", lambda: su.induced_ball(space, y))
su.conv_facets = conv_facets
l1.solve_linear = lambda a, b: replace(solve_linear(a, b), kind="affine")
attempt("l1-unique", lambda: l1.l1_best_coapprox([(0, 1, 1), (-1, 0, 1)], (0, 1, 1)))
"""


class TestCertificateRechecks:
    def test_rechecks_survive_optimized_mode(self):
        # span(e1, e2) in the max norm is smooth-dense with a rank-2 norming
        # set, so both classifiers reach their certificate rechecks, and the
        # narrow span is neither, so the anti search's witness is rechecked;
        # under python -O, asserts would let a failed recheck answer silently.
        # The last three lines corrupt the call that produces a library
        # invariant (unique coordinates, unit vertices of B_Y, a unique
        # sum-norm best coapproximation).
        src = str(Path(ca.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        )}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _RECHECK_SCRIPT],
            capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "False",
            "anti-witness Discrepancy",
            "anti-search-witness Discrepancy",
            "strong-interior Discrepancy",
            "strong-outside Discrepancy",
            "anti-search-outside Discrepancy",
            "coordinates Discrepancy",
            "ball-vertex-norm Discrepancy",
            "l1-unique Discrepancy",
        ]


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

    def test_anti_and_strong_share_one_jy_set(self, prism, prism_tilted, linf3, narrow, wide):
        for space, y in ((prism, prism_tilted), (linf3, narrow), (linf3, wide)):
            anti = ca.is_anti_coproximinal(space, y)
            assert anti.jy is ca.is_strongly_anti_coproximinal(space, y).jy
            assert anti.jy is ca.induced_ball(space, y).jy

    def test_no_lp_on_a_cold_ball(self, monkeypatch, prism, prism_tilted, linf3, narrow):
        def refuse(*args):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(coapprox.coapproximation, "lp_solve", refuse)
        ca.induced_ball.cache_clear()
        l1_span = ca.subspace([(1, 0, 1, 2), (0, 1, -1, 1)])
        for space, y in ((prism, prism_tilted), (linf3, narrow), (ca.make_l1(4), l1_span)):
            assert ca.is_strongly_anti_coproximinal(space, y).status == "no"
        ca.induced_ball.cache_clear()

    def test_centroid_certificates_recheck(self, prism, prism_flat, prism_tilted):
        rng = seeded(233)
        cases = [(prism, prism_flat), (prism, prism_tilted)]
        for n in (3, 4, 5, 6):
            for space in (ca.make_linf(n), ca.make_l1(n)):
                for _ in range(2):
                    m = rng.randint(2, n - 1)
                    cases.append((space, ca.subspace(independent_basis(rng, n, m, -2, 2))))
        for _ in range(4):
            space = _random_custom_ball(rng, 4)
            cases.append((space, ca.subspace(independent_basis(rng, 4, rng.randint(2, 3), -2, 2))))
        kinds = set()
        for space, y in cases:
            res = ca.is_strongly_anti_coproximinal(space, y)
            if res.status == "yes":
                continue
            x, g = res.interior_point, res.missed
            assert dot(g, x) == 1
            assert all(dot(other, x) < 1 for other in space.dual_extreme if other != g)
            assert not ca.point_in_subspace(y, x)
            assert res.epsilon0 < 1
            assert ca.eps_coapprox_defect(space, y, x, zeros(space.dim)) <= res.epsilon0
            kinds.add((space.kind, space.dim))
        assert {("custom", 3), ("custom", 4), ("linf", 5), ("l1", 6)} <= kinds, kinds

    @pytest.mark.filterwarnings("ignore:dropped .* non-extreme")
    def test_interior_point_is_the_fraction_centroid(self):
        # the certificate is summed on the space's integer vertex rows; the
        # oracle averages the Fraction vertices on the missed facet
        rng = seeded(271)
        cases = []
        for n in (3, 4, 5):
            for space in (ca.make_linf(n), ca.make_l1(n)):
                for _ in range(4):
                    cases.append((space, ca.subspace(independent_basis(rng, n, rng.randint(2, n - 1)))))
        while len(cases) < 34:
            # rational vertices, so the vertex rows are cleared by a multiplier > 1
            points = [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)) for _ in range(6)]
            if ca.rank(ca.mat(points)) < 4:
                continue
            space = ca.make_custom(vertices=points + [neg(p) for p in points])
            cases.append((space, ca.subspace(independent_basis(rng, 4, rng.randint(2, 3)))))
        kinds = set()
        for space, y in cases:
            res = ca.is_strongly_anti_coproximinal(space, y)
            if res.status == "yes":
                continue
            on_facet = [vert for vert in space.vertices if dot(res.missed, vert) == 1]
            assert res.interior_point == centroid(on_facet)
            kinds.add((space.kind, space._vertex_ints[0] > 1))
        assert {("linf", False), ("l1", False), ("custom", True)} <= kinds, kinds


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


_FLAT = ((1, 0, 0), (0, 1, 0))

# Each call gets one point of the wrong dimension in linf3 with Y = span{e1, e2}.
_WRONG_DIMENSION = {
    "bj_orthogonal": lambda s, y: ca.bj_orthogonal(s, (1, 0, 0), (1, 0)),
    "eps_bj_orthogonal": lambda s, y: ca.eps_bj_orthogonal(s, (1, 0, 0), (1, 0), "1/2"),
    "lambda_oracle_y": lambda s, y: ca.bj_orthogonal_lambda_oracle(s, (1, 0, 0), (1, 0)),
    "lambda_oracle_x": lambda s, y: ca.bj_orthogonal_lambda_oracle(s, (1, 0), (1, 0, 0)),
    "eps_coapprox_defect": lambda s, y: ca.eps_coapprox_defect(s, y, (1, 0, 0, 1), (0, 0, 0)),
    "solve_best_coapprox": lambda s, y: ca.solve_best_coapprox(s, y, (1, 0)),
    "is_best_coapprox_x": lambda s, y: ca.is_best_coapprox(s, y, (1, 0), (0, 0, 0)),
    "is_best_coapprox_y0": lambda s, y: ca.is_best_coapprox(s, y, (0, 0, 1), (0, 0)),
    "l1_best_coapprox": lambda s, y: ca.l1_best_coapprox(L1_BASIS, (1, 0)),
    "coordinates": lambda s, y: ca.coordinates(y, (1, 0)),
    "sufficient_condition_strong": lambda s, y: ca.sufficient_condition_strong(s, y, (1, 0)),
    "necessary_condition_check": lambda s, y: ca.necessary_condition_check(s, y, (0, 0, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(_WRONG_DIMENSION))
def test_wrong_dimension_is_refused_with_the_norm_wording(linf3, name):
    with pytest.raises(ValueError) as err:
        _WRONG_DIMENSION[name](linf3, ca.subspace(_FLAT))
    message = str(err.value)
    assert "has dimension" in message
    assert "zip()" not in message and "right-hand side" not in message


# Each call gets a subspace of R^4 in linf3, with points of the space's dimension.
_WRONG_AMBIENT = {
    "is_best_coapprox": lambda s, y: ca.is_best_coapprox(s, y, (1, 2, 3), (1, 0, 0)),
    "eps_coapprox_defect": lambda s, y: ca.eps_coapprox_defect(s, y, (1, 2, 3), (1, 0, 0)),
    "sufficient_condition_strong": lambda s, y: ca.sufficient_condition_strong(s, y, (0, 0, 1)),
    "necessary_condition_check": lambda s, y: ca.necessary_condition_check(s, y, (0, 0, 1)),
    "solve_best_coapprox": lambda s, y: ca.solve_best_coapprox(s, y, (1, 2, 3)),
    "jy_set": lambda s, y: ca.jy_set(s, y),
    "jy_set_via_faces": lambda s, y: ca.jy_set_via_faces(s, y),
}


@pytest.mark.parametrize("name", sorted(_WRONG_AMBIENT))
def test_subspace_in_another_dimension_is_refused_with_one_message(linf3, name):
    y = ca.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    with pytest.raises(ValueError, match="^subspace lives in a different ambient dimension$"):
        _WRONG_AMBIENT[name](linf3, y)


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

    @pytest.mark.filterwarnings("ignore:dropped .* non-extreme")
    def test_no_fraction_embedding_on_a_cold_ball(self, monkeypatch, prism, prism_flat, prism_tilted):
        def refuse(*args):
            raise AssertionError("a point was embedded in Fractions")

        monkeypatch.setattr(coapprox.subspaces, "embed", refuse)
        monkeypatch.setattr(coapprox.coapproximation, "embed", refuse)
        monkeypatch.setattr(coapprox.subspaces, "centroid", refuse, raising=False)
        ca.induced_ball.cache_clear()
        rng = seeded(223)
        cases = [(prism, prism_flat), (prism, prism_tilted)]
        for _ in range(2):
            cases.append((_random_custom_ball(rng, 4), ca.subspace(independent_basis(rng, 4, 2))))
        for space, y in cases:
            result = ca.classify(space, y)
            assert result.engine == "generic" and result.certificates["jy_size"] > 0
            x = nonzero_point(rng, space.dim, -3, 3, 1)
            assert ca.necessary_condition_check(space, y, x) in (True, False)
            assert ca.induced_ball(space, y).faces
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
                solved = ca.solve_best_coapprox(space, y, x)
                if solved.exists:
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


class TestFunctionalsOnIntegers:
    """Every verdict reads the space's functionals from one integer pass."""

    def test_no_verdict_makes_a_fraction_dot(self, monkeypatch, prism, prism_flat, prism_tilted):
        cases = [
            (prism, prism_flat, (1, 2, 3)),
            (prism, prism_tilted, (1, 2, 3)),
            (ca.make_l1(3), ca.subspace(L1_BASIS), (1, 0, 0)),
        ]

        def verdicts(space, y, x):
            z = (1, -1, 2)
            solved = ca.solve_best_coapprox(space, y, x)
            return (
                ca.norm(space, x), ca.support_set(space, x), ca.is_smooth(space, x),
                ca.bj_orthogonal(space, x, z), ca.eps_bj_orthogonal(space, x, z, F(1, 2)),
                solved, ca.is_best_coapprox(space, y, x, solved.y0 or (0, 0, 0)),
                ca.eps_coapprox_defect(space, y, x, (0, 0, 0)),
                ca.sufficient_condition_strong(space, y, x),
                ca.necessary_condition_check(space, y, x),
                ca.is_strongly_anti_coproximinal(space, y),
            )

        expected = [verdicts(*case) for case in cases]
        assert [v[5].exists for v in expected] == [True, False, False]
        assert [v[-1].status for v in expected[1:]] == ["no", "no"]

        def refuse(*args):
            raise AssertionError("the space evaluates its functionals on integers")

        # solve_best_coapprox reads its facet rows from the induced ball
        monkeypatch.setattr(coapprox.coapproximation, "restrict", refuse, raising=False)
        for module in (coapprox.spaces, coapprox.coapproximation):
            monkeypatch.setattr(module, "dot", refuse, raising=False)
        assert [verdicts(*case) for case in cases] == expected


class TestSolverMatchesThePairSearch:
    """The interval system decides as the former search over witness pairs did."""

    def test_differential(self, prism, prism_flat, prism_tilted, prism_steep):
        rng = seeded(251)
        cases = [(prism, y) for y in (prism_flat, prism_tilted, prism_steep)]
        for n in (3, 4, 5):
            for space in (ca.make_linf(n), ca.make_l1(n)):
                for _ in range(3):
                    m = rng.randint(1, n - 1)
                    cases.append((space, ca.subspace(independent_basis(rng, n, m, -2, 2))))
        for space, bases in _fat_balls():
            for basis in bases + [independent_basis(rng, 4, rng.randint(2, 3), -1, 1)]:
                cases.append((space, ca.subspace(basis)))
        outcomes, widest = set(), 0
        for space, y in cases:
            classes = ca.induced_ball(space, y)._facet_classes
            widest = max([widest] + [len(dual) for _, dual in classes])
            for _ in range(4):
                x = nonzero_point(rng, space.dim, -3, 3, 2)
                res = ca.solve_best_coapprox(space, y, x)
                expected = _pair_search(space, y, x)
                assert (res.exists, res.failed_face) == expected, (space.kind, y.basis, x)
                if res.exists:
                    assert ca.is_best_coapprox(space, y, x, res.y0)
                    assert res.y0 == ca.embed(y, res.alpha)
                outcomes.add(res.exists)
        assert outcomes == {True, False}
        assert widest >= 4

    def test_region_is_exactly_the_set_of_best_coapproximations(self, prism, prism_flat):
        rng = seeded(257)
        cases = [(prism, prism_flat), (ca.make_l1(3), ca.subspace([(1, 0, 0), (0, 1, 0)]))]
        for _ in range(2):
            cases.append((ca.make_l1(4), ca.subspace(independent_basis(rng, 4, 2, -1, 1))))
        cases += [(space, ca.subspace(bases[0])) for space, bases in _fat_balls()]
        inside = set()
        for space, y in cases:
            checked = 0
            while checked < 3:
                x = nonzero_point(rng, space.dim, -3, 3, 2)
                res = ca.solve_best_coapprox(space, y, x)
                if not res.exists:
                    continue
                checked += 1
                alphas = [res.alpha, rational_point(rng, y.dim, -3, 3, 2)]
                for k in range(y.dim):
                    for step in (F(1, 50), F(-1, 50), F(1, 2), F(-1, 2)):
                        alphas.append(add(res.alpha, scale(unit(y.dim, k), step)))
                for alpha in alphas:
                    member = _satisfies(res.region, alpha)
                    assert member == ca.is_best_coapprox(space, y, x, ca.embed(y, alpha))
                    inside.add(member)
        assert inside == {True, False}
        # the sum-norm route returns its equality system in the same shape
        fast = ca.l1_best_coapprox(L1_BASIS, (0, 1, 1))
        assert fast.exists and _satisfies(fast.region, fast.alpha)


class TestGrowingSystemKeepsTheAnswers:
    """The solver and the anti search grow one integer system per question.

    They must answer as the former code did, which solved a fresh LP for every
    prefix: every result field and every witness is compared with the verbatim
    copies below, run on the former two-phase simplex.  The witness is now the
    grown tableau's basic point, so on the custom balls, where a region need
    not be a single point, the solver may return another point of the same
    region; that point is rechecked as a best coapproximation instead.  The
    anti search branches on violated facet classes rather than on pairs of
    functionals and finds other witnesses, so only its verdict is compared
    and each witness is rechecked.
    """

    def test_solver_matches_the_prefix_lps(self, prism, prism_flat, prism_tilted, prism_steep):
        rng = seeded(271)
        cases = [(prism, y) for y in (prism_flat, prism_tilted, prism_steep)]
        for n in (3, 4, 5):
            for space in (ca.make_linf(n), ca.make_l1(n)):
                for _ in range(3):
                    m = rng.randint(1, n - 1)
                    cases.append((space, ca.subspace(independent_basis(rng, n, m, -2, 2))))
        fat = [(space, ca.subspace(basis)) for space, bases in _fat_balls() for basis in bases]
        questions = [
            (space, y, nonzero_point(rng, space.dim, -3, 3, 2), (space, y) not in fat)
            for space, y in (cases + fat) * 4
        ]
        gen = _perfbench_gen()
        spaces = {"prism": lambda n: ca.make_custom(vertices=gen.PRISM_VERTICES),
                  "linf": ca.make_linf, "l1": ca.make_l1}
        pairs = [(spaces[kind](n), ca.subspace(rows)) for _, kind, n, rows in gen.PAIRS]
        asked = (q for q in gen.point_questions(1) if q.kind == "solve")
        questions += [(*pairs[q.pair], q.x, True) for q in itertools.islice(asked, 180)]
        outcomes = set()
        for space, y, x, exact in questions:
            res = ca.solve_best_coapprox(space, y, x)
            want = _prefix_solve_best_coapprox(space, y, x)
            where = (space.kind, y.basis, x)
            assert (res.exists, res.failed_face, res.region) == (
                want.exists, want.failed_face, want.region
            ), where
            if res.y0 != want.y0:
                # another point of a region that is not a single point
                assert not exact, where
                assert _satisfies(res.region, res.alpha) and res.y0 == ca.embed(y, res.alpha)
                assert ca.is_best_coapprox(space, y, x, res.y0), where
            outcomes.add(res.exists)
        assert outcomes == {True, False}

    @pytest.mark.filterwarnings("ignore:dropped .* non-extreme")
    def test_anti_search_gives_the_same_verdict(self, prism, prism_flat, linf3, narrow):
        rng = seeded(277)
        # the rank-2 fixture, where the search ends in exhaustion
        verts = ((1, 1, 0), (1, -1, -1), (1, 0, 1), (0, 1, 1), (1, -1, 1))
        rank_two = ca.make_custom(vertices=verts + tuple(neg(v) for v in verts))
        cases = [(rank_two, ca.subspace([(0, 1, 1), (1, 0, 1)]))]
        cases += [(prism, prism_flat), (linf3, narrow)]
        for n in (3, 4, 5):
            for space in (ca.make_linf(n), ca.make_l1(n)):
                for _ in range(8):
                    basis = independent_basis(rng, n, rng.randint(1, n - 1), -2, 2)
                    cases.append((space, ca.subspace(basis)))
        for n in (3, 4):
            for _ in range(8):
                basis = independent_basis(rng, n, 2, -2, 2)
                cases.append((_random_custom_ball(rng, n), ca.subspace(basis)))
        for space, bases in _fat_balls():
            cases += [(space, ca.subspace(basis)) for basis in bases]
        reached = []
        for space, y in cases:
            z = _assert_same_verdict(space, y, _prefix_coapproximable_direction(space, y))
            jy = ca.induced_ball(space, y).jy
            if ca.rank(jy.functionals) < space.dim and not ca.smooth_dense_in(space, y):
                reached.append(z is not None)
        assert reached[0] is False and reached.count(True) >= 10

    @pytest.mark.filterwarnings("ignore:dropped .* non-extreme")
    def test_anti_search_matches_the_pairwise_search_on_vertex_spans(self):
        verdicts = []
        for space, y in _vertex_spanned_questions(seeded(281), 150):
            want = _pairwise_coapproximable_direction(space, y)
            verdicts.append(_assert_same_verdict(space, y, want) is None)
        assert set(verdicts) == {True, False}


def _perfbench_gen():
    """The benchmark's seeded inputs, ``perfbench/gen.py``, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("_perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _prefix_facet_classes(space, y):
    """The library's ``_facet_classes`` before it became a cached property of the ball."""
    ball = ca.induced_ball(space, y)
    classes = []
    seen = set()
    for idx, (row, dual) in enumerate(zip(ball.facet_rows, ball.facet_dual)):
        if neg(row) not in seen:
            seen.add(row)
            classes.append((idx, dual))
    return classes


def _prefix_solve_best_coapprox(space, y, x):
    """Reference: the former solver, one fresh LP on the whole prefix per facet class."""
    m, values = coapprox.spaces._values(space, coapprox.spaces._checked(space.dim, x))
    rows = ca.induced_ball(space, y).facet_rows
    system = []
    point = None
    for idx, dual in _prefix_facet_classes(space, y):
        low, high = min(values[i] for i in dual), max(values[i] for i in dual)
        system += [(rows[idx], ">=", Fraction(low, m)), (rows[idx], "<=", Fraction(high, m))]
        res = _fraction_lp_solve(LpProblem(zeros(y.dim), tuple(system)))
        if res.status != "optimal":
            return ca.CoapproxResult(exists=False, failed_face=idx)
        point = res.point
    return ca.CoapproxResult(exists=True, y0=ca.embed(y, point), alpha=point, region=tuple(system))


def _prefix_coapproximable_direction(space, y):
    """Reference: the former anti search, one fresh LP on the whole prefix per tried pair."""
    classes = [[space.dual_extreme[i] for i in dual] for _, dual in _prefix_facet_classes(space, y)]

    def descend(system, level):
        for g_minus, g_plus in itertools.product(classes[level], repeat=2):
            rows = system + [(g_minus, "<=", F(0)), (g_plus, ">=", F(0))]
            res = _fraction_lp_solve(LpProblem(zeros(space.dim), tuple(rows)))
            if res.status != "optimal":
                continue
            z = res.point if level + 1 == len(classes) else descend(rows, level + 1)
            if z is not None:
                return z
        return None

    for w in ca.solve_linear(y.basis, zeros(y.dim)).nullspace:
        z = descend([(w, ">=", F(1))], 0)
        if z is not None:
            return z
    return None


def _assert_same_verdict(space, y, want):
    """The anti search's z, None exactly when ``want`` is; any other z is rechecked as a witness."""
    z = coapprox.coapproximation._coapproximable_direction(space, y)
    where = (space.vertices, y.basis)
    assert (z is None) == (want is None), where
    if z is not None:
        assert ca.coordinates(y, z) is None, where
        assert ca.is_best_coapprox(space, y, z, zeros(space.dim)), where
    return z


def _pairwise_coapproximable_direction(space, y):
    """Reference: the former integer anti search, one pair (g-, g+) per facet class, depth first."""
    _, functionals = space._functional_ints
    classes = [
        [functionals[i] for i in dual] for _, dual in ca.induced_ball(space, y)._facet_classes
    ]
    calls, cap = itertools.count(1), coapprox.coapproximation._ANTI_LP_CAP

    def descend(parent, level):
        for g_minus, g_plus in itertools.product(classes[level], repeat=2):
            if next(calls) > cap:
                raise ca.BudgetExceeded(cap, cap + 1)
            grown = parent.copy()
            if not (grown.add(g_minus, 0) and grown.add([-x for x in g_plus], 0)):
                continue
            z = grown.point() if level + 1 == len(classes) else descend(grown, level + 1)
            if z is not None:
                return z
        return None

    for w in ca.solve_linear(y.basis, zeros(y.dim)).nullspace:
        root = coapprox.linalg._Growing(space.dim)
        mult, (ints,) = coapprox.linalg._cleared([w])
        root.add([-x for x in ints], -mult)
        z = descend(root, 0)
        if z is not None:
            return z
    return None


def _vertex_spanned_questions(rng, count, dims=(3, 4, 5)):
    """(space, Y) pairs that only the anti search decides: custom balls, Y spanned by ball vertices.

    Each ball has n + 3 to n + 5 random vertices in [-2, 2]^n and their
    negatives, Y is spanned by 2 to n - 1 of its extreme vertices, and a pair
    is kept when J_Y has short rank and smooth points are not dense in Y.
    """
    questions = []
    while len(questions) < count:
        n = rng.choice(dims)
        points = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(n + 3, n + 5))]
        if ca.rank(ca.mat(points)) < n:
            continue
        space = ca.make_custom(vertices=points + [neg(p) for p in points])
        m = rng.randint(2, n - 1)
        basis = rng.sample(space.vertices, m)
        if ca.rank(basis) < m:
            continue
        y = ca.subspace(basis)
        if ca.rank(ca.induced_ball(space, y).jy.functionals) < n and not ca.smooth_dense_in(space, y):
            questions.append((space, y))
    return questions


def _fat_balls():
    """Custom balls in R^4, each with sections whose facets carry dual faces of 2-4 functionals.

    On the last section of each, the width of those dual faces decides
    whether x has a best coapproximation at all.
    """
    cross = [scale(unit(4, k), s * (k + 1)) for k in range(4) for s in (1, -1)]
    apexes = [(0, 0, 0, 2), (0, 0, 0, -2)]
    bipyramid = [p + (0,) for p in itertools.product((1, -1), repeat=3)] + apexes
    return [
        (ca.make_custom(vertices=cross),
         [[(1, 0, 0, 0), (0, 1, 0, 0)], [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 3, 0)],
          [(1, 0, 1, 0), (0, 0, 1, 1)]]),
        (ca.make_custom(vertices=bipyramid),
         [[(0, 0, 0, 1), (1, 1, 1, 0)], [(1, 0, 0, 0), (0, 0, 0, 1)],
          [(1, 1, 0, 0), (1, 0, 1, 0)]]),
    ]


def _pair_search(space, y, x):
    """Reference: the former solver, choosing one witness pair (g-, g+) per facet class.

    Each choice adds <g-, x - y0> <= 0 <= <g+, x - y0> as two rows on the
    basis coordinates of y0; prefixes are explored depth first and pruned when
    infeasible.  Returns (exists, failed_face), the latter the facet row of B_Y
    at which the deepest partial system died.
    """
    classes = _functional_classes(space, y)
    px = vec(x)
    deepest = 0

    def descend(system, level):
        nonlocal deepest
        for g_minus, g_plus in itertools.product(classes[level][1], repeat=2):
            rows = system + [
                (ca.restrict(y, g_minus), ">=", dot(g_minus, px)),
                (ca.restrict(y, g_plus), "<=", dot(g_plus, px)),
            ]
            res = _fraction_lp_solve(LpProblem(zeros(y.dim), tuple(rows)))
            if res.status == "optimal":
                deepest = max(deepest, level + 1)
                if level + 1 == len(classes) or descend(rows, level + 1):
                    return True
        return False

    if descend([], 0):
        return True, None
    return False, classes[deepest][0]


def _functional_classes(space, y):
    """One facet of B_Y per +- pair, as (row index, functionals of its dual face).

    Opposite facets carry negated dual faces and yield the same conditions.
    The library's ``_facet_classes`` before it returned dual indices, kept
    verbatim for the reference search.
    """
    ball = ca.induced_ball(space, y)
    classes = []
    seen = set()
    for idx, (row, dual) in enumerate(zip(ball.facet_rows, ball.facet_dual)):
        if neg(row) not in seen:
            seen.add(row)
            classes.append((idx, tuple(space.dual_extreme[i] for i in dual)))
    return classes


def _satisfies(system, alpha):
    ops = {">=": operator.ge, "<=": operator.le, "==": operator.eq}
    return all(ops[op](dot(row, alpha), rhs) for row, op, rhs in system)


def _random_custom_ball(rng, n):
    """A symmetric ball given by a few random integer vertices and their negatives."""
    while True:
        points = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n + 2)]
        if ca.rank(ca.mat(points)) == n:
            return ca.make_custom(vertices=points + [tuple(-c for c in p) for p in points])


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
