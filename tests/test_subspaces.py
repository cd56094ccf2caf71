"""Induced balls, facet duals, and the norming-functional set of a subspace."""

from fractions import Fraction

import pytest

import coapprox as ca
import coapprox.polytope
from coapprox.linalg import canonical_sorted, dot, neg, unit
from coapprox.polytope import conv_facets

from conftest import NARROW_BASIS, independent_basis, prism_vertices, rational_point, seeded

F = Fraction


class TestSubspaceBasics:
    def test_dependent_rows_rejected(self):
        with pytest.raises(ca.DependentBasis):
            ca.subspace([(1, 2, 0), (2, 4, 0)])

    def test_coordinates_and_embed_round_trip(self):
        y = ca.subspace([(1, 0, 2), (0, 1, -1)])
        alpha = (F(2), F(-3, 2))
        x = ca.embed(y, alpha)
        assert ca.coordinates(y, x) == alpha
        assert ca.point_in_subspace(y, x)

    def test_outside_point(self):
        y = ca.subspace([(1, 0, 0), (0, 1, 0)])
        assert ca.coordinates(y, (0, 0, 1)) is None
        assert not ca.point_in_subspace(y, (0, 0, 1))

    def test_restrict_is_the_adjoint(self):
        rng = seeded(31)
        y = ca.subspace([(1, 1, 2), (2, 0, -1)])
        for _ in range(20):
            g = rational_point(rng, 3)
            alpha = rational_point(rng, 2)
            assert dot(ca.restrict(y, g), alpha) == dot(g, ca.embed(y, alpha))


class TestInducedBall:
    def test_flat_prism_section_is_a_hexagon(self, prism, prism_flat):
        ball = ca.induced_ball(prism, prism_flat)
        h = F(1, 2)
        assert set(ball.vertices) == {
            (F(1), F(0)), (F(-1), F(0)),
            (h, h), (-h, h), (-h, -h), (h, -h),
        }

    def test_tilted_prism_section(self, prism, prism_tilted):
        ball = ca.induced_ball(prism, prism_tilted)
        t = F(2, 3)
        assert set(ball.vertices) == {
            (F(1), F(0)), (F(-1), F(0)),
            (F(0), F(1)), (F(0), F(-1)),
            (t, -t), (-t, t),
        }

    def test_wide_linf_section(self):
        y = ca.subspace([(3, 0, 2), (0, 3, 2)])
        ball = ca.induced_ball(ca.make_linf(3), y)
        assert set(ball.vertices) == {
            (F(1, 3), F(1, 6)), (F(1, 6), F(1, 3)), (F(-1, 3), F(1, 3)),
            (F(-1, 3), F(-1, 6)), (F(-1, 6), F(-1, 3)), (F(1, 3), F(-1, 3)),
        }

    def test_vertices_have_ambient_norm_one(self, prism, prism_tilted):
        ball = ca.induced_ball(prism, prism_tilted)
        for v in ball.vertices:
            assert ca.norm(prism, ca.embed(prism_tilted, v)) == 1

    def test_facet_duals_restrict_to_their_row(self, prism, prism_tilted):
        ball = ca.induced_ball(prism, prism_tilted)
        for row, dual in zip(ball.facet_rows, ball.facet_dual):
            assert dual
            for i in dual:
                assert ca.restrict(prism_tilted, prism.dual_extreme[i]) == row

    def test_facet_duals_nonempty_on_random_sections(self):
        rng = seeded(33)
        for _ in range(15):
            n = rng.choice([3, 4])
            m = rng.randint(2, n - 1)
            sp = ca.make_linf(n) if rng.random() < 0.5 else ca.make_l1(n)
            y = ca.subspace(independent_basis(rng, n, m))
            ball = ca.induced_ball(sp, y)
            assert all(ball.facet_dual)
            # the two-pass route (vertices from the rows, then facets from the
            # vertices) is the oracle for the single conversion pass
            rows = (ca.restrict(y, g) for g in sp.dual_extreme)
            distinct = tuple(r for r in dict.fromkeys(rows) if any(r))
            assert ball.vertices == ca.h_to_v(ca.HRep(distinct, m)).vertices
            assert ball.facet_rows == ca.v_to_h(ca.VRep(ball.vertices, m)).facets

    def test_one_conversion_pass_per_ball(self, monkeypatch):
        calls = []

        def counting(points):
            calls.append(len(points))
            return conv_facets(points)

        monkeypatch.setattr(coapprox.polytope, "conv_facets", counting)
        centres = [(0, 0, 1), (0, 0, -1)]  # face centres: not vertices of the prism
        with pytest.warns(UserWarning, match="dropped 2"):
            prism = ca.make_custom(vertices=prism_vertices() + centres)
        assert len(calls) == 1
        cube = [unit(3, i) for i in range(3)]
        shrunk = [(F(1, 2), 0, 0), (F(-1, 2), 0, 0)]  # a slack row of the cube
        with pytest.warns(UserWarning, match="dropped 2"):
            ca.make_custom(facets=cube + [neg(f) for f in cube] + shrunk)
        assert len(calls) == 2
        # a span no other test asks about, so the cache misses
        y = ca.subspace([(1, F(2, 7), 0), (0, 1, F(-3, 11))])
        misses = ca.induced_ball.cache_info().misses
        ca.induced_ball(prism, y)
        assert ca.induced_ball.cache_info().misses == misses + 1
        assert len(calls) == 3

    def test_flat_section_duals_are_singletons(self, prism, prism_flat):
        ball = ca.induced_ball(prism, prism_flat)
        assert all(len(d) == 1 for d in ball.facet_dual)

    def test_narrow_section_has_a_fat_dual(self):
        y = ca.subspace(NARROW_BASIS)
        ball = ca.induced_ball(ca.make_linf(3), y)
        assert any(len(d) == 2 for d in ball.facet_dual)


class TestSmoothDense:
    def test_flat_prism_section(self, prism, prism_flat):
        assert ca.smooth_dense_in(prism, prism_flat)

    def test_narrow_linf_section(self):
        assert not ca.smooth_dense_in(ca.make_linf(3), ca.subspace(NARROW_BASIS))


class TestJySet:
    def test_tilted_section_misses_one_pair(self, prism, prism_tilted):
        jy = ca.jy_set(prism, prism_tilted)
        assert len(jy.functionals) == 6
        funcs = set(jy.functionals)
        assert (F(0), F(2), F(0)) not in funcs
        assert (F(0), F(-2), F(0)) not in funcs

    def test_steep_section_hits_everything(self, prism, prism_steep):
        jy = ca.jy_set(prism, prism_steep)
        assert set(jy.functionals) == set(prism.dual_extreme)

    def test_closed_under_negation(self, prism, prism_tilted):
        funcs = set(ca.jy_set(prism, prism_tilted).functionals)
        assert funcs == {neg(g) for g in funcs}

    def test_witnesses_are_smooth_unit_normers(self, prism, prism_flat, prism_tilted, prism_steep):
        for y in (prism_flat, prism_tilted, prism_steep):
            _assert_smooth_unit_normers(prism, y, ca.jy_set(prism, y))

    def test_witnesses_recheck_on_random_sections(self):
        rng = seeded(41)
        for _ in range(24):
            kind = rng.choice(["linf", "l1"])
            n = rng.choice([3, 4, 5] if kind == "linf" else [3, 4])
            m = rng.randint(2, n - 1)
            sp = ca.make_linf(n) if kind == "linf" else ca.make_l1(n)
            y = ca.subspace(independent_basis(rng, n, m))
            _assert_smooth_unit_normers(sp, y, ca.jy_set(sp, y))

    def test_two_routes_agree_on_fixtures(self, prism, prism_flat, prism_tilted, prism_steep):
        cases = [
            (prism, prism_flat),
            (prism, prism_tilted),
            (prism, prism_steep),
            (ca.make_linf(3), ca.subspace(NARROW_BASIS)),
            (ca.make_linf(3), ca.subspace([(3, 0, 2), (0, 3, 2)])),
        ]
        for sp, y in cases:
            assert ca.jy_set(sp, y).indices == ca.jy_set_via_faces(sp, y).indices

    def test_two_routes_agree_on_random_sections(self):
        rng = seeded(37)
        for _ in range(20):
            n = rng.choice([3, 4])
            m = rng.randint(2, n - 1)
            sp = ca.make_linf(n) if rng.random() < 0.5 else ca.make_l1(n)
            y = ca.subspace(independent_basis(rng, n, m))
            assert ca.jy_set(sp, y).indices == ca.jy_set_via_faces(sp, y).indices

    def test_indices_point_into_dual_extreme(self, prism, prism_tilted):
        jy = ca.jy_set(prism, prism_tilted)
        for i, g in zip(jy.indices, jy.functionals):
            assert prism.dual_extreme[i] == g


def _assert_smooth_unit_normers(space, y, jy):
    """Each witness lies in Y, has norm one, and its functional is its only normer."""
    assert len(jy.witnesses) == len(jy.indices)
    for i, w in zip(jy.indices, jy.witnesses):
        assert ca.point_in_subspace(y, w)
        assert ca.norm(space, w) == 1
        assert ca.support_set(space, w).indices == (i,)
