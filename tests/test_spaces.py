"""Polyhedral norm spaces: builders, norms, support sets, smoothness."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import coapprox as ca
from coapprox.linalg import dot, neg

from conftest import prism_vertices, rational_point, seeded

F = Fraction

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


class TestBuilders:
    def test_linf_two(self):
        sp = ca.make_linf(2)
        assert sp.kind == "linf" and sp.dim == 2
        assert set(sp.vertices) == {(F(1), F(1)), (F(1), F(-1)), (F(-1), F(1)), (F(-1), F(-1))}
        assert set(sp.dual_extreme) == {(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))}

    def test_l1_three(self):
        sp = ca.make_l1(3)
        assert sp.kind == "l1" and sp.dim == 3
        assert len(sp.vertices) == 6
        assert len(sp.dual_extreme) == 8
        assert all(all(abs(c) == 1 for c in g) for g in sp.dual_extreme)

    def test_duality_between_linf_and_l1(self):
        linf, l1 = ca.make_linf(3), ca.make_l1(3)
        assert set(linf.vertices) == set(l1.dual_extreme)
        assert set(linf.dual_extreme) == set(l1.vertices)

    def test_custom_requires_exactly_one_description(self):
        with pytest.raises(ValueError):
            ca.make_custom()
        with pytest.raises(ValueError):
            ca.make_custom(vertices=[(1, 0), (-1, 0)], facets=[(1, 0)])

    def test_custom_from_facets(self):
        sp = ca.make_custom(facets=[(1, 1), (1, -1), (-1, 1), (-1, -1)])
        assert sp.kind == "custom"
        assert set(sp.vertices) == {(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))}

    def test_size_cap(self):
        with pytest.raises(ca.SpaceTooLarge):
            ca.make_linf(13)
        with pytest.raises(ca.SpaceTooLarge):
            ca.make_l1(13)

    def test_equal_spaces_share_a_hash_and_one_cache_entry(self):
        pairs = [
            # the builders return one space per n, so the second is a copy
            (ca.make_l1(5), dataclasses.replace(ca.make_l1(5))),
            (ca.make_custom(facets=[(1, 2), (2, -1), (-1, -2), (-2, 1)]),
             ca.make_custom(facets=[(-2, 1), (-1, -2), ("2", "-1"), (F(1), F(2))])),
            # one ball given by its 12 vertices and by its 8 facets
            (ca.make_custom(vertices=prism_vertices()),
             ca.make_custom(facets=[(1, 1, 0), (-1, 1, 0), (1, -1, 0), (-1, -1, 0),
                                    (0, 2, 0), (0, -2, 0), (0, 0, 1), (0, 0, -1)])),
        ]
        for a, b in pairs:
            assert a is not b and a == b and hash(a) == hash(b)
            # a span no other test asks about, so the first lookup misses
            y = ca.subspace([tuple(F(k + 1, 13) for k in range(a.dim))])
            info = ca.induced_ball.cache_info()
            assert ca.induced_ball(a, y) is ca.induced_ball(b, y)
            after = ca.induced_ball.cache_info()
            assert (after.misses, after.hits) == (info.misses + 1, info.hits + 1)
        assert ca.make_linf(3) != ca.make_l1(3)

    def test_builders_build_each_space_once_per_n(self):
        assert ca.make_l1(5) is ca.make_l1(5)
        assert ca.make_linf(3) is ca.make_linf(3) and ca.make_linf(3) != ca.make_linf(4)
        # the cache is typed: a float n is refused, not served the n = 3 entry
        with pytest.raises(TypeError):
            ca.make_linf(3.0)
        with pytest.raises(TypeError):
            ca.make_l1(3.0)

    def test_dual_rows_have_dual_norm_one(self):
        # every stored functional attains value exactly 1 on the ball
        for sp in (ca.make_linf(3), ca.make_l1(3)):
            for g in sp.dual_extreme:
                assert max(dot(g, v) for v in sp.vertices) == 1


class TestNorm:
    def test_linf_fixture(self):
        assert ca.norm(ca.make_linf(3), (3, -2, 1)) == F(3)

    def test_l1_fixture(self):
        assert ca.norm(ca.make_l1(3), (3, -2, 1)) == F(6)

    def test_prism_fixture(self, prism):
        # facet functionals are x+y, x-y, 2y, z up to sign
        assert ca.norm(prism, (3, -2, 5)) == F(5)
        assert ca.norm(prism, (1, 0, 1)) == F(1)

    def test_zero(self):
        assert ca.norm(ca.make_linf(2), (0, 0)) == 0

    @given(st.lists(rationals, min_size=3, max_size=3), st.lists(rationals, min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_triangle_and_homogeneity(self, xs, ys):
        sp = ca.make_l1(3)
        x, y = tuple(xs), tuple(ys)
        assert ca.norm(sp, tuple(a + b for a, b in zip(x, y))) <= ca.norm(sp, x) + ca.norm(sp, y)
        assert ca.norm(sp, tuple(3 * a for a in x)) == 3 * ca.norm(sp, x)
        assert ca.norm(sp, neg(x)) == ca.norm(sp, x)


class TestSupportSet:
    def test_edge_midpoint_has_two_functionals(self):
        out = ca.support_set(ca.make_linf(3), (1, 1, 0))
        assert set(out.functionals) == {(F(1), F(0), F(0)), (F(0), F(1), F(0))}

    def test_smooth_point_has_one(self):
        out = ca.support_set(ca.make_linf(3), (1, F(1, 2), 0))
        assert out.functionals == ((F(1), F(0), F(0)),)

    def test_prism_vertex(self, prism):
        out = ca.support_set(prism, (1, 0, 1))
        assert set(out.functionals) == {
            (F(1), F(1), F(0)),
            (F(1), F(-1), F(0)),
            (F(0), F(0), F(1)),
        }

    def test_values_attain_the_norm(self):
        rng = seeded(21)
        sp = ca.make_l1(3)
        for _ in range(30):
            x = rational_point(rng, 3)
            if all(c == 0 for c in x):
                continue
            out = ca.support_set(sp, x)
            nx = ca.norm(sp, x)
            assert all(dot(g, x) == nx for g in out.functionals)
            # all other extreme functionals stay strictly below
            others = set(sp.dual_extreme) - set(out.functionals)
            assert all(dot(g, x) < nx for g in others)

    def test_zero_rejected(self):
        with pytest.raises(ca.ZeroVector):
            ca.support_set(ca.make_linf(2), (0, 0))

    def test_scaling_invariance(self):
        sp = ca.make_linf(3)
        a = ca.support_set(sp, (1, F(1, 2), F(-1, 3)))
        b = ca.support_set(sp, (4, 2, F(-4, 3)))
        assert a == b


class TestSmooth:
    def test_linf_fixtures(self):
        sp = ca.make_linf(2)
        assert ca.is_smooth(sp, (1, F(1, 2)))
        assert not ca.is_smooth(sp, (1, 1))

    def test_l1_fixtures(self):
        sp = ca.make_l1(2)
        assert not ca.is_smooth(sp, (1, 0))
        assert ca.is_smooth(sp, (1, F(1, 2)))

    def test_zero_rejected(self):
        with pytest.raises(ca.ZeroVector):
            ca.is_smooth(ca.make_linf(2), (0, 0))

    def test_matches_support_set_size(self):
        rng = seeded(23)
        for sp in (ca.make_linf(3), ca.make_l1(3)):
            for _ in range(25):
                x = rational_point(rng, 3)
                if all(c == 0 for c in x):
                    continue
                assert ca.is_smooth(sp, x) == (len(ca.support_set(sp, x).functionals) == 1)
