"""Induced balls, facet duals, and the norming-functional set of a subspace."""

import warnings
from fractions import Fraction
from operator import mul

import pytest

import coapprox as ca
import coapprox.polytope
import coapprox.subspaces
from coapprox.errors import Discrepancy
from coapprox.linalg import (
    ONE,
    Vector,
    _cleared,
    canonical_sorted,
    dot,
    is_zero,
    neg,
    rank,
    unit,
)
from coapprox.polytope import _incidences, conv_facets
from coapprox.spaces import PolyhedralSpace
from coapprox.subspaces import InducedBall, Subspace, _check_ambient, _jy

from conftest import (
    NARROW_BASIS,
    centroid,
    independent_basis,
    prism_vertices,
    rational_point,
    seeded,
)

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

    def test_equal_subspaces_share_a_hash_and_one_cache_entry(self):
        space = ca.make_linf(4)
        # a span no other test asks about, spelled two ways
        a = ca.subspace([(1, F(1, 17), 0, 2), (0, 1, -1, F(3, 17))])
        b = ca.subspace([("1", "1/17", 0, 2), (F(0), 1, -1, "3/17")])
        assert a is not b and a == b and hash(a) == hash(b)
        # the hash is kept, so a lookup does not hash the basis again
        assert a.__dict__["_hash"] == hash(a.basis)
        info = ca.induced_ball.cache_info()
        assert ca.induced_ball(space, a) is ca.induced_ball(space, b)
        after = ca.induced_ball.cache_info()
        assert (after.misses, after.hits) == (info.misses + 1, info.hits + 1)
        assert ca.subspace([(1, 0, 0, 0)]) != ca.subspace([(0, 1, 0, 0)])


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
            assert ball.vertices == ca.h_to_v(distinct)
            assert ball.facet_rows == ca.v_to_h(ball.vertices)

    def test_one_conversion_pass_per_ball(self, monkeypatch):
        calls = []

        def counting(points):
            calls.append(len(points))
            return conv_facets(points)

        # custom balls look it up in polytope, induced balls in subspaces
        monkeypatch.setattr(coapprox.polytope, "conv_facets", counting)
        monkeypatch.setattr(coapprox.subspaces, "conv_facets", counting)
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


def _oracle_induced_ball(space, y):
    """``induced_ball`` before the integer incidence pass, without its caching.

    Tight facets by Fraction dot products and a rank test, facet duals by
    comparing every facet row with every restricted functional, and the
    vertex-norm recheck through ``norm``.
    """
    restricted = [ca.restrict(y, g) for g in space.dual_extreme]
    distinct = tuple(row for row in dict.fromkeys(restricted) if not is_zero(row))
    vertices = conv_facets(distinct)
    rows = tuple(
        p for p in distinct
        if rank(tuple(f for f in vertices if dot(f, p) == ONE)) == y.dim
    )
    facet_rows = canonical_sorted(rows)
    facet_dual = tuple(
        tuple(i for i, row in enumerate(restricted) if row == facet) for facet in facet_rows
    )
    assert all(ca.norm(space, ca.embed(y, vert)) == ONE for vert in vertices)
    return vertices, facet_rows, facet_dual


def _oracle_jy_set_via_faces(space, y):
    """``jy_set_via_faces`` before ``induced_ball`` built J_Y: Fraction centroids, embedded.

    The vertices on each facet come from Fraction dot products with its row.
    """
    ball = ca.induced_ball(space, y)
    facet_vertices = tuple(
        tuple(k for k, vert in enumerate(ball.vertices) if dot(row, vert) == ONE)
        for row in ball.facet_rows
    )
    found = {}
    for on_facet, dual in zip(facet_vertices, ball.facet_dual):
        if len(dual) != 1 or dual[0] in found:
            continue
        found[dual[0]] = ca.embed(y, centroid([ball.vertices[k] for k in on_facet]))
    indices = tuple(sorted(found))
    return ca.JYSet(
        indices=indices,
        functionals=tuple(space.dual_extreme[i] for i in indices),
        witnesses=tuple(found[i] for i in indices),
    )


def _differential_sections(rng):
    """Seeded max-norm, sum-norm and custom-ball sections with n = 3-7."""
    for n in (3, 4, 5, 6, 7):
        for make in (ca.make_linf, ca.make_l1):
            for _ in range(3 if n < 7 else 1):
                yield make(n), ca.subspace(independent_basis(rng, n, rng.randint(2, n - 1), -3, 3))
    prism = ca.make_custom(vertices=prism_vertices())
    for _ in range(4):
        yield prism, ca.subspace(independent_basis(rng, 3, 2, -3, 3))
    for n in (4, 5):
        for _ in range(3):
            pts = [rational_point(rng, n, -3, 3, 2) for _ in range(n + 2)]
            while ca.rank(tuple(pts)) < n:
                pts.append(rational_point(rng, n, -3, 3, 2))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                space = ca.make_custom(vertices=pts + [neg(p) for p in pts])
            yield space, ca.subspace(independent_basis(rng, n, rng.randint(2, n - 1), -3, 3))


def test_induced_ball_matches_the_rank_test_route():
    rng = seeded(35)
    for space, y in _differential_sections(rng):
        ca.induced_ball.cache_clear()
        ball = ca.induced_ball(space, y)
        assert (ball.vertices, ball.facet_rows, ball.facet_dual) == _oracle_induced_ball(space, y)
        assert ball.jy == _oracle_jy_set_via_faces(space, y)
        assert ball.vertex_dual == tuple(
            ca.support_set(space, ca.embed(y, vert)).indices for vert in ball.vertices
        )
        if space.dim <= 4:
            for data in ball.faces:
                on_face = [ca.embed(y, ball.vertices[k]) for k in data.face.vertices]
                assert data.dual == tuple(
                    i for i, g in enumerate(space.dual_extreme)
                    if all(dot(g, x) == ONE for x in on_face)
                )


# ``induced_ball`` and ``extreme_subset`` before the one integer product,
# verbatim but for the cache and the module prefixes: three passes find which
# restricted row is 1 at which vertex (the hull's row incidences, a
# Fraction-keyed ``by_row`` dict, and an ambient recheck of every vertex
# against every extreme functional).  Kept as the oracle of the product.


def _three_pass_extreme_subset(
    points: tuple[Vector, ...],
) -> tuple[tuple[Vector, ...], tuple[Vector, ...], tuple[tuple[int, ...], ...]]:
    """One conversion pass: (extreme points among ``points``, facets of their hull, incidences).

    The minimal face through a boundary point p is the meet of the hull
    facets through it, and a face of dimension >= 1 holds at least two
    vertices, all of them input points.  So p is extreme exactly when it lies
    on some facet and the facets through it share no other input point; one
    integer incidence pass over the single ``conv_facets`` call yields both
    representations of the hull.  The third entry lists, for each kept
    point, the indices of the facets through it.  Read through polarity for
    the polytope {x : <p, x> <= 1}, the kept points are its irredundant facet
    rows, the hull facets its vertices and the third entry its facet-vertex
    incidences.  Points must be distinct; duplicates raise ValueError.
    """
    if len(set(points)) != len(points):
        raise ValueError("extreme_subset needs distinct points")
    facets = conv_facets(points)
    masks = _incidences(facets, points)
    keep, tight = [], []
    for i, p in enumerate(points):
        through = [j for j, mask in enumerate(masks) if mask >> i & 1]
        meet = -1
        for j in through:
            meet &= masks[j]
        if through and meet == 1 << i:
            keep.append(p)
            tight.append(tuple(through))
    return tuple(keep), facets, tuple(tight)


def _three_pass_induced_ball(space: PolyhedralSpace, y: Subspace) -> InducedBall:
    """Compute B_Y = B_X /\\ Y in basis coordinates, with its dual faces and J_Y."""
    _check_ambient(space, y)
    # restrict(y, g) for every g, on cleared integers: Fractions are made
    # once per distinct restricted row
    gm, functionals = space._functional_ints
    bm, basis = _cleared(y.basis)
    by_key: dict[tuple[int, ...], list[int]] = {}
    for i, g in enumerate(functionals):
        by_key.setdefault(tuple(sum(map(mul, g, b)) for b in basis), []).append(i)
    by_row = {tuple(Fraction(v, gm * bm) for v in key): dual for key, dual in by_key.items()}
    distinct = tuple(row for row in by_row if not is_zero(row))
    # B_Y = {alpha : <row, alpha> <= 1}: its facet rows are the extreme rows,
    # the facets of their hull are its vertices (polarity), and the hull
    # facets through a row are the vertices on that facet of B_Y.
    rows, vertices, tight = _three_pass_extreme_subset(distinct)
    order = sorted(range(len(rows)), key=rows.__getitem__)
    facet_rows = tuple(rows[k] for k in order)
    facet_dual = tuple(tuple(by_row.get(row, ())) for row in facet_rows)
    if not all(facet_dual):
        raise Discrepancy("every facet row of B_Y restricts from some dual extreme")
    # each vertex embedded once on cleared integers: ambient[k] is
    # bm * pm * embed(y, vertices[k]), so g_i is 1 at the vertex exactly
    # when its integer value there is gm * bm * pm
    pm, coords = _cleared(vertices)
    cols = list(zip(*basis))
    ambient = [[sum(map(mul, c, col)) for col in cols] for c in coords]
    one = gm * bm * pm
    vertex_dual = []
    for x in ambient:
        values = [sum(map(mul, g, x)) for g in functionals]
        if max(values) != one:
            raise Discrepancy("B_Y vertices lie on the unit sphere of X")
        vertex_dual.append(tuple(i for i, value in enumerate(values) if value == one))
    # a facet with singleton dual g lies in the interior of g's facet of B_X,
    # so its vertex centroid, embedded, is a smooth witness for g
    found: dict[int, Vector] = {}
    for k, dual in zip(order, facet_dual):
        if len(dual) == 1 and dual[0] not in found:
            total = [sum(col) for col in zip(*(ambient[v] for v in tight[k]))]
            found[dual[0]] = tuple(Fraction(t, len(tight[k]) * bm * pm) for t in total)
    return InducedBall(
        vertices=vertices,
        facet_rows=facet_rows,
        facet_dual=facet_dual,
        vertex_dual=tuple(vertex_dual),
        jy=_jy(space, found),
    )


def _product_sections(rng):
    """Both families at n = 3-8 with every m, the prism, a custom ball and a sum-norm 10/3 span."""
    for n in range(3, 9):
        for make in (ca.make_linf, ca.make_l1):
            for m in range(1, n + 1):
                yield make(n), ca.subspace(independent_basis(rng, n, m, -3, 3))
    prism = ca.make_custom(vertices=prism_vertices())
    pts = [rational_point(rng, 4, -3, 3, 2) for _ in range(6)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        custom = ca.make_custom(vertices=pts + [neg(p) for p in pts])
    for space in (prism, custom):
        for m in range(1, space.dim + 1):
            yield space, ca.subspace(independent_basis(rng, space.dim, m, -3, 3))
    yield ca.make_l1(10), ca.subspace(independent_basis(rng, 10, 3, -3, 3))


def test_one_integer_product_matches_the_three_pass_ball():
    rng = seeded(23)
    sections = 0
    for space, y in _product_sections(rng):
        ca.induced_ball.cache_clear()
        assert repr(ca.induced_ball(space, y)) == repr(_three_pass_induced_ball(space, y))
        sections += 1
    assert sections == 2 * sum(range(3, 9)) + 3 + 4 + 1
