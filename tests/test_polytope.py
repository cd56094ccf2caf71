"""Polytope layer: facet enumeration, V/H round trips, face lattices."""

from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

import coapprox as ca
import coapprox.polytope as polytope
from coapprox.linalg import (
    ONE,
    ZERO,
    canonical_sorted,
    dot,
    is_zero,
    neg,
    rank,
    solve_linear,
    vec,
    zeros,
)

from conftest import independent_basis, prism_vertices, rational_point, seeded

F = Fraction

SQUARE = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
CUBE_FACETS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def test_square_facets():
    facets = ca.conv_facets(SQUARE)
    assert set(facets) == {
        (F(1), F(0)),
        (F(-1), F(0)),
        (F(0), F(1)),
        (F(0), F(-1)),
    }


def test_facets_scale_with_the_body():
    # diamond with vertices (+-2, 0), (0, +-2): rows come out normalized to <= 1
    facets = ca.conv_facets([(2, 0), (0, 2), (-2, 0), (0, -2)])
    assert set(facets) == {
        (F(1, 2), F(1, 2)),
        (F(1, 2), F(-1, 2)),
        (F(-1, 2), F(1, 2)),
        (F(-1, 2), F(-1, 2)),
    }


def test_interior_points_are_ignored():
    facets = ca.conv_facets(SQUARE + [(0, 0), (F(1, 2), F(1, 2))])
    assert set(facets) == set(ca.conv_facets(SQUARE))


def test_octahedron_has_eight_facets():
    facets = ca.conv_facets(OCTAHEDRON)
    assert len(facets) == 8
    assert set(facets) == {
        tuple(F(s) for s in signs)
        for signs in [
            (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
            (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1),
        ]
    }


def test_facet_entries_are_fractions():
    for points in (SQUARE, OCTAHEDRON, prism_vertices()):
        facets = ca.conv_facets(points)
        assert all(type(x) is Fraction for f in facets for x in f)


def test_ray_loop_needs_no_fraction_dot(monkeypatch):
    def refuse(u, v):
        raise AssertionError("the double description works on integer rays")

    monkeypatch.setattr(polytope, "dot", refuse)
    assert len(polytope.conv_facets(OCTAHEDRON)) == 8


def test_flat_input_rejected():
    with pytest.raises(ca.DegenerateInput):
        ca.conv_facets([(1, 0), (-1, 0)])


def test_unbounded_h_rep_rejected():
    with pytest.raises(ca.UnboundedInput):
        ca.h_to_v(ca.h_rep([(1, 0)]))


class TestRoundTrips:
    def roundtrip(self, vertices):
        v = ca.v_rep(vertices)
        h = ca.v_to_h(v)
        back = ca.h_to_v(h)
        assert canonical_sorted(back.vertices) == canonical_sorted(v.vertices)
        # every vertex saturates at least dim facets and violates none
        for x in v.vertices:
            tight = sum(1 for g in h.facets if dot(g, x) == 1)
            assert tight >= v.dim
            assert all(dot(g, x) <= 1 for g in h.facets)

    def test_cube(self):
        self.roundtrip(ca.h_to_v(ca.h_rep(CUBE_FACETS)).vertices)

    def test_cross_polytope(self):
        self.roundtrip(OCTAHEDRON)

    def test_prism(self):
        self.roundtrip(prism_vertices())

    def test_cube_h_to_v(self):
        v = ca.h_to_v(ca.h_rep(CUBE_FACETS))
        assert len(v.vertices) == 8
        assert set(v.vertices) == {
            tuple(F(s) for s in signs)
            for signs in [
                (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
                (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1),
            ]
        }


class TestFaceLattice:
    def census(self, vertices):
        v = ca.v_rep(vertices)
        h = ca.v_to_h(v)
        return ca.face_census(v, h), v, h

    def test_cube_census(self):
        census, _, _ = self.census(ca.h_to_v(ca.h_rep(CUBE_FACETS)).vertices)
        assert census == {0: 8, 1: 12, 2: 6}

    def test_octahedron_census(self):
        census, _, _ = self.census(OCTAHEDRON)
        assert census == {0: 6, 1: 12, 2: 8}

    def test_prism_census(self):
        census, v, h = self.census(prism_vertices())
        assert census == {0: 12, 1: 18, 2: 8}
        # Euler relation for a 3-polytope boundary
        assert census[0] - census[1] + census[2] == 2

    def test_faces_are_nonempty_and_graded(self):
        _, v, h = self.census(prism_vertices())
        faces = ca.enumerate_faces(v, h)
        assert all(face.vertices for face in faces)
        assert all(0 <= face.dim < v.dim for face in faces)
        # facet list and top-dimensional faces agree in number
        top = [f for f in faces if f.dim == v.dim - 1]
        assert len(top) == len(h.facets)

    def test_face_vertex_sets_are_distinct(self):
        _, v, h = self.census(prism_vertices())
        faces = ca.enumerate_faces(v, h)
        seen = {frozenset(f.vertices) for f in faces}
        assert len(seen) == len(faces)


# The double description before rays became integer tuples with bitmask zero
# sets: every ray's zero set was rebuilt from Fraction dot products at each
# insertion.  Kept verbatim as the oracle for ``conv_facets``.


def _oracle_primitive(ray):
    mult = lcm(*(x.denominator for x in ray))
    ints = [int(x * mult) for x in ray]
    g = gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    return tuple(Fraction(x) for x in ints)


def _oracle_initial_rays(rows, d):
    picked = []
    basis = []
    for i, row in enumerate(rows):
        if rank(tuple(basis) + (row,)) > len(basis):
            picked.append(i)
            basis.append(row)
            if len(basis) == d:
                break
    if len(basis) < d:
        raise ca.DegenerateInput("input rows do not span the space")
    cols = []
    b = tuple(basis)
    for j in range(d):
        sol = solve_linear(b, tuple(ONE if k == j else ZERO for k in range(d)))
        if sol.kind != "unique":
            raise ca.Discrepancy("independent rows give a unique inverse column")
        cols.append(sol.particular)
    return picked, cols


def _oracle_extreme_rays(rows):
    d = len(rows[0])
    picked, rays = _oracle_initial_rays(rows, d)
    order = picked + [i for i in range(len(rows)) if i not in picked]
    processed = list(picked)

    def zero_set(ray):
        return frozenset(i for i in processed if dot(rows[i], ray) == 0)

    current = [_oracle_primitive(list(r)) for r in rays]
    for idx in order[d:]:
        a = rows[idx]
        vals = {r: dot(a, r) for r in current}
        plus = [r for r in current if vals[r] > 0]
        zero = [r for r in current if vals[r] == 0]
        minus = [r for r in current if vals[r] < 0]
        if not minus:
            processed.append(idx)
            continue
        zsets = {r: zero_set(r) for r in current}
        combined = {}
        for p in plus:
            for q in minus:
                meet = zsets[p] & zsets[q]
                if any(
                    meet <= zsets[r] for r in current if r is not p and r is not q
                ):
                    continue
                new = [vals[p] * qc - vals[q] * pc for pc, qc in zip(p, q)]
                combined[_oracle_primitive(new)] = None
        processed.append(idx)
        current = plus + zero + list(combined)
    return current


def _oracle_conv_facets(points):
    pts = list(dict.fromkeys(vec(p) for p in points))
    if not pts:
        raise ca.DegenerateInput("empty point set")
    d = len(pts[0])
    rows = [neg(p) + (ONE,) for p in pts]
    rows.append(zeros(d) + (ONE,))
    rays = _oracle_extreme_rays(rows)
    facets = []
    for ray in rays:
        if ray[d] == 0:
            raise ca.DegenerateInput("origin is not interior to the hull")
        facets.append(tuple(x / ray[d] for x in ray[:d]))
    return canonical_sorted(facets)


def _outcome(conv, points):
    try:
        return "facets", conv(points)
    except Exception as exc:  # the error itself is part of the compared outcome
        return "error", (type(exc), str(exc))


def _section_rows(rng):
    """Distinct nonzero restricted rows of seeded max/sum-norm and prism sections."""
    cases = []
    for _ in range(30):
        n = rng.randint(3, 5)
        space = rng.choice((ca.make_linf, ca.make_l1))(n)
        cases.append((space, ca.subspace(independent_basis(rng, n, rng.randint(2, n - 1), -3, 3))))
    prism = ca.make_custom(vertices=prism_vertices())
    for _ in range(6):
        cases.append((prism, ca.subspace(independent_basis(rng, 3, 2, -3, 3))))
    for space, y in cases:
        restricted = (ca.restrict(y, g) for g in space.dual_extreme)
        yield tuple(row for row in dict.fromkeys(restricted) if not is_zero(row))


def _symmetric_sets(rng):
    """Symmetric point sets that span, padded with points inside their hull.

    The cubes come first: their degenerate vertex figures give pairs of rays
    that share d - 2 zero rows without being adjacent.
    """
    yield list(product((1, -1), repeat=5))
    for d in (2, 3, 4):
        yield list(product((1, 0, -1), repeat=d))
    for _ in range(30):
        d = rng.randint(2, 5)
        pts = [rational_point(rng, d, -3, 3, 3) for _ in range(rng.randint(d, d + 3))]
        pts += [neg(p) for p in pts]
        pts += [tuple(x / 2 for x in pts[rng.randrange(len(pts))]) for _ in range(3)]
        pts += [tuple((a + b) / 2 for a, b in zip(pts[0], pts[1]))]
        yield pts


def _unstructured_sets(rng):
    """Random rational point sets, many of them flat or missing the origin."""
    for _ in range(100):
        d = rng.randint(1, 5)
        yield [rational_point(rng, d, -4, 4, 3) for _ in range(rng.randint(1, 2 * d + 3))]


@pytest.mark.parametrize("kind", ["sections", "symmetric", "unstructured"])
def test_conv_facets_matches_the_zero_set_rebuild(kind):
    rng = seeded({"sections": 251, "symmetric": 252, "unstructured": 253}[kind])
    draw = {"sections": _section_rows, "symmetric": _symmetric_sets,
            "unstructured": _unstructured_sets}[kind]
    raised = 0
    for points in draw(rng):
        kind_got, got = _outcome(ca.conv_facets, points)
        assert (kind_got, got) == _outcome(_oracle_conv_facets, points)
        if kind_got == "error":
            raised += 1
        else:
            assert all(type(x) is Fraction for f in got for x in f)
    if kind == "unstructured":
        assert 10 <= raised <= 90
    else:
        assert raised == 0
