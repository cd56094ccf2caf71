"""Polytope layer: facet enumeration, V/H round trips, face lattices."""

from fractions import Fraction

import pytest

import coapprox as ca
from coapprox.linalg import canonical_sorted, dot

from conftest import prism_vertices

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
