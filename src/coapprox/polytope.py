"""Exact V- and H-representations of origin-symmetric full-dimensional polytopes.

The single geometric primitive is ``conv_facets``: given points spanning the
space with the origin interior to their hull, it returns the irredundant facet
functionals f of the hull, normalized as {x : <f, x> <= 1}.  Both conversion
directions reduce to it through bipolar polarity: the vertices of
{x : <f, x> <= 1 for all f in H} are exactly the facet functionals of conv(H).
``extreme_subset`` gets both representations of a ball from one such call,
by keeping the inputs at which the tight facets have full rank.

``conv_facets`` homogenizes to the cone {(f, t) : <s, f> <= t, t >= 0} and
enumerates its extreme rays by the double description method: start from a
simplicial subcone given by d+1 independent rows, insert the remaining
half-spaces one at a time, and combine adjacent positive/negative ray pairs on
each new hyperplane.  Adjacency uses the standard combinatorial test (no third
ray's zero set contains the intersection of the pair's zero sets).  All
arithmetic is exact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DegenerateInput, Discrepancy, UnboundedInput
from .linalg import (
    ONE,
    Vector,
    ZERO,
    affine_rank,
    canonical_sorted,
    dot,
    neg,
    rank,
    solve_linear,
    vec,
    zeros,
)


@dataclass(frozen=True)
class VRep:
    """Vertex description of a polytope; every listed point is a vertex."""

    vertices: tuple[Vector, ...]
    dim: int


@dataclass(frozen=True)
class HRep:
    """Facet description {x : <f, x> <= 1 for all f}; irredundant."""

    facets: tuple[Vector, ...]
    dim: int


@dataclass(frozen=True)
class FaceDescriptor:
    """A nonempty proper face, recorded combinatorially.

    ``vertices`` holds the indices of all polytope vertices on it and
    ``dim`` its affine dimension.
    """

    vertices: frozenset[int]
    dim: int


def _primitive(ray: list[Fraction]) -> Vector:
    """Scale a ray by a positive rational to primitive integer coordinates."""
    mult = lcm(*(x.denominator for x in ray))
    ints = [int(x * mult) for x in ray]
    g = gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    return tuple(Fraction(x) for x in ints)


def _initial_rays(rows: list[Vector], d: int) -> tuple[list[int], list[Vector]]:
    """Pick d independent rows and return their indices with the inverse columns.

    The subcone {y : B y >= 0} for the picked nonsingular B is simplicial; its
    extreme rays are the columns of B^{-1}.
    """
    picked: list[int] = []
    basis: list[Vector] = []
    for i, row in enumerate(rows):
        if rank(tuple(basis) + (row,)) > len(basis):
            picked.append(i)
            basis.append(row)
            if len(basis) == d:
                break
    if len(basis) < d:
        raise DegenerateInput("input rows do not span the space")
    cols = []
    b = tuple(basis)
    for j in range(d):
        sol = solve_linear(b, tuple(ONE if k == j else ZERO for k in range(d)))
        if sol.kind != "unique":
            raise Discrepancy("independent rows give a unique inverse column")
        cols.append(sol.particular)
    return picked, cols


def _extreme_rays(rows: list[Vector]) -> list[Vector]:
    """Extreme rays of the pointed cone {y : <row, y> >= 0 for all rows}."""
    d = len(rows[0])
    picked, rays = _initial_rays(rows, d)
    order = picked + [i for i in range(len(rows)) if i not in picked]
    processed: list[int] = list(picked)

    def zero_set(ray: Vector) -> frozenset[int]:
        return frozenset(i for i in processed if dot(rows[i], ray) == 0)

    current = [_primitive(list(r)) for r in rays]
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
        combined: dict[Vector, None] = {}
        for p in plus:
            for q in minus:
                meet = zsets[p] & zsets[q]
                if any(
                    meet <= zsets[r] for r in current if r is not p and r is not q
                ):
                    continue
                new = [vals[p] * qc - vals[q] * pc for pc, qc in zip(p, q)]
                combined[_primitive(new)] = None
        processed.append(idx)
        current = plus + zero + list(combined)
    return current


def conv_facets(points) -> tuple[Vector, ...]:
    """Irredundant facet functionals of conv(points), scaled to <f, x> <= 1.

    Requires the points to span the space with the origin interior to the
    hull; raises DegenerateInput otherwise.
    """
    pts = list(dict.fromkeys(vec(p) for p in points))
    if not pts:
        raise DegenerateInput("empty point set")
    d = len(pts[0])
    rows = [neg(p) + (ONE,) for p in pts]
    rows.append(zeros(d) + (ONE,))
    rays = _extreme_rays(rows)
    facets = []
    for ray in rays:
        if ray[d] == 0:
            raise DegenerateInput("origin is not interior to the hull")
        facets.append(tuple(x / ray[d] for x in ray[:d]))
    return canonical_sorted(facets)


def extreme_subset(points: tuple[Vector, ...]) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """One conversion pass: (the extreme points among ``points``, facets of their hull).

    A point is extreme exactly when the hull facets tight at it have rank d,
    so the single ``conv_facets`` call yields both representations of the
    hull.  Read through polarity for the polytope {x : <p, x> <= 1}, the kept
    points are its irredundant facet rows and the hull facets its vertices.
    Points must be distinct.
    """
    facets = conv_facets(points)
    d = len(points[0])
    keep = tuple(
        p for p in points if rank(tuple(f for f in facets if dot(f, p) == ONE)) == d
    )
    return keep, facets


def symmetric_ball(raw, *, kind: str) -> tuple[VRep, HRep]:
    """Both representations of an origin-symmetric ball given by one of them.

    ``kind`` is "vertex" when ``raw`` lists points and "facet" when it lists
    functionals.  The input is deduplicated, checked to span and to be
    symmetric, and stripped of non-extreme entries (with a warning); the
    other representation comes from the same conversion pass.
    """
    pts = tuple(dict.fromkeys(vec(p) for p in raw))
    if not pts:
        raise DegenerateInput(f"empty {kind} set")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError(f"{kind} vectors have unequal lengths")
    err = DegenerateInput if kind == "vertex" else UnboundedInput
    if rank(pts) < d:
        raise err(f"{kind} set does not span the space")
    pointset = set(pts)
    if any(neg(p) not in pointset for p in pts):
        raise DegenerateInput(f"{kind} set is not symmetric under negation")
    keep, hull = extreme_subset(pts)
    if len(keep) < len(pts):
        warnings.warn(
            f"dropped {len(pts) - len(keep)} non-extreme {kind} point(s) from input",
            stacklevel=3,
        )
    keep = canonical_sorted(keep)
    if kind == "vertex":
        return VRep(vertices=keep, dim=d), HRep(facets=hull, dim=d)
    return VRep(vertices=hull, dim=d), HRep(facets=keep, dim=d)


def v_rep(points) -> VRep:
    """Build a VRep, deduplicating and dropping non-vertex points (with a warning)."""
    return symmetric_ball(points, kind="vertex")[0]


def h_rep(functionals) -> HRep:
    """Build an HRep, deduplicating and dropping redundant rows (with a warning).

    A row is redundant exactly when it is not an extreme point of the convex
    hull of all rows, by bipolar duality.
    """
    return symmetric_ball(functionals, kind="facet")[1]


def v_to_h(v: VRep) -> HRep:
    """Irredundant facet description of conv(V)."""
    if rank(v.vertices) < v.dim:
        raise DegenerateInput("vertex set does not span the space")
    return HRep(facets=conv_facets(v.vertices), dim=v.dim)


def h_to_v(h: HRep) -> VRep:
    """Vertices of the polytope {x : <f, x> <= 1 for all f in H}."""
    if rank(h.facets) < h.dim:
        raise UnboundedInput("facet normals do not span the space")
    return VRep(vertices=conv_facets(h.facets), dim=h.dim)


def enumerate_faces(v: VRep, h: HRep) -> tuple[FaceDescriptor, ...]:
    """All nonempty proper faces of the polytope described by (v, h).

    Every proper face is an intersection of facets and faces are induced by
    their vertex sets, so closing the facet vertex sets under pairwise
    intersection enumerates them all.
    """
    facet_sets = [
        frozenset(i for i, p in enumerate(v.vertices) if dot(f, p) == ONE)
        for f in h.facets
    ]
    if not all(facet_sets):
        raise Discrepancy("every facet must contain at least one vertex")
    all_sets: set[frozenset[int]] = set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        fresh: set[frozenset[int]] = set()
        for s in frontier:
            for t in all_sets:
                u = s & t
                if u and u not in all_sets and u not in fresh:
                    fresh.add(u)
        all_sets |= fresh
        frontier = fresh

    faces = []
    for vertset in all_sets:
        pts = [v.vertices[i] for i in vertset]
        faces.append(FaceDescriptor(vertices=vertset, dim=max(affine_rank(pts), 0)))
    faces.sort(key=lambda f: (f.dim, sorted(f.vertices)))
    return tuple(faces)


def face_census(v: VRep, h: HRep) -> dict[int, int]:
    """Count faces by dimension (vertices, edges, ..., facets)."""
    census: dict[int, int] = {}
    for face in enumerate_faces(v, h):
        census[face.dim] = census.get(face.dim, 0) + 1
    return census


__all__ = [
    "FaceDescriptor",
    "HRep",
    "VRep",
    "conv_facets",
    "enumerate_faces",
    "extreme_subset",
    "face_census",
    "h_rep",
    "h_to_v",
    "symmetric_ball",
    "v_rep",
    "v_to_h",
]
