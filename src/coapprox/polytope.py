"""Exact V- and H-representations of origin-symmetric full-dimensional polytopes.

The single geometric primitive is ``conv_facets``: given points spanning the
space with the origin interior to their hull, it returns the irredundant facet
functionals f of the hull, normalized as {x : <f, x> <= 1}.  Both conversion
directions reduce to it through bipolar polarity: the vertices of
{x : <f, x> <= 1 for all f in H} are exactly the facet functionals of conv(H).
``extreme_subset`` gets both representations of a ball from one such call:
one integer incidence pass marks the input points on each facet, and a point
is kept when the facets through it meet in that point alone.

``conv_facets`` homogenizes to the cone {(f, t) : <s, f> <= t, t >= 0} and
enumerates its extreme rays by the double description method: start from a
simplicial subcone given by d+1 independent rows, insert the remaining
half-spaces one at a time, and combine adjacent positive/negative ray pairs on
each new hyperplane.  As in Fukuda & Prodon, rays are primitive integer tuples
that carry their zero sets as bitmasks; a pair is adjacent when its meet has
popcount >= d-1 and no third ray's mask contains it.  All arithmetic is exact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .errors import DegenerateInput, Discrepancy, UnboundedInput
from .linalg import (
    Vector,
    _cleared,
    _reduce,
    affine_rank,
    canonical_sorted,
    neg,
    rank,
    vec,
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


def _lowest_terms(ray) -> tuple[int, ...]:
    """An integer ray divided by the gcd of its entries: primitive, same direction."""
    g = gcd(*ray)
    return tuple(x // g for x in ray) if g else tuple(ray)


def _initial_rays(rows: list, d: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """Pick the first d independent rows; return their indices and the primitive inverse columns.

    The subcone {y : B y >= 0} for the picked nonsingular B is simplicial; its
    extreme rays are the columns of B^{-1}.  Two integer eliminations give
    both: the pivot columns of the transposed rows are the first d
    independent rows, and eliminating [B | I] leaves p * B^{-1} on the right,
    p the last pivot, so each of its columns times p points along a ray.
    """
    picked, _ = _reduce([list(col) for col in zip(*rows)], len(rows))
    if len(picked) < d:
        raise DegenerateInput("input rows do not span the space")
    inverse = [[*rows[i], *(int(j == k) for j in range(d))] for k, i in enumerate(picked)]
    _, p = _reduce(inverse, d)
    return picked, [_lowest_terms([row[d + j] * p for row in inverse]) for j in range(d)]


def _extreme_rays(rows: list[list[int]]) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {y : <row, y> >= 0 for all integer rows}.

    Each ray carries its zero set over the inserted rows (bit i for row i).
    """
    rows = [_lowest_terms(row) for row in rows]
    d = len(rows[0])
    picked, cols = _initial_rays(rows, d)
    start = sum(1 << i for i in picked)
    rays = [(c, start & ~(1 << i)) for i, c in zip(picked, cols)]
    for idx, a in enumerate(rows):
        if start >> idx & 1:
            continue
        bit = 1 << idx
        plus, zero, minus = [], [], []
        for ray, mask in rays:
            val = sum(map(mul, a, ray))
            if val > 0:
                plus.append((ray, mask, val))
            elif val < 0:
                minus.append((ray, mask, val))
            else:
                zero.append((ray, mask | bit))
        combined: dict[tuple[int, ...], int] = {}
        for p, pmask, vp in plus:
            for q, qmask, vq in minus:
                meet = pmask & qmask
                if meet.bit_count() < d - 2 or any(
                    mask & meet == meet for r, mask in rays if r is not p and r is not q
                ):
                    continue
                new = [vp * qc - vq * pc for pc, qc in zip(p, q)]
                combined[_lowest_terms(new)] = meet | bit
        rays = [(p, pmask) for p, pmask, _ in plus] + zero + list(combined.items())
    return [ray for ray, _ in rays]


def conv_facets(points) -> tuple[Vector, ...]:
    """Irredundant facet functionals of conv(points), scaled to <f, x> <= 1.

    Requires the points to span the space with the origin interior to the
    hull; raises DegenerateInput otherwise.
    """
    pts = list(dict.fromkeys(vec(p) for p in points))
    if not pts:
        raise DegenerateInput("empty point set")
    d = len(pts[0])
    # the rows (-p, 1) and (0, 1), times one common multiplier
    mult, ints = _cleared(pts)
    rows = [[-x for x in p] + [mult] for p in ints]
    rows.append([0] * d + [1])
    facets = []
    for ray in _extreme_rays(rows):
        if ray[d] == 0:
            raise DegenerateInput("origin is not interior to the hull")
        facets.append(tuple(Fraction(x, ray[d]) for x in ray[:d]))
    return canonical_sorted(facets)


def _incidences(facets, points) -> list[int]:
    """For each facet {x : <f, x> <= 1}, the bitmask of the points on it (bit i for point i).

    Facets and points are cleared to integers once each, by multipliers fm
    and pm, so point i is on facet f exactly when the integer dot product
    equals fm * pm.
    """
    fm, frows = _cleared(facets)
    pm, prows = _cleared(points)
    one = fm * pm
    return [
        sum(1 << i for i, p in enumerate(prows) if sum(map(mul, f, p)) == one)
        for f in frows
    ]


def extreme_subset(
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
    keep, hull, _ = extreme_subset(pts)
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
        frozenset(i for i in range(len(v.vertices)) if mask >> i & 1)
        for mask in _incidences(h.facets, v.vertices)
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
    "face_census",
    "h_rep",
    "h_to_v",
    "v_rep",
    "v_to_h",
]
