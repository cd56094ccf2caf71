"""Exact V- and H-representations of origin-symmetric full-dimensional polytopes.

The single geometric primitive is ``conv_facets``: given points spanning the
space with the origin interior to their hull, it returns the irredundant facet
functionals f of the hull, normalized as {x : <f, x> <= 1}.  Both conversion
directions reduce to it through bipolar polarity: the vertices of
{x : <f, x> <= 1 for all f in H} are exactly the facet functionals of conv(H).
A ball gets both representations from one such call: one integer pass marks
the input points on each facet, and ``extreme_subset`` keeps a point when the
facets through it meet in that point alone.

``conv_facets`` homogenizes to the cone {(f, t) : <s, f> <= t, t >= 0} and
enumerates its extreme rays by the double description method: start from a
simplicial subcone given by d+1 independent rows, insert the remaining
half-spaces one at a time, and combine adjacent positive/negative ray pairs on
each new hyperplane.  As in Fukuda & Prodon, rays are primitive integer tuples
that carry their zero sets as bitmasks; a pair is adjacent when its meet has
popcount >= d-1 and no third ray's mask contains it.  All arithmetic is exact.
The points are cleared to integers by one common multiplier, deduplicated and
the facets sorted there; Fractions are made once, for the returned facets and
for ``VRep``/``HRep``, whose checks (deduplication, symmetry, rank, order of the
kept entries) also run on the cleared rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DegenerateInput, Discrepancy, UnboundedInput
from .linalg import (
    Vector,
    _cleared,
    _reduce,
    affine_rank,
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
    hull; raises DegenerateInput otherwise.  The points are cleared to
    integers by one common multiplier and deduplicated there; Fractions are
    made once, for the sorted facets.
    """
    mult, ints = _cleared([vec(p) for p in points])
    if not ints:
        raise DegenerateInput("empty point set")
    d = len(ints[0])
    # the rows (-p, 1) and (0, 1), times the common multiplier
    rows = [[-x for x in p] + [mult] for p in dict.fromkeys(map(tuple, ints))]
    rows.append([0] * d + [1])
    rays = _extreme_rays(rows)
    if any(ray[d] == 0 for ray in rays):
        raise DegenerateInput("origin is not interior to the hull")
    # each facet is f / t with t > 0, so scaling by L = lcm of the t's keeps
    # the order of the Fraction tuples
    common = lcm(*(ray[d] for ray in rays))
    rays.sort(key=lambda ray: [x * (common // ray[d]) for x in ray[:d]])
    return tuple(tuple(Fraction(x, ray[d]) for x in ray[:d]) for ray in rays)


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
    masks: list[int], count: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Indices of the extreme points among ``count`` distinct points, with the facets through each.

    ``masks[j]`` marks the points on facet j of their hull (bit i for point
    i).  The minimal face through a boundary point p is the meet of the hull
    facets through it, and a face of dimension >= 1 holds at least two
    vertices, all of them input points.  So p is extreme exactly when it lies
    on some facet and the facets through it share no other input point.
    Read through polarity for the polytope {x : <p, x> <= 1}, the kept points
    are its irredundant facet rows, the hull facets its vertices and the
    second entry its facet-vertex incidences.
    """
    keep, tight = [], []
    for i in range(count):
        through = [j for j, mask in enumerate(masks) if mask >> i & 1]
        meet = -1
        for j in through:
            meet &= masks[j]
        if through and meet == 1 << i:
            keep.append(i)
            tight.append(tuple(through))
    return tuple(keep), tuple(tight)


def symmetric_ball(raw, *, kind: str) -> tuple[VRep, HRep]:
    """Both representations of an origin-symmetric ball given by one of them.

    ``kind`` is "vertex" when ``raw`` lists points and "facet" when it lists
    functionals.  The input is deduplicated, checked to span and to be
    symmetric, and stripped of non-extreme entries (with a warning); the
    other representation comes from the same conversion pass.
    """
    points = [vec(p) for p in raw]
    if not points:
        raise DegenerateInput(f"empty {kind} set")
    # one common multiplier keeps equality, negation and order, so the
    # checks run on the cleared integer rows, each kept with its first point
    first: dict[tuple[int, ...], Vector] = {}
    for row, point in zip(map(tuple, _cleared(points)[1]), points):
        first.setdefault(row, point)
    rows, pts = tuple(first), tuple(first.values())
    d = len(rows[0])
    if any(len(row) != d for row in rows):
        raise ValueError(f"{kind} vectors have unequal lengths")
    err = DegenerateInput if kind == "vertex" else UnboundedInput
    if rank(rows) < d:
        raise err(f"{kind} set does not span the space")
    if any(tuple(-x for x in row) not in first for row in rows):
        raise DegenerateInput(f"{kind} set is not symmetric under negation")
    hull = conv_facets(pts)
    keep, _ = extreme_subset(_incidences(hull, pts), len(pts))
    if len(keep) < len(rows):
        warnings.warn(
            f"dropped {len(rows) - len(keep)} non-extreme {kind} point(s) from input",
            stacklevel=3,
        )
    keep = tuple(pts[i] for i in sorted(keep, key=rows.__getitem__))
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
