"""Polyhedral Banach spaces on Q^n.

A space is a norm whose unit ball is an origin-symmetric full-dimensional
polytope, kept in both representations.  ``dual_extreme`` stores the H-rep
facet functionals verbatim: an irredundant description {x : <g, x> <= 1} makes
every g attain maximum exactly 1 on the ball, so these are precisely the
extreme points of the dual unit ball, already scaled to dual norm one.

Builders cover the sup-norm cube and the 1-norm cross-polytope, once per n,
and custom balls from either representation.  Every verdict reads the extreme
functionals at a point in one integer pass over rows each space clears once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from .errors import SpaceTooLarge, ZeroVector
from .linalg import Vector, _cleared, canonical_sorted, is_zero, unit, vec
from .polytope import HRep, VRep, symmetric_ball

_EAGER_LIMIT = 12  # builders refuse above this: 2^n extreme objects


@dataclass(frozen=True)
class PolyhedralSpace:
    """Immutable polyhedral norm on Q^dim.

    ``kind`` is "linf", "l1", or "custom" and only steers fast-path dispatch;
    all generic operations use the two ball representations alone.  The hash
    is computed once, from the shorter representation (it determines the
    other); equality still compares every field.
    """

    kind: str
    dim: int
    vertices: tuple[Vector, ...]
    dual_extreme: tuple[Vector, ...]

    @cached_property
    def _hash(self) -> int:
        return hash((self.kind, self.dim, min(self.vertices, self.dual_extreme, key=len)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _functional_ints(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        mult, rows = _cleared(self.dual_extreme)
        return mult, tuple(map(tuple, rows))

    @cached_property
    def _vertex_ints(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        mult, rows = _cleared(self.vertices)
        return mult, tuple(map(tuple, rows))

    @property
    def vrep(self) -> VRep:
        return VRep(vertices=self.vertices, dim=self.dim)

    @property
    def hrep(self) -> HRep:
        return HRep(facets=self.dual_extreme, dim=self.dim)


@dataclass(frozen=True)
class SupportSet:
    """J(x) for nonzero x: the extreme dual functionals attaining the norm.

    ``indices`` point into ``dual_extreme``; the support set itself is the
    convex hull of ``functionals``, a face of the dual ball.
    """

    indices: tuple[int, ...]
    functionals: tuple[Vector, ...]


@lru_cache(maxsize=None, typed=True)
def make_linf(n: int) -> PolyhedralSpace:
    """Sup-norm space: ball is the cube {-1, 1}^n, dual extremes +-e_i."""
    _check_builder_dim(n)
    verts = tuple(
        tuple(Fraction(s) for s in signs) for signs in itertools.product((-1, 1), repeat=n)
    )
    duals = tuple(unit(n, i) for i in range(n)) + tuple(
        tuple(-x for x in unit(n, i)) for i in range(n)
    )
    return PolyhedralSpace(
        kind="linf", dim=n, vertices=canonical_sorted(verts), dual_extreme=canonical_sorted(duals)
    )


@lru_cache(maxsize=None, typed=True)
def make_l1(n: int) -> PolyhedralSpace:
    """1-norm space: ball is the cross-polytope, dual extremes all sign vectors."""
    _check_builder_dim(n)
    verts = tuple(unit(n, i) for i in range(n)) + tuple(
        tuple(-x for x in unit(n, i)) for i in range(n)
    )
    duals = tuple(
        tuple(Fraction(s) for s in signs) for signs in itertools.product((-1, 1), repeat=n)
    )
    return PolyhedralSpace(
        kind="l1", dim=n, vertices=canonical_sorted(verts), dual_extreme=canonical_sorted(duals)
    )


def make_custom(vertices=None, facets=None) -> PolyhedralSpace:
    """Space from an explicit ball: exactly one of vertices/facets.

    The given representation is validated (deduplication, redundancy
    filtering, symmetry); the same conversion pass yields the other one.
    """
    if (vertices is None) == (facets is None):
        raise ValueError("give exactly one of vertices= or facets=")
    if vertices is not None:
        v, h = symmetric_ball(vertices, kind="vertex")
    else:
        v, h = symmetric_ball(facets, kind="facet")
    return PolyhedralSpace(kind="custom", dim=v.dim, vertices=v.vertices, dual_extreme=h.facets)


def _values(space: PolyhedralSpace, x: Vector) -> tuple[int, list[int]]:
    """(m, values): values[i] is m * <g_i, x> for each extreme functional g_i, with m > 0."""
    gm, functionals = space._functional_ints
    pm, (point,) = _cleared([x])
    return gm * pm, [sum(map(mul, g, point)) for g in functionals]


def norm(space: PolyhedralSpace, x) -> Fraction:
    """Norm of x: the maximum of the extreme dual functionals on x."""
    m, values = _values(space, _checked(space.dim, x))
    return Fraction(max(values), m)


def support_set(space: PolyhedralSpace, x) -> SupportSet:
    """J(x): all extreme dual functionals g with <g, x> = ||x||, for x != 0."""
    point = _checked(space.dim, x)
    if is_zero(point):
        raise ZeroVector("support set requires a nonzero vector")
    _, values = _values(space, point)
    top = max(values)
    indices = tuple(i for i, val in enumerate(values) if val == top)
    return SupportSet(indices=indices, functionals=tuple(space.dual_extreme[i] for i in indices))


def is_smooth(space: PolyhedralSpace, x) -> bool:
    """True iff x has exactly one norming extreme functional."""
    return len(support_set(space, x).indices) == 1


def _checked(dim: int, x) -> Vector:
    """x as an exact vector, refused unless it has ``dim`` coordinates."""
    point = vec(x)
    if len(point) != dim:
        raise ValueError(f"point has dimension {len(point)}, space has {dim}")
    return point


def _check_builder_dim(n: int) -> None:
    if n < 2:
        raise ValueError("builders need n >= 2")
    if n > _EAGER_LIMIT:
        raise SpaceTooLarge(f"builders enumerate 2^n extreme objects; n={n} exceeds {_EAGER_LIMIT}")


__all__ = [
    "PolyhedralSpace",
    "SupportSet",
    "is_smooth",
    "make_custom",
    "make_l1",
    "make_linf",
    "norm",
    "support_set",
]
