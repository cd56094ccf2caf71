"""Subspaces Y of a polyhedral space and the geometry they induce.

The induced unit ball B_Y = B_X intersected with Y is computed in basis
coordinates by restricting every extreme dual functional to Y and converting
representations.  Each face G of B_Y carries its dual face D(G): the extreme
functionals of X that are identically 1 on G.  A point in the relative
interior of G has support set exactly conv D(G), and D is antitone (larger
faces have smaller dual faces): facets carry the smallest dual faces and
vertices the largest.  So a "for all y in Y" test downstream holds once it
holds on the facets, and a "some y in Y" test once it holds at some vertex;
the full face lattice (``InducedBall.faces``) is only kept for reference.

A facet of B_Y with row r has D = {g : g restricted to the basis equals r}
(the facet affinely spans the slab where r is 1), which gives a conversion-only
route to the norming-functional set of Y and to smooth-density; the public
``jy_set`` decides each extreme functional by one strict linear system
instead, and the two are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import BasisMismatch, DependentBasis, DimensionOutOfRange
from .linalg import (
    Matrix,
    ONE,
    Vector,
    canonical_sorted,
    dot,
    is_zero,
    mat,
    rank,
    scale,
    solve_linear,
    strict_feasibility,
    sub,
    transpose,
    vec,
    zeros,
)
from .polytope import FaceDescriptor, HRep, VRep, enumerate_faces, extreme_subset
from .spaces import PolyhedralSpace, norm


@dataclass(frozen=True)
class Subspace:
    """Y = span of the basis rows (linearly independent vectors of X)."""

    basis: Matrix

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return len(self.basis[0])


def subspace(rows) -> Subspace:
    basis = mat(rows)
    if not basis:
        raise DependentBasis("a subspace needs at least one basis vector")
    if rank(basis) != len(basis):
        raise DependentBasis("basis rows are linearly dependent")
    return Subspace(basis=basis)


def embed(y: Subspace, alpha) -> Vector:
    """Map basis coordinates alpha to the ambient space: sum alpha_k a_k."""
    coeffs = vec(alpha)
    if len(coeffs) != y.dim:
        raise ValueError("coordinate vector length does not match basis size")
    out = zeros(y.ambient_dim)
    for c, row in zip(coeffs, y.basis):
        if c != 0:
            out = tuple(o + c * r for o, r in zip(out, row))
    return out


def coordinates(y: Subspace, x) -> Vector | None:
    """Basis coordinates of x if x lies in Y, else None."""
    point = vec(x)
    sol = solve_linear(transpose(y.basis), point)
    if sol.kind == "inconsistent":
        return None
    assert sol.kind == "unique", "independent basis rows give unique coordinates"
    return sol.particular


def restrict(y: Subspace, g: Vector) -> Vector:
    """The functional g seen in basis coordinates: alpha -> <g, sum alpha_k a_k>."""
    return tuple(dot(g, row) for row in y.basis)


@dataclass(frozen=True)
class FaceData:
    """A face of B_Y together with its dual face in X.

    ``dual`` indexes space.dual_extreme: all extreme dual functionals of X
    that equal 1 on the whole face.
    """

    face: FaceDescriptor
    dual: tuple[int, ...]


@dataclass(frozen=True)
class InducedBall:
    """B_X intersected with Y, in basis coordinates, with its dual face map."""

    space: PolyhedralSpace
    subspace: Subspace
    vertices: tuple[Vector, ...]
    facet_rows: tuple[Vector, ...]
    facet_dual: tuple[tuple[int, ...], ...]

    @cached_property
    def faces(self) -> tuple[FaceData, ...]:
        """All proper faces of B_Y with their dual faces (computed lazily)."""
        m = len(self.subspace.basis)
        v = VRep(vertices=self.vertices, dim=m)
        h = HRep(facets=self.facet_rows, dim=m)
        normers = [
            frozenset(
                i
                for i, g in enumerate(self.space.dual_extreme)
                if dot(g, embed(self.subspace, vert)) == ONE
            )
            for vert in self.vertices
        ]
        out = []
        for face in enumerate_faces(v, h):
            dual: frozenset[int] | None = None
            for vi in face.vertices:
                dual = normers[vi] if dual is None else dual & normers[vi]
            out.append(FaceData(face=face, dual=tuple(sorted(dual or ()))))
        return tuple(out)


@lru_cache(maxsize=256)
def induced_ball(space: PolyhedralSpace, y: Subspace) -> InducedBall:
    """Compute B_Y = B_X /\\ Y in basis coordinates, with the facet dual map."""
    if y.ambient_dim != space.dim:
        raise ValueError("subspace lives in a different ambient dimension")
    restricted = [restrict(y, g) for g in space.dual_extreme]
    distinct = tuple(row for row in dict.fromkeys(restricted) if not is_zero(row))
    # B_Y = {alpha : <row, alpha> <= 1}: its facet rows are the extreme rows,
    # and the facets of their hull are its vertices (polarity).
    rows, vertices = extreme_subset(distinct)
    facet_rows = canonical_sorted(rows)
    facet_dual = tuple(
        tuple(i for i, row in enumerate(restricted) if row == facet)
        for facet in facet_rows
    )
    assert all(facet_dual), "every facet row of B_Y restricts from some dual extreme"
    for vert in vertices:
        assert norm(space, embed(y, vert)) == ONE, "B_Y vertices lie on the unit sphere of X"
    return InducedBall(
        space=space,
        subspace=y,
        vertices=vertices,
        facet_rows=facet_rows,
        facet_dual=facet_dual,
    )


@dataclass(frozen=True)
class JYSet:
    """Extreme dual functionals of X norming some smooth unit vector of Y.

    ``witnesses`` are smooth points of X on the unit sphere of Y, one per
    functional, with <g, witness> = 1 exactly.
    """

    indices: tuple[int, ...]
    functionals: tuple[Vector, ...]
    witnesses: tuple[Vector, ...]

    @property
    def size(self) -> int:
        return len(self.indices)


def jy_set(space: PolyhedralSpace, y: Subspace) -> JYSet:
    """Norming-functional set of Y, decided by one strict system per facet of B_X.

    g belongs to the set iff Y meets the relative interior of g's facet, i.e.
    some y in Y has <g, y> > <g', y> for every other extreme functional g'.
    The partner -g forces <g, y> > 0, so y / <g, y> is a smooth unit witness.
    """
    if y.ambient_dim != space.dim:
        raise ValueError("subspace lives in a different ambient dimension")
    indices, witnesses = [], []
    for j, g in enumerate(space.dual_extreme):
        rows = tuple(
            restrict(y, sub(g, other)) for jj, other in enumerate(space.dual_extreme) if jj != j
        )
        feas = strict_feasibility(rows)
        if feas.feasible:
            point = embed(y, feas.witness)
            indices.append(j)
            witnesses.append(scale(point, 1 / dot(g, point)))
    return JYSet(
        indices=tuple(indices),
        functionals=tuple(space.dual_extreme[i] for i in indices),
        witnesses=tuple(witnesses),
    )


def jy_set_via_faces(space: PolyhedralSpace, y: Subspace) -> JYSet:
    """The same set read off the induced ball: facets of B_Y with singleton dual.

    A facet row with exactly one restricting extreme functional consists of
    smooth points of X in its relative interior; the facet centroid is an
    explicit witness.
    """
    ball = induced_ball(space, y)
    found: dict[int, Vector] = {}
    for row, dual in zip(ball.facet_rows, ball.facet_dual):
        if len(dual) != 1 or dual[0] in found:
            continue
        on_facet = [vert for vert in ball.vertices if dot(row, vert) == ONE]
        k = Fraction(1, len(on_facet))
        centroid = zeros(y.dim)
        for vert in on_facet:
            centroid = tuple(c + k * vc for c, vc in zip(centroid, vert))
        found[dual[0]] = embed(y, centroid)
    indices = tuple(sorted(found))
    return JYSet(
        indices=indices,
        functionals=tuple(space.dual_extreme[i] for i in indices),
        witnesses=tuple(found[i] for i in indices),
    )


def smooth_dense_in(space: PolyhedralSpace, y: Subspace) -> bool:
    """True iff the smooth points of X in Y are dense in Y.

    Equivalently: every facet of B_Y sits inside a facet of B_X, i.e. has a
    singleton dual face.
    """
    ball = induced_ball(space, y)
    return all(len(dual) == 1 for dual in ball.facet_dual)


def point_in_subspace(y: Subspace, x) -> bool:
    return coordinates(y, x) is not None


def require_coordinates(y: Subspace, x, label: str) -> Vector:
    coords = coordinates(y, x)
    if coords is None:
        raise BasisMismatch(f"{label} does not lie in the subspace")
    return coords


def require_proper(m: int, n: int) -> None:
    """Classification is posed for 1 < dim Y < dim X only."""
    if not 1 < m < n:
        raise DimensionOutOfRange(f"classification needs 1 < dim Y < dim X, got {m} in {n}")


__all__ = [
    "FaceData",
    "InducedBall",
    "JYSet",
    "Subspace",
    "coordinates",
    "embed",
    "induced_ball",
    "jy_set",
    "jy_set_via_faces",
    "point_in_subspace",
    "require_coordinates",
    "require_proper",
    "restrict",
    "smooth_dense_in",
    "subspace",
]
