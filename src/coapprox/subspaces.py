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
(the facet affinely spans the slab where r is 1).  By polarity the vertices
of B_Y are the facets of the hull of the distinct restricted rows, and one
integer product of the vertices with those rows answers the rest: as
<g, embed(y, v)> = <restrict(y, g), v>, the row maximum at a vertex rechecks
its norm in X, and the rows equal to 1 there give its dual face
(``InducedBall.vertex_dual``) and the incidences from which the meet test
picks the facet rows.  J_Y (``InducedBall.jy``, read by ``jy_set_via_faces``,
the classifiers and the CLI) takes as witnesses the embedded centroids of
the facets with a singleton dual.  ``jy_set`` decides each extreme
functional by one strict linear system instead and serves as the oracle of
``jy --verify`` and of the test suite.

The pass runs on cleared integers.  Fractions are made for the distinct rows
handed to ``conv_facets`` (its facets are B_Y's vertices, cleared once on
return) and for the fields of ``InducedBall``.  A ``Subspace`` keeps its hash,
so a cached ``induced_ball`` lookup hashes no Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from .errors import BasisMismatch, DependentBasis, DimensionOutOfRange, Discrepancy
from .linalg import (
    Matrix,
    Vector,
    _cleared,
    dot,
    mat,
    neg,
    rank,
    scale,
    solve_linear,
    strict_feasibility,
    sub,
    transpose,
    vec,
    zeros,
)
from .polytope import FaceDescriptor, conv_facets, enumerate_faces, extreme_subset
from .spaces import PolyhedralSpace, _checked


@dataclass(frozen=True)
class Subspace:
    """Y = span of the basis rows (linearly independent vectors of X).

    The hash, a key of ``induced_ball``'s cache, is computed once; equality
    still compares the basis.
    """

    basis: Matrix

    @cached_property
    def _hash(self) -> int:
        return hash(self.basis)

    def __hash__(self) -> int:
        return self._hash

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
    point = _checked(y.ambient_dim, x)
    sol = solve_linear(transpose(y.basis), point)
    if sol.kind == "inconsistent":
        return None
    if sol.kind != "unique":
        raise Discrepancy("independent basis rows give unique coordinates")
    return sol.particular


def _check_ambient(space: PolyhedralSpace, y: Subspace) -> None:
    """Refuse a subspace whose basis rows do not live in the space's dimension."""
    if y.ambient_dim != space.dim:
        raise ValueError("subspace lives in a different ambient dimension")


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


def _jy(space: PolyhedralSpace, found: dict[int, Vector]) -> JYSet:
    """The set of the functionals indexed by ``found``, each with its witness."""
    indices = tuple(sorted(found))
    functionals = tuple(space.dual_extreme[i] for i in indices)
    return JYSet(indices, functionals, tuple(found[i] for i in indices))


@dataclass(frozen=True)
class InducedBall:
    """B_X intersected with Y, in basis coordinates, with its dual face map.

    ``vertex_dual[k]`` indexes the extreme functionals equal to 1 at
    ``vertices[k]``: its dual face, which is its support set because the
    vertex has norm 1.  ``jy`` is the norming-functional set of Y with its
    facet-centroid witnesses.
    """

    vertices: tuple[Vector, ...]
    facet_rows: tuple[Vector, ...]
    facet_dual: tuple[tuple[int, ...], ...]
    vertex_dual: tuple[tuple[int, ...], ...]
    jy: JYSet

    @cached_property
    def _facet_classes(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """One facet per +- pair, as (row index, its dual face as dual indices).

        Opposite facets carry negated dual faces and yield the same conditions.
        """
        classes = []
        seen: set[Vector] = set()
        for idx, (row, dual) in enumerate(zip(self.facet_rows, self.facet_dual)):
            if neg(row) not in seen:
                seen.add(row)
                classes.append((idx, dual))
        return tuple(classes)

    @cached_property
    def _facet_ints(self) -> tuple[int, list[list[int]]]:
        """The facet rows cleared to integers by one common multiplier."""
        return _cleared(self.facet_rows)

    @cached_property
    def faces(self) -> tuple[FaceData, ...]:
        """All proper faces of B_Y with their dual faces (computed lazily)."""
        normers = [frozenset(dual) for dual in self.vertex_dual]
        out = []
        for face in enumerate_faces(self.vertices, self.facet_rows):
            dual: frozenset[int] | None = None
            for vi in face.vertices:
                dual = normers[vi] if dual is None else dual & normers[vi]
            out.append(FaceData(face=face, dual=tuple(sorted(dual or ()))))
        return tuple(out)


@lru_cache(maxsize=256)
def induced_ball(space: PolyhedralSpace, y: Subspace) -> InducedBall:
    """Compute B_Y = B_X /\\ Y in basis coordinates, with its dual faces and J_Y."""
    _check_ambient(space, y)
    # restrict(y, g) for every g, on cleared integers: key = gm * bm * restrict(y, g)
    gm, functionals = space._functional_ints
    bm, basis = _cleared(y.basis)
    by_key: dict[tuple[int, ...], list[int]] = {}
    for i, g in enumerate(functionals):
        by_key.setdefault(tuple(sum(map(mul, g, b)) for b in basis), []).append(i)
    keys = [key for key in by_key if any(key)]
    rows = [tuple(Fraction(v, gm * bm) for v in key) for key in keys]
    # B_Y = {alpha : <row, alpha> <= 1}; by polarity its vertices are the
    # facets of the hull of the rows.  In one integer product, row j is 1 at
    # vertex k exactly when <coords[k], keys[j]> = one, and the row maximum
    # is the norm of the embedded vertex: <g, embed(y, v)> = <restrict(y, g), v>
    vertices = conv_facets(rows)
    pm, coords = _cleared(vertices)
    one = gm * bm * pm
    masks, vertex_dual = [], []
    for c in coords:
        values = [sum(map(mul, c, key)) for key in keys]
        if max(values) != one:
            raise Discrepancy("B_Y vertices lie on the unit sphere of X")
        on = [j for j, value in enumerate(values) if value == one]
        masks.append(sum(1 << j for j in on))
        vertex_dual.append(tuple(sorted(i for j in on for i in by_key[keys[j]])))
    # the facet rows of B_Y are the extreme rows, and the vertices through a
    # row are the vertices on its facet
    kept, tight = extreme_subset(masks, len(keys))
    facets = sorted(zip(kept, tight), key=lambda facet: keys[facet[0]])
    facet_rows = tuple(rows[j] for j, _ in facets)
    facet_dual = tuple(tuple(by_key[keys[j]]) for j, _ in facets)
    # a facet with singleton dual g lies in the interior of g's facet of B_X,
    # so its vertex centroid, embedded, is a smooth witness for g
    found: dict[int, Vector] = {}
    for (_, on_facet), dual in zip(facets, facet_dual):
        if len(dual) == 1 and dual[0] not in found:
            total = [sum(col) for col in zip(*(coords[k] for k in on_facet))]
            ambient = [sum(map(mul, total, col)) for col in zip(*basis)]
            found[dual[0]] = tuple(Fraction(t, len(on_facet) * bm * pm) for t in ambient)
    return InducedBall(
        vertices=vertices,
        facet_rows=facet_rows,
        facet_dual=facet_dual,
        vertex_dual=tuple(vertex_dual),
        jy=_jy(space, found),
    )


def jy_set(space: PolyhedralSpace, y: Subspace) -> JYSet:
    """Norming-functional set of Y, decided by one strict system per facet of B_X.

    g belongs to the set iff Y meets the relative interior of g's facet, i.e.
    some y in Y has <g, y> > <g', y> for every other extreme functional g'.
    The partner -g forces <g, y> > 0, so y / <g, y> is a smooth unit witness.
    """
    _check_ambient(space, y)
    found: dict[int, Vector] = {}
    for j, g in enumerate(space.dual_extreme):
        rows = tuple(
            restrict(y, sub(g, other)) for jj, other in enumerate(space.dual_extreme) if jj != j
        )
        feas = strict_feasibility(rows)
        if feas.feasible:
            point = embed(y, feas.witness)
            found[j] = scale(point, 1 / dot(g, point))
    return _jy(space, found)


def jy_set_via_faces(space: PolyhedralSpace, y: Subspace) -> JYSet:
    """The same set read off the induced ball: facets of B_Y with singleton dual.

    A facet row with exactly one restricting extreme functional consists of
    smooth points of X in its relative interior; the facet centroid is an
    explicit witness.  ``induced_ball`` builds the set and the witnesses.
    """
    return induced_ball(space, y).jy


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
    "InducedBall",
    "JYSet",
    "Subspace",
    "coordinates",
    "embed",
    "induced_ball",
    "jy_set",
    "jy_set_via_faces",
    "point_in_subspace",
    "restrict",
    "smooth_dense_in",
    "subspace",
]
