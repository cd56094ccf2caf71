"""Birkhoff-James orthogonality, best coapproximation, and classification.

The backbone of every decision here is one finiteness argument: the support
set J(y) is constant on the relative interior of each face G of the induced
ball B_Y, equal to conv D(G), and the dual face D(G) grows as G shrinks.  So a
statement about all y in Y is a scan over the facets of B_Y, one about some y
a scan over its vertices, with min/max over D(G) standing in for "some
functional in J(y)" because J(y) is a polytope.

A point y0 in Y is a best coapproximation to x exactly when every facet G of
B_Y admits a functional in conv D(G) vanishing on x - y0, i.e. when the values
of D(G) on x - y0 straddle zero.  Every g in D(G) restricts to the same facet
row r_G on Y, so with y0 = embed(alpha) those values are <g, x> - <r_G, alpha>
and the condition is an interval, min <g, x> <= <r_G, alpha> <= max <g, x>
over D(G), linear in alpha: the best coapproximations to x form one
polyhedron.  The epsilon-defect replaces "straddle zero" by the distance of
the value interval from zero, normalized by ||x - y0||; it is the least
epsilon for which y0 is an epsilon-best coapproximation.

Subspace classification rests on the norming-functional set: full rank makes
the subspace anti-coproximinal (no x outside Y has any best coapproximation),
meeting the interior of every facet of B_X makes it strongly so (no x outside
Y has an epsilon-best coapproximation for any epsilon < 1).  Where the rank
is short and smooth points are not dense in Y, a depth-first search over
z = x - y0 with y0 = 0 decides anti-coproximinality exactly.  A missed facet
of B_X is certified by the centroid of its vertices, as J_Y witnesses are on
B_Y.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import (
    DegenerateQuery,
    Discrepancy,
    PointInSubspace,
    BudgetExceeded,
    ZeroVector,
)
from .linalg import (
    Constraint,
    LpProblem,
    ONE,
    Vector,
    ZERO,
    _cleared,
    _Growing,
    centroid,
    dot,
    fr,
    is_zero,
    lp_solve,
    neg,
    rank,
    solve_linear,
    sub,
    vec,
    zeros,
)
from .spaces import PolyhedralSpace, _checked, _values, support_set
from .subspaces import (
    JYSet,
    Subspace,
    _check_ambient,
    coordinates,
    embed,
    induced_ball,
    jy_set_via_faces,
    require_coordinates,
    require_proper,
    smooth_dense_in,
)


_ANTI_LP_CAP = 10**4  # branches the anti-coproximinality search tries before BudgetExceeded


def epsilon_value(eps) -> Fraction:
    """Validate an epsilon parameter: a rational in [0, 1)."""
    value = fr(eps)
    if not (0 <= value < 1):
        raise ValueError(f"epsilon must lie in [0, 1), got {value}")
    return value


def bj_orthogonal(space: PolyhedralSpace, x, y) -> bool:
    """x is Birkhoff-James orthogonal to y: some f in J(x) annihilates y.

    J(x) is the convex hull of finitely many extreme functionals, so it
    contains an annihilator of y iff their values on y straddle zero.
    """
    _, values = _values(space, _checked(space.dim, y))
    return _gap([values[i] for i in support_set(space, x).indices]) == 0


def bj_orthogonal_lambda_oracle(space: PolyhedralSpace, x, y) -> bool:
    """The same relation decided by direct norm minimization over lambda.

    Solves min over lambda of ||x + lambda y|| as an LP (the norm is the upper
    envelope of the extreme functionals) and compares the optimum with ||x||;
    equality means no lambda improves on lambda = 0, which is orthogonality.
    """
    px = _checked(space.dim, x)
    if is_zero(px):
        raise ZeroVector("orthogonality requires nonzero x")
    py = _checked(space.dim, y)
    constraints = tuple(
        ((dot(g, py), -ONE), "<=", -dot(g, px)) for g in space.dual_extreme
    )
    problem = LpProblem(objective=(ZERO, ONE), constraints=constraints)
    res = lp_solve(problem, "min")
    if res.status != "optimal":
        raise Discrepancy("the envelope LP is feasible and bounded below")
    return res.value == max(dot(g, px) for g in space.dual_extreme)


def eps_bj_orthogonal(space: PolyhedralSpace, x, y, eps) -> bool:
    """Approximate orthogonality: some f in J(x) has |f(y)| <= eps * ||y||."""
    epsilon = epsilon_value(eps)
    _, values = _values(space, _checked(space.dim, y))
    return _gap([values[i] for i in support_set(space, x).indices]) <= epsilon * max(values)


def _gap(values) -> int:
    """Distance from 0 to the hull of the values: 0 when they straddle zero."""
    return max(min(values), -max(values), 0)


def _worst_gap(space: PolyhedralSpace, y: Subspace, diff: Vector) -> tuple[int, int]:
    """m times the worst gap of conv D(G) on diff over the facets G of B_Y, and m * ||diff||.

    A smaller face has a larger dual face, whose values contain these, so no
    face of B_Y has a larger gap than the worst facet.
    """
    _, values = _values(space, diff)
    gaps = (_gap([values[i] for i in dual]) for dual in induced_ball(space, y).facet_dual)
    return max(gaps), max(values)


def is_best_coapprox(space: PolyhedralSpace, y: Subspace, x, y0) -> bool:
    """Is y0 a best coapproximation to x out of Y?

    Checks, for every facet G of B_Y, that the values of D(G) on x - y0
    straddle zero, i.e. that some functional norming the facet annihilates
    x - y0.
    """
    _check_ambient(space, y)
    require_coordinates(y, y0, "y0")
    diff = sub(_checked(space.dim, x), vec(y0))
    return is_zero(diff) or _worst_gap(space, y, diff)[0] == 0


def eps_coapprox_defect(space: PolyhedralSpace, y: Subspace, x, y0) -> Fraction:
    """The least epsilon for which y0 is an epsilon-best coapproximation to x.

    The defect is the worst facet's distance of conv D(G) from zero on x - y0,
    normalized by ||x - y0||.  It always lies in [0, 1] and vanishes exactly
    on best coapproximations.
    """
    _check_ambient(space, y)
    require_coordinates(y, y0, "y0")
    diff = sub(_checked(space.dim, x), vec(y0))
    if is_zero(diff):
        raise DegenerateQuery("defect is undefined for x = y0")
    return Fraction(*_worst_gap(space, y, diff))


@dataclass(frozen=True)
class CoapproxResult:
    """Outcome of the search for best coapproximations of x out of Y.

    When solutions exist, ``y0``/``alpha`` give one witness (ambient and basis
    coordinates) and ``region`` is one linear system on the basis coordinates
    whose solution set is the whole set of best coapproximations.  When none
    exists, ``failed_face`` indexes the facet row of B_Y whose condition first
    made the system infeasible (a diagnostic, not a certificate).
    """

    exists: bool
    y0: Vector | None = None
    alpha: Vector | None = None
    region: tuple[Constraint, ...] = ()
    failed_face: int | None = None


def solve_best_coapprox(space: PolyhedralSpace, y: Subspace, x) -> CoapproxResult:
    """Find all best coapproximations to x out of Y as one polyhedron.

    Every functional g of the dual face of a facet G restricts to the facet
    row r_G, so <g, x - y0> = <g, x> - <r_G, alpha>, and the facet's
    condition is min <g, x> <= <r_G, alpha> <= max <g, x> over D(G).  Facet
    conditions imply all subface conditions because dual faces only grow
    toward smaller faces.  The intervals join one growing integer system one
    facet class at a time, each row re-optimized from the previous basis;
    the class whose interval first makes the system infeasible is the failed
    facet.  The witness is the basic point of the grown tableau, rechecked
    facet by facet on the space's integer rows.
    """
    px = _checked(space.dim, x)
    m, values = _values(space, px)
    ball = induced_ball(space, y)
    fm, frows = ball._facet_ints
    grown = _Growing(y.dim)
    system: list[Constraint] = []
    for idx, dual in ball._facet_classes:
        low, high = min(values[i] for i in dual), max(values[i] for i in dual)
        row = ball.facet_rows[idx]
        system += [(row, ">=", Fraction(low, m)), (row, "<=", Fraction(high, m))]
        ints = [m * x for x in frows[idx]]  # m * fm times the row: bounds fm * low, fm * high
        if not (grown.add([-x for x in ints], -fm * low) and grown.add(ints, fm * high)):
            return CoapproxResult(exists=False, failed_face=idx)
    alpha = grown.point()
    y0 = embed(y, alpha)
    if _worst_gap(space, y, sub(px, y0))[0] != 0:
        raise Discrepancy("the grown system's point is not a best coapproximation")
    return CoapproxResult(exists=True, y0=y0, alpha=alpha, region=tuple(system))


@dataclass(frozen=True)
class AntiResult:
    """Outcome of the anti-coproximinality decision.

    ``status`` is "yes" or "no"; a "no" carries a witness pair: x outside Y
    together with one of its best coapproximations, y0 = 0.
    """

    status: str
    rank: int
    smooth_dense: bool
    jy: JYSet
    witness_x: Vector | None = None
    witness_y0: Vector | None = None


def _coapproximable_direction(space: PolyhedralSpace, y: Subspace) -> Vector | None:
    """Some z outside Y to which 0 is a best coapproximation, or None.

    Any x outside Y with a best coapproximation y0 gives z = x - y0.  Such z
    form a symmetric union of cones, one per choice of a pair (g-, g+) from
    each facet class's dual face with <g-, z> <= 0 <= <g+, z>, so each search
    asks for <w, z> >= 1 with one w of an annihilator basis of Y and chooses
    the pairs depth first.  Each tried pair grows a copy of its parent's
    integer system by two rows and is pruned when they make it infeasible;
    a full path's tableau gives z as its basic point.  The tried pairs are
    capped at _ANTI_LP_CAP.
    """
    _, functionals = space._functional_ints
    classes = [
        [functionals[i] for i in dual] for _, dual in induced_ball(space, y)._facet_classes
    ]
    calls = itertools.count(1)

    def descend(parent: _Growing, level: int) -> Vector | None:
        for g_minus, g_plus in itertools.product(classes[level], repeat=2):
            if next(calls) > _ANTI_LP_CAP:
                raise BudgetExceeded(_ANTI_LP_CAP, _ANTI_LP_CAP + 1)
            grown = parent.copy()
            if not (grown.add(g_minus, 0) and grown.add([-x for x in g_plus], 0)):
                continue
            z = grown.point() if level + 1 == len(classes) else descend(grown, level + 1)
            if z is not None:
                return z
        return None

    for w in solve_linear(y.basis, zeros(y.dim)).nullspace:
        root = _Growing(space.dim)
        mult, (ints,) = _cleared([w])
        root.add([-x for x in ints], -mult)
        z = descend(root, 0)
        if z is not None:
            return z
    return None


def is_anti_coproximinal(space: PolyhedralSpace, y: Subspace) -> AntiResult:
    """Does no x outside Y have a best coapproximation out of Y?

    Full rank of the norming-functional set is sufficient in any polyhedral
    space; when the smooth points of X in Y are dense in Y it is also
    necessary, and any nonzero x annihilated by the whole set has 0 as a best
    coapproximation.  Otherwise a straddle search over x with y0 = 0
    decides the question exactly.  Every witness is rechecked.
    """
    require_proper(y.dim, space.dim)
    jy = jy_set_via_faces(space, y)
    jy_rank = rank(jy.functionals)
    dense = smooth_dense_in(space, y)
    if jy_rank == space.dim:
        witness = None
    elif dense:
        witness = solve_linear(jy.functionals, zeros(jy.size)).nullspace[0]
    else:
        witness = _coapproximable_direction(space, y)
    if witness is None:
        return AntiResult(status="yes", rank=jy_rank, smooth_dense=dense, jy=jy)
    origin = zeros(space.dim)
    if coordinates(y, witness) is not None:
        raise Discrepancy("the anti-coproximinality witness lies in Y")
    if not is_best_coapprox(space, y, witness, origin):
        raise Discrepancy("0 is not a best coapproximation to the anti-coproximinality witness")
    return AntiResult(
        status="no", rank=jy_rank, smooth_dense=dense, jy=jy, witness_x=witness, witness_y0=origin
    )


@dataclass(frozen=True)
class StrongResult:
    """Outcome of the strong anti-coproximinality decision.

    A "no" names a facet functional g whose facet interior Y misses, the
    centroid of the B_X vertices on the missed facet as interior point x, and
    the certificate epsilon0 < 1: the largest modulus any extreme functional
    other than +-g takes at x.  For that x, 0 is an epsilon0-best
    coapproximation out of Y.
    """

    status: str
    jy: JYSet
    missed: Vector | None = None
    interior_point: Vector | None = None
    epsilon0: Fraction | None = None


def is_strongly_anti_coproximinal(space: PolyhedralSpace, y: Subspace) -> StrongResult:
    """Does no x outside Y have any epsilon-best coapproximation, epsilon < 1?

    Holds exactly when the norming-functional set is all of the extreme dual
    functionals, i.e. Y meets the interior of every facet of B_X.  A "no" is
    certified without an LP by the vertex centroid of a missed facet, rechecked
    on the space's integer rows and to lie outside Y.
    """
    require_proper(y.dim, space.dim)
    jy = jy_set_via_faces(space, y)
    if jy.size == len(space.dual_extreme):
        return StrongResult(status="yes", jy=jy)

    missed_idx = next(i for i in range(len(space.dual_extreme)) if i not in jy.indices)
    g = space.dual_extreme[missed_idx]
    gm, functionals = space._functional_ints
    vm, vertices = space._vertex_ints
    f = functionals[missed_idx]
    point = centroid(
        [vert for vert, ints in zip(space.vertices, vertices) if sum(map(mul, f, ints)) == gm * vm]
    )
    one, values = _values(space, point)
    if values[missed_idx] != one:
        raise Discrepancy("the certificate point is not on the missed facet")
    if max(values[:missed_idx] + values[missed_idx + 1:]) >= one:
        raise Discrepancy("the certificate point is not interior to the missed facet")
    if coordinates(y, point) is not None:
        raise Discrepancy("an interior point of the missed facet lies in Y")
    pair = (missed_idx, space.dual_extreme.index(neg(g)))
    eps0 = Fraction(max(abs(value) for i, value in enumerate(values) if i not in pair), one)
    return StrongResult(
        status="no", jy=jy, missed=g, interior_point=point, epsilon0=eps0
    )


def sufficient_condition_strong(space: PolyhedralSpace, y: Subspace, x) -> bool:
    """Does some y in Y have J(y) contained in J(x) or J(-x)?

    Faces of the dual ball are disjoint for x and -x, so a connected J(y)
    inside their union lies wholly in one of them; over B_Y this becomes: some
    facet's dual face is a subset of the support set of x or of -x.  Requires
    x outside Y.
    """
    _check_ambient(space, y)
    px = _checked(space.dim, x)
    if coordinates(y, px) is not None:
        raise PointInSubspace("the condition is posed for x outside Y")
    _, values = _values(space, px)
    top, bottom = max(values), min(values)
    supp = frozenset(i for i, value in enumerate(values) if value == top)
    supp_neg = frozenset(i for i, value in enumerate(values) if value == bottom)
    return any(
        supp.issuperset(dual) or supp_neg.issuperset(dual)
        for dual in induced_ball(space, y).facet_dual
    )


def necessary_condition_check(space: PolyhedralSpace, y: Subspace, x) -> bool:
    """Does some y in Y have J(y) meeting J(x)?

    Two faces of the dual ball intersect iff they share an extreme point, so
    the check is a finite intersection of index sets, tried at the vertices
    of B_Y, whose support sets are the largest; ``induced_ball`` records
    each vertex's support set as its dual face.
    """
    px = _checked(space.dim, x)
    if is_zero(px):
        raise ZeroVector("the condition requires nonzero x")
    supp = frozenset(support_set(space, px).indices)
    return any(not supp.isdisjoint(dual) for dual in induced_ball(space, y).vertex_dual)


__all__ = [
    "AntiResult",
    "CoapproxResult",
    "StrongResult",
    "bj_orthogonal",
    "bj_orthogonal_lambda_oracle",
    "eps_bj_orthogonal",
    "eps_coapprox_defect",
    "epsilon_value",
    "is_anti_coproximinal",
    "is_best_coapprox",
    "is_strongly_anti_coproximinal",
    "necessary_condition_check",
    "solve_best_coapprox",
    "sufficient_condition_strong",
]
