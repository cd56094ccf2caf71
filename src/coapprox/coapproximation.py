"""Birkhoff-James orthogonality, best coapproximation, and classification.

The backbone of every decision here is one finiteness argument: the support
set J(y) is constant on the relative interior of each face G of the induced
ball B_Y, equal to conv D(G), and the dual face D(G) grows as G shrinks.  So a
statement about all y in Y is a scan over the facets of B_Y, one about some y
a scan over its vertices, with min/max over D(G) standing in for "some
functional in J(y)" because J(y) is a polytope.

A point y0 in Y is a best coapproximation to x exactly when every facet G of
B_Y admits a functional in conv D(G) vanishing on x - y0, i.e. when the values
of D(G) on x - y0 straddle zero.  The epsilon-defect replaces "straddle zero"
by the distance of the value interval from zero, normalized by ||x - y0||; it
is the least epsilon for which y0 is an epsilon-best coapproximation.

Subspace classification rests on the norming-functional set: full rank makes
the subspace anti-coproximinal (no x outside Y has any best coapproximation),
meeting the interior of every facet of B_X makes it strongly so (no x outside
Y has an epsilon-best coapproximation for any epsilon < 1).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

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
    dot,
    fr,
    is_zero,
    lp_solve,
    neg,
    rank,
    solve_linear,
    sub,
    unit,
    vec,
    zeros,
)
from .spaces import PolyhedralSpace, norm, support_set
from .subspaces import (
    JYSet,
    Subspace,
    coordinates,
    embed,
    induced_ball,
    jy_set_via_faces,
    require_coordinates,
    require_proper,
    restrict,
    smooth_dense_in,
)


_ANTI_SAMPLES = 25  # random points tried when the rank criterion is not decisive


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
    values = [dot(g, vec(y)) for g in support_set(space, x).functionals]
    return min(values) <= 0 <= max(values)


def bj_orthogonal_lambda_oracle(space: PolyhedralSpace, x, y) -> bool:
    """The same relation decided by direct norm minimization over lambda.

    Solves min over lambda of ||x + lambda y|| as an LP (the norm is the upper
    envelope of the extreme functionals) and compares the optimum with ||x||;
    equality means no lambda improves on lambda = 0, which is orthogonality.
    """
    px = vec(x)
    if is_zero(px):
        raise ZeroVector("orthogonality requires nonzero x")
    py = vec(y)
    constraints = tuple(
        ((dot(g, py), -ONE), "<=", -dot(g, px)) for g in space.dual_extreme
    )
    problem = LpProblem(objective=(ZERO, ONE), constraints=constraints)
    res = lp_solve(problem, "min")
    assert res.status == "optimal", "the envelope LP is feasible and bounded below"
    return res.value == norm(space, px)


def eps_bj_orthogonal(space: PolyhedralSpace, x, y, eps) -> bool:
    """Approximate orthogonality: some f in J(x) has |f(y)| <= eps * ||y||."""
    epsilon = epsilon_value(eps)
    py = vec(y)
    values = [dot(g, py) for g in support_set(space, x).functionals]
    return _gap(values) <= epsilon * norm(space, py)


def _gap(values) -> Fraction:
    """Distance from 0 to the hull of the values: 0 when they straddle zero."""
    return max(min(values), -max(values), ZERO)


def _facet_gaps(space: PolyhedralSpace, y: Subspace, diff: Vector):
    """The gap of conv D(G) on diff for each facet G of B_Y.

    A smaller face has a larger dual face, whose values contain these, so no
    face of B_Y has a larger gap than the worst facet.
    """
    for dual in induced_ball(space, y).facet_dual:
        yield _gap([dot(space.dual_extreme[i], diff) for i in dual])


def is_best_coapprox(space: PolyhedralSpace, y: Subspace, x, y0) -> bool:
    """Is y0 a best coapproximation to x out of Y?

    Checks, for every facet G of B_Y, that the values of D(G) on x - y0
    straddle zero, i.e. that some functional norming the facet annihilates
    x - y0.
    """
    require_coordinates(y, y0, "y0")
    diff = sub(vec(x), vec(y0))
    return is_zero(diff) or all(gap == 0 for gap in _facet_gaps(space, y, diff))


def eps_coapprox_defect(space: PolyhedralSpace, y: Subspace, x, y0) -> Fraction:
    """The least epsilon for which y0 is an epsilon-best coapproximation to x.

    The defect is the worst facet's distance of conv D(G) from zero on x - y0,
    normalized by ||x - y0||.  It always lies in [0, 1] and vanishes exactly
    on best coapproximations.
    """
    require_coordinates(y, y0, "y0")
    diff = sub(vec(x), vec(y0))
    if is_zero(diff):
        raise DegenerateQuery("defect is undefined for x = y0")
    return max(_facet_gaps(space, y, diff)) / norm(space, diff)


@dataclass(frozen=True)
class CoapproxResult:
    """Search outcome for best coapproximations of x out of Y.

    When solutions exist, ``y0``/``alpha`` give one witness (ambient and basis
    coordinates) and ``region`` lists every feasible witness system as
    constraints on the basis coordinates; their union of solution sets is the
    full set of best coapproximations.  When none exists, ``failed_face``
    indexes the facet row of B_Y at which the deepest partial witness system
    died (a diagnostic, not a certificate of uniqueness).
    """

    exists: bool
    y0: Vector | None = None
    alpha: Vector | None = None
    region: tuple[tuple[Constraint, ...], ...] = ()
    failed_face: int | None = None


def solve_best_coapprox(
    space: PolyhedralSpace, y: Subspace, x, budget: int = 10**6
) -> CoapproxResult:
    """Find all best coapproximations to x out of Y by witness enumeration.

    For each facet class of B_Y (one representative per +- pair: opposite
    faces carry negated dual faces and yield the same conditions), choose a
    witness pair (g-, g+) from its dual face with <g-, x - y0> <= 0 and
    <g+, x - y0> >= 0; facet conditions imply all subface conditions because
    dual faces only grow toward smaller faces.  Each complete choice is a
    linear feasibility problem in the basis coordinates of y0, explored
    depth-first with infeasible prefixes pruned.  The total choice count is
    capped by ``budget``.
    """
    px = vec(x)
    ball = induced_ball(space, y)

    reps: list[int] = []
    seen: set[Vector] = set()
    for idx, row in enumerate(ball.facet_rows):
        if neg(row) in seen:
            continue
        seen.add(row)
        reps.append(idx)

    duals = [ball.facet_dual[idx] for idx in reps]
    combos = 1
    for dual in duals:
        combos *= len(dual) ** 2
    if combos > budget:
        raise BudgetExceeded(budget, combos)

    m = y.dim
    feasible_systems: list[tuple[Constraint, ...]] = []
    witness_alpha: Vector | None = None
    deepest = 0

    def feasible(system: list[Constraint]) -> Vector | None:
        problem = LpProblem(objective=zeros(m), constraints=tuple(system))
        res = lp_solve(problem, "max")
        return res.point if res.status == "optimal" else None

    def descend(level: int, system: list[Constraint], point: Vector) -> None:
        # point is feasible for the current system (checked by the caller)
        nonlocal witness_alpha, deepest
        deepest = max(deepest, level)
        if level == len(reps):
            feasible_systems.append(tuple(system))
            if witness_alpha is None:
                witness_alpha = point
            return
        for g_minus, g_plus in itertools.product(duals[level], repeat=2):
            lo = (restrict(y, space.dual_extreme[g_minus]), ">=", dot(space.dual_extreme[g_minus], px))
            hi = (restrict(y, space.dual_extreme[g_plus]), "<=", dot(space.dual_extreme[g_plus], px))
            system.extend((lo, hi))
            extended = feasible(system)
            if extended is not None:
                descend(level + 1, system, extended)
            system.pop()
            system.pop()

    descend(0, [], zeros(m))
    if witness_alpha is None:
        return CoapproxResult(exists=False, failed_face=reps[deepest])
    return CoapproxResult(
        exists=True,
        y0=embed(y, witness_alpha),
        alpha=witness_alpha,
        region=tuple(feasible_systems),
    )


@dataclass(frozen=True)
class AntiResult:
    """Outcome of the anti-coproximinality decision.

    ``status`` is "yes", "no", or "undecided"; a "no" carries a witness pair
    (x outside Y together with one of its best coapproximations).  "undecided"
    can only arise when the smooth points of X in Y are not dense in Y, where
    the rank criterion is only sufficient.
    """

    status: str
    rank: int
    smooth_dense: bool
    jy: JYSet
    witness_x: Vector | None = None
    witness_y0: Vector | None = None


def is_anti_coproximinal(space: PolyhedralSpace, y: Subspace, seed: int = 0) -> AntiResult:
    """Does no x outside Y have a best coapproximation out of Y?

    Full rank of the norming-functional set is sufficient in any polyhedral
    space; when the smooth points of X in Y are dense in Y it is also
    necessary, and a rank-deficient set yields an explicit witness: any
    nonzero x annihilated by the whole set has 0 as a best coapproximation.
    Without density, rank deficiency leaves the question open and a seeded
    randomized search looks for witnesses before reporting "undecided".
    """
    require_proper(y.dim, space.dim)
    jy = jy_set_via_faces(space, y)
    jy_rank = rank(jy.functionals)
    dense = smooth_dense_in(space, y)
    if jy_rank == space.dim:
        return AntiResult(status="yes", rank=jy_rank, smooth_dense=dense, jy=jy)

    origin = zeros(space.dim)
    ann_rows = jy.functionals if jy.functionals else (zeros(space.dim),)
    kernel = solve_linear(ann_rows, zeros(len(ann_rows))).nullspace
    if dense:
        witness = kernel[0]
        if coordinates(y, witness) is not None:
            raise Discrepancy("a norming-set annihilator lies in Y")
        if not is_best_coapprox(space, y, witness, origin):
            raise Discrepancy("0 is not a best coapproximation to the norming-set annihilator")
        return AntiResult(
            status="no",
            rank=jy_rank,
            smooth_dense=True,
            jy=jy,
            witness_x=witness,
            witness_y0=origin,
        )

    rng = random.Random(seed)
    candidates = [v for v in kernel if coordinates(y, v) is None]
    for _ in range(_ANTI_SAMPLES):
        point = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(space.dim))
        if not is_zero(point) and coordinates(y, point) is None:
            candidates.append(point)
    for x in candidates:
        if is_best_coapprox(space, y, x, origin):
            return AntiResult(
                status="no", rank=jy_rank, smooth_dense=False, jy=jy,
                witness_x=x, witness_y0=origin,
            )
        try:
            result = solve_best_coapprox(space, y, x, budget=10**4)
        except BudgetExceeded:
            continue
        if result.exists:
            return AntiResult(
                status="no", rank=jy_rank, smooth_dense=False, jy=jy,
                witness_x=x, witness_y0=result.y0,
            )
    return AntiResult(status="undecided", rank=jy_rank, smooth_dense=False, jy=jy)


@dataclass(frozen=True)
class StrongResult:
    """Outcome of the strong anti-coproximinality decision.

    A "no" names a facet functional whose facet interior Y misses, an interior
    point x of that facet, and the certificate epsilon0 < 1: the largest
    modulus any other extreme functional takes at x.  For that x, 0 is an
    epsilon0-best coapproximation out of Y.
    """

    status: str
    jy: JYSet
    missed: Vector | None = None
    interior_point: Vector | None = None
    epsilon0: Fraction | None = None


def is_strongly_anti_coproximinal(space: PolyhedralSpace, y: Subspace) -> StrongResult:
    """Does no x outside Y have any epsilon-best coapproximation, epsilon < 1?

    Holds exactly when the norming-functional set is all of the extreme dual
    functionals, i.e. Y meets the interior of every facet of B_X.
    """
    require_proper(y.dim, space.dim)
    jy = jy_set_via_faces(space, y)
    if jy.size == len(space.dual_extreme):
        return StrongResult(status="yes", jy=jy)

    missed_idx = next(i for i in range(len(space.dual_extreme)) if i not in jy.indices)
    g = space.dual_extreme[missed_idx]
    n = space.dim
    rows: list[Constraint] = [(g + (ZERO,), "==", ONE)]
    for other in space.dual_extreme:
        if other != g:
            rows.append((other + (ONE,), "<=", ONE))
    res = lp_solve(LpProblem(objective=unit(n + 1, n), constraints=tuple(rows)), "max")
    if res.status != "optimal" or res.value <= 0:
        raise Discrepancy("the missed facet has no interior point")
    point = res.point[:n]
    if coordinates(y, point) is not None:
        raise Discrepancy("an interior point of the missed facet lies in Y")
    eps0 = max(
        abs(dot(other, point))
        for other in space.dual_extreme
        if other != g and other != neg(g)
    )
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
    px = vec(x)
    if coordinates(y, px) is not None:
        raise PointInSubspace("the condition is posed for x outside Y")
    supp = frozenset(support_set(space, px).indices)
    supp_neg = frozenset(support_set(space, neg(px)).indices)
    return any(
        supp.issuperset(dual) or supp_neg.issuperset(dual)
        for dual in induced_ball(space, y).facet_dual
    )


def necessary_condition_check(space: PolyhedralSpace, y: Subspace, x) -> bool:
    """Does some y in Y have J(y) meeting J(x)?

    Two faces of the dual ball intersect iff they share an extreme point, so
    the check is a finite intersection of index sets, tried at the vertices
    of B_Y, whose support sets are the largest.
    """
    px = vec(x)
    if is_zero(px):
        raise ZeroVector("the condition requires nonzero x")
    supp = frozenset(support_set(space, px).indices)
    return any(
        not supp.isdisjoint(support_set(space, embed(y, vert)).indices)
        for vert in induced_ball(space, y).vertices
    )


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
