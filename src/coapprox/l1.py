"""Fast machinery for subspaces of the sum-norm space.

The extreme dual functionals of the sum norm are the 2^n sign vectors, so all
questions about a subspace Y = span A reduce to combinatorics of the central
hyperplane arrangement H_i = {beta : <beta, comp(i)> = 0} in coefficient
space, where comp(i) is the i-th coordinate column of the basis.  The minimal
norming set consists of the sign vectors realized by open cells of that
arrangement; it is unique exactly when no component is zero, and its size is
bounded by the number of cells, 2 * (C(n-1,0) + ... + C(n-1,m-1)) < 2^n.

That strict gap is the reason no proper subspace of the sum-norm space is
strongly anti-coproximinal, which ``l1_never_strongly_anti`` rechecks against
the generic engine.  Coordinates are 1-based throughout, as in the max-norm
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .coapproximation import CoapproxResult, is_strongly_anti_coproximinal
from .errors import NonEmptyZeroSet
from .linalg import (
    Vector,
    dot,
    is_zero,
    neg,
    rank,
    solve_linear,
    strict_feasibility,
    unit,
    vec,
)
from .spaces import make_l1
from .subspaces import Subspace, embed, require_proper, subspace


def cell_bound(n: int, m: int) -> int:
    """Most open cells an arrangement of n central hyperplanes in Q^m can have."""
    return 2 * sum(comb(n - 1, k) for k in range(m))


def zero_set(a_rows) -> frozenset[int]:
    """1-based coordinates whose component is the zero vector."""
    basis = subspace(a_rows).basis
    comps = tuple(zip(*basis, strict=True))
    return frozenset(i + 1 for i, c in enumerate(comps) if is_zero(c))


@dataclass(frozen=True)
class NormingSet:
    """The minimal norming set of Y: sign vectors realized by open cells.

    ``signs`` is canonically ordered: representatives with leading entry +1
    in descending lexicographic order, each immediately followed by its
    negation.  ``witnesses`` aligns with ``signs``; each witness beta realizes
    its sign vector with strict inequalities sign_i * <beta, comp(i)> > 0.
    """

    signs: tuple[Vector, ...]
    witnesses: tuple[Vector, ...]

    @property
    def size(self) -> int:
        return len(self.signs)

    @property
    def representatives(self) -> tuple[Vector, ...]:
        return self.signs[::2]


def minimal_norming_set(a_rows) -> NormingSet:
    """Enumerate the realized sign vectors by a sign-prefix search.

    Signs are assigned coordinate by coordinate; a prefix survives only while
    the strict system {s_i * <beta, comp(i)> > 0 : i assigned} stays feasible,
    which prunes entire subtrees and keeps the walk polynomial in n for fixed
    m.  The beta -> -beta symmetry fixes the first sign to +1 and the second
    half of the set is obtained by negation.
    """
    basis = subspace(a_rows).basis
    zeros_found = zero_set(a_rows)
    if zeros_found:
        raise NonEmptyZeroSet(
            f"coordinates {sorted(zeros_found)} have zero components; "
            "the minimal norming set is not unique"
        )
    comps = tuple(zip(*basis, strict=True))
    n = len(comps)
    found: list[tuple[Vector, Vector]] = []

    def assign(i: int, rows: list[Vector], signs: list[int]) -> None:
        feas = strict_feasibility(tuple(rows))
        if not feas.feasible:
            return
        if i == n:
            found.append((vec(signs), feas.witness))
            return
        for s in (1, -1):
            rows.append(comps[i] if s == 1 else neg(comps[i]))
            signs.append(s)
            assign(i + 1, rows, signs)
            rows.pop()
            signs.pop()

    assign(1, [comps[0]], [1])
    found.sort(key=lambda pair: pair[0], reverse=True)
    signs: list[Vector] = []
    witnesses: list[Vector] = []
    for s, beta in found:
        signs.extend((s, neg(s)))
        witnesses.extend((beta, neg(beta)))
    return NormingSet(signs=tuple(signs), witnesses=tuple(witnesses))


@dataclass(frozen=True)
class L1AntiResult:
    """Anti-coproximinality verdict for span A in the sum-norm space.

    A "no" carries the failing clause: "zero-set" (some coordinate vanishes
    on Y; the corresponding unit vector has best coapproximation 0) or "rank"
    (the norming set does not span).
    """

    status: str
    reason: str | None = None
    witness_x: Vector | None = None
    norming: NormingSet | None = None
    rank: int | None = None


def l1_is_anti_coproximinal(a_rows) -> L1AntiResult:
    """Is span A anti-coproximinal in the sum-norm space?

    A nonempty zero set always defeats it; otherwise the verdict is by the
    rank of the minimal norming set, which must be full.
    """
    basis = subspace(a_rows).basis
    m, n = len(basis), len(basis[0])
    require_proper(m, n)
    zeros_found = zero_set(a_rows)
    if zeros_found:
        j = min(zeros_found)
        return L1AntiResult(
            status="no",
            reason="zero-set",
            witness_x=unit(n, j - 1),
        )
    norming = minimal_norming_set(a_rows)
    r = rank(norming.representatives)
    if r == n:
        return L1AntiResult(status="yes", norming=norming, rank=r)
    return L1AntiResult(status="no", reason="rank", norming=norming, rank=r)


def l1_best_coapprox(a_rows, b) -> CoapproxResult:
    """Best coapproximations to b out of span A, by the norming-set system.

    y0 in Y is a best coapproximation to b iff <y0, s> = <b, s> for every s
    in the minimal norming set (one representative per +- pair suffices).
    With no zero component the system matrix has full column rank, so the
    outcome is a unique solution or inconsistency, never a family.
    """
    y = subspace(a_rows)
    basis = y.basis
    point = vec(b)
    norming = minimal_norming_set(a_rows)
    reps = norming.representatives
    system = tuple(tuple(dot(row, s) for row in basis) for s in reps)
    rhs = tuple(dot(point, s) for s in reps)
    sol = solve_linear(system, rhs)
    if sol.kind == "inconsistent":
        return CoapproxResult(exists=False)
    assert sol.kind == "unique", "a norming set annihilates no nonzero element of Y"
    alpha = sol.particular
    region = (tuple((row, "==", value) for row, value in zip(system, rhs)),)
    return CoapproxResult(exists=True, y0=embed(y, alpha), alpha=alpha, region=region)


@dataclass(frozen=True)
class NoStrongReport:
    """Checked confirmation that span A is not strongly anti-coproximinal.

    ``norming_size`` is None when the zero set is nonempty (the norming set
    is then not unique and the subspace is not even anti-coproximinal).  The
    cell bound 2 * sum_{k<m} C(n-1, k) is always strictly below 2^n, and the
    generic engine's verdict with its missed facet is recorded.
    """

    n: int
    m: int
    zero: tuple[int, ...]
    norming_size: int | None
    bound: int
    total_sign_vectors: int
    generic_status: str
    missed_facet: Vector | None


def l1_never_strongly_anti(a_rows) -> NoStrongReport:
    """Confirm the no-strong verdict for span A against the generic engine."""
    basis = subspace(a_rows).basis
    m, n = len(basis), len(basis[0])
    require_proper(m, n)
    zeros_found = zero_set(a_rows)
    bound = cell_bound(n, m)
    size: int | None = None
    if not zeros_found:
        size = minimal_norming_set(a_rows).size
        assert size <= bound
    assert bound < 2**n
    generic = is_strongly_anti_coproximinal(make_l1(n), Subspace(basis=basis))
    assert generic.status == "no", "no subspace of the sum-norm space is strongly anti-coproximinal"
    return NoStrongReport(
        n=n,
        m=m,
        zero=tuple(sorted(zeros_found)),
        norming_size=size,
        bound=bound,
        total_sign_vectors=2**n,
        generic_status=generic.status,
        missed_facet=generic.missed,
    )


__all__ = [
    "L1AntiResult",
    "NoStrongReport",
    "NormingSet",
    "cell_bound",
    "l1_best_coapprox",
    "l1_is_anti_coproximinal",
    "l1_never_strongly_anti",
    "minimal_norming_set",
    "zero_set",
]
