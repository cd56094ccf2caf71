"""Fast machinery for subspaces of the sum-norm space.

The extreme dual functionals of the sum norm are the 2^n sign vectors, so all
questions about a subspace Y = span A reduce to combinatorics of the central
hyperplane arrangement H_i = {beta : <beta, comp(i)> = 0} in coefficient
space, where comp(i) is the i-th coordinate column of the basis.  The minimal
norming set consists of the sign vectors realized by open cells of that
arrangement, found by a sign walk that grows one integer tableau a row at a
time; it is unique exactly when no component is zero, and its size is
bounded by the number of cells, 2 * (C(n-1,0) + ... + C(n-1,m-1)) < 2^n.

That strict gap is the reason no proper subspace of the sum-norm space is
strongly anti-coproximinal, which ``classify(..., verify=True)`` rechecks
against the generic engine.  Coordinates are 1-based throughout, as in the
max-norm module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import mul

from .coapproximation import CoapproxResult
from .errors import Discrepancy, NonEmptyZeroSet
from .linalg import (
    Vector,
    _cleared,
    _Growing,
    dot,
    is_zero,
    neg,
    rank,
    solve_linear,
    unit,
    vec,
)
from .spaces import _checked
from .subspaces import embed, require_proper, subspace


def cell_bound(n: int, m: int) -> int:
    """Most open cells an arrangement of n central hyperplanes in Q^m can have."""
    return 2 * sum(comb(n - 1, k) for k in range(m))


def zero_set(a_rows) -> frozenset[int]:
    """1-based coordinates whose component is the zero vector."""
    return _zero_set(subspace(a_rows).basis)


def _zero_set(basis) -> frozenset[int]:
    return frozenset(i + 1 for i, c in enumerate(zip(*basis, strict=True)) if is_zero(c))


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

    Signs are assigned coordinate by coordinate, each child growing a copy of
    its parent's integer system by its row s_i * <beta, comp(i)> >= 1; a
    refused row prunes the subtree, which keeps the walk polynomial in n for
    fixed m, and a full sign vector reads its witness off the tableau.  The
    beta -> -beta symmetry fixes the first sign to +1 and the second half of
    the set is obtained by negation.
    """
    return _norming_set(subspace(a_rows).basis)


def _norming_set(basis) -> NormingSet:
    zeros_found = _zero_set(basis)
    if zeros_found:
        raise NonEmptyZeroSet(
            f"coordinates {sorted(zeros_found)} have zero components; "
            "the minimal norming set is not unique"
        )
    comps = tuple(zip(*basis, strict=True))
    mult, ints = _cleared(comps)
    found: list[tuple[Vector, Vector]] = []

    def descend(parent: _Growing, i: int, signs: tuple[int, ...]) -> None:
        if i == len(comps):
            beta = parent.point()
            _, (w,) = _cleared([beta])
            if not all(s * sum(map(mul, row, w)) > 0 for s, row in zip(signs, ints)):
                raise Discrepancy("a norming-set witness fails its sign vector")
            found.append((vec(signs), beta))
            return
        for s in (1, -1) if i else (1,):
            grown = parent.copy()
            if grown.add([-s * x for x in ints[i]], -mult):
                descend(grown, i + 1, (*signs, s))

    descend(_Growing(len(basis)), 0, ())
    found.sort(key=lambda pair: pair[0], reverse=True)
    both = [pair for s, beta in found for pair in ((s, beta), (neg(s), neg(beta)))]
    return NormingSet(signs=tuple(s for s, _ in both), witnesses=tuple(w for _, w in both))


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
    zeros_found = _zero_set(basis)
    if zeros_found:
        witness = unit(n, min(zeros_found) - 1)
        return L1AntiResult(status="no", reason="zero-set", witness_x=witness)
    norming = _norming_set(basis)
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
    point = _checked(y.ambient_dim, b)
    norming = _norming_set(basis)
    reps = norming.representatives
    system = tuple(tuple(dot(row, s) for row in basis) for s in reps)
    rhs = tuple(dot(point, s) for s in reps)
    sol = solve_linear(system, rhs)
    if sol.kind == "inconsistent":
        return CoapproxResult(exists=False)
    if sol.kind != "unique":
        raise Discrepancy("a norming set annihilates no nonzero element of Y")
    alpha = sol.particular
    region = tuple((row, "==", value) for row, value in zip(system, rhs))
    return CoapproxResult(exists=True, y0=embed(y, alpha), alpha=alpha, region=region)


__all__ = [
    "L1AntiResult",
    "NormingSet",
    "l1_best_coapprox",
    "l1_is_anti_coproximinal",
    "minimal_norming_set",
    "zero_set",
]
