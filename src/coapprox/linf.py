"""Fast classification of subspaces of the max-norm space by components.

For a basis a^1, ..., a^m of Y in the max-norm space of dimension n, the i-th
component is the vector (a_i^1, ..., a_i^m) of i-th coordinates.  Coordinates
i and j are associated when their components agree exactly or negate exactly;
the i-th component satisfies the starred separation property when some
coefficient vector beta makes |<beta, comp(i)>| strictly dominate every
non-associated |<beta, comp(j)>|.

Y is strongly anti-coproximinal (equivalently, anti-coproximinal: the two
notions coincide in this space) iff every coordinate's associated class is
trivial and every component satisfies the separation property.  Both checks
are exact: the separation property is a strict homogeneous feasibility
problem, grown on one tableau after the sign reduction <beta, comp(i)> > 0.

Coordinates are 1-based throughout this module, matching the usual display
convention for coordinate functionals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionOutOfRange
from .linalg import Vector, _cleared, strict_feasibility
from .subspaces import require_proper, subspace


@dataclass(frozen=True)
class ComponentTable:
    """Components of a basis with their associated index sets (1-based).

    ``p_plus[i-1]`` holds every j whose component equals component i;
    ``p_minus[i-1]`` every j whose component is its exact negation.  A zero
    component is its own negation, so it lies in both of its own sets.
    """

    components: tuple[Vector, ...]
    p_plus: tuple[frozenset[int], ...]
    p_minus: tuple[frozenset[int], ...]

    @property
    def n(self) -> int:
        return len(self.components)

    def component(self, i: int) -> Vector:
        return self.components[i - 1]

    def associated(self, i: int) -> frozenset[int]:
        """P_i^+ union P_i^-: all coordinates tied to i up to sign."""
        return self.p_plus[i - 1] | self.p_minus[i - 1]

    @cached_property
    def _ints(self) -> tuple[int, list[list[int]]]:
        """The components cleared to integers by one common multiplier."""
        return _cleared(self.components)


def component_table(a_rows) -> ComponentTable:
    """Components and associated sets of an independent family in max norm."""
    basis = subspace(a_rows).basis
    comps = tuple(zip(*basis, strict=True))
    # one common multiplier keeps equality and negation of the cleared components
    keys = [tuple(c) for c in _cleared(comps)[1]]
    tied: dict[tuple[int, ...], set[int]] = {}
    for j, key in enumerate(keys, 1):
        tied.setdefault(key, set()).add(j)
    return ComponentTable(
        components=comps,
        p_plus=tuple(frozenset(tied[key]) for key in keys),
        p_minus=tuple(frozenset(tied.get(tuple(-x for x in key), ())) for key in keys),
    )


@dataclass(frozen=True)
class StarResult:
    """Separation-property outcome for one component; witness is exact."""

    holds: bool
    witness: Vector | None = None


def star_property(a_rows, i: int) -> StarResult:
    """Does the i-th component dominate all non-associated ones for some beta?

    By the beta -> -beta symmetry it is enough to search the half-space
    <beta, comp(i)> > 0, where |<beta, comp(i)>| > |<beta, comp(j)>| becomes
    the pair of strict inequalities <beta, comp(i) - comp(j)> > 0 and
    <beta, comp(i) + comp(j)> > 0.  The resulting homogeneous strict system
    (including <beta, comp(i)> > 0 itself) is decided exactly; when every
    coordinate is associated to i the system degenerates to that single row,
    so a zero component fails and any other component holds.
    """
    if isinstance(i, bool) or not isinstance(i, int):
        raise TypeError(f"coordinate {i!r} is not an int")
    table = component_table(a_rows)
    if not 1 <= i <= table.n:
        raise DimensionOutOfRange(f"coordinate {i} outside 1..{table.n}")
    return _star(table, i)


def _star(table: ComponentTable, i: int) -> StarResult:
    mult, comps = table._ints
    ci = comps[i - 1]
    if not any(ci):
        return StarResult(holds=False)
    rows = [ci]
    for j, cj in enumerate(comps, 1):
        if j not in table.associated(i):
            rows += [[a - b for a, b in zip(ci, cj)], [a + b for a, b in zip(ci, cj)]]
    feas = strict_feasibility(rows)
    if feas.feasible:
        # mult * beta solves the rational rows with margin 1 as beta does these
        return StarResult(holds=True, witness=tuple(mult * x for x in feas.witness))
    return StarResult(holds=False)


@dataclass(frozen=True)
class LinfClassification:
    """Classification verdict with the first failing coordinate, if any.

    In the max-norm space anti-coproximinal and strongly anti-coproximinal
    coincide, so one verdict covers both.  ``failing_clause`` is "associated"
    (some other coordinate is tied to this one) or "star" (the separation
    property fails); ``star_results`` records the per-coordinate outcomes
    actually computed, keyed by 1-based coordinate.
    """

    strongly_anti: bool
    failing_index: int | None = None
    failing_clause: str | None = None
    reason: str | None = None
    star_results: tuple[tuple[int, StarResult], ...] = ()


def linf_classify(a_rows) -> LinfClassification:
    """Classify span(A) in the max-norm space of dimension n = row length.

    Strongly anti-coproximinal iff every associated class is the singleton
    {i} and every component satisfies the separation property; coordinates
    are scanned in order and the first failure is reported.
    """
    table = component_table(a_rows)
    n = table.n
    require_proper(len(table.components[0]), n)
    stars: list[tuple[int, StarResult]] = []
    for i in range(1, n + 1):
        if table.associated(i) != frozenset({i}):
            other = min(table.associated(i) - {i})
            return LinfClassification(
                strongly_anti=False,
                failing_index=i,
                failing_clause="associated",
                reason=(
                    f"coordinate {i} is associated with coordinate {other} "
                    "(equal or negated component)"
                ),
                star_results=tuple(stars),
            )
        result = _star(table, i)
        stars.append((i, result))
        if not result.holds:
            return LinfClassification(
                strongly_anti=False,
                failing_index=i,
                failing_clause="star",
                reason=f"component {i} does not satisfy the separation property",
                star_results=tuple(stars),
            )
    return LinfClassification(strongly_anti=True, star_results=tuple(stars))


__all__ = [
    "ComponentTable",
    "LinfClassification",
    "StarResult",
    "component_table",
    "linf_classify",
    "star_property",
]
