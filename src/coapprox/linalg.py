"""Exact rational linear algebra.

Vectors are tuples of ``fractions.Fraction``, matrices are tuples of such
tuples.  Everything in this module is pure and tolerance-free: one
fraction-free (Bareiss) pivot step, ``_pivot``, on a condensed tableau of
integer rows (nonbasic columns only) drives both the Gauss-Jordan elimination
behind ranks and linear systems and the simplex, with Bland's rule, so
termination and exactness are guaranteed.  One phase one grows a system of
integer rows on one tableau; a strict system is read off its basic point, and
a linear program is optimized on it.
No floating point enters any code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import Discrepancy

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def fr(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction.

    Floats are rejected: a float literal has already lost exactness and
    silently accepting one would poison every downstream strict-inequality
    decision.  Exponent strings are rejected too: Fraction builds 10**exp
    exactly, so "1e10000000" alone would stall for seconds.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"cannot interpret {value!r} as a rational number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(
                f"exponent notation {value!r} is not accepted; write rationals as \"p/q\""
            )
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number (use int or 'p/q')")


def vec(entries) -> Vector:
    return tuple(fr(x) for x in entries)


def mat(rows) -> Matrix:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("matrix rows have unequal lengths")
    return m


def zeros(n: int) -> Vector:
    return (ZERO,) * n


def unit(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def dot(u: Vector, v: Vector) -> Fraction:
    """<u, v> summed on integer numerators over one denominator, normalized once."""
    num, den = 0, 1
    for a, b in zip(u, v, strict=True):
        q = a.denominator * b.denominator
        num = num * q + a.numerator * b.numerator * den
        den *= q
    return Fraction(num, den)


def add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def scale(u: Vector, c: Fraction) -> Vector:
    return tuple(a * c for a in u)


def neg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def is_zero(u: Vector) -> bool:
    return all(a == 0 for a in u)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m, strict=True)) if m else ()


def _cleared(vectors) -> tuple[int, list[list[int]]]:
    """Clear rational vectors to integer rows by one common positive multiplier.

    The multiplier is the lcm of every denominator, so each integer row is
    the rational one times it and every sign and ratio is kept.
    """
    mult = lcm(*(x.denominator for v in vectors for x in v))
    return mult, [[x.numerator * (mult // x.denominator) for x in v] for v in vectors]


def _cleared_row(v) -> list[int]:
    """One rational row times the lcm of its own denominators: integers, same ratios."""
    mult = lcm(*(x.denominator for x in v))
    return [x.numerator * (mult // x.denominator) for x in v]


def _pivot(rows: list, r: int, s: int, d: int) -> int:
    """One Bareiss step on the nonbasic columns, in place: rows[r][s] = p enters; returns p.

    Every other row gets (p*a - f*b) // d, f its entry in column s, and the
    pivot row is kept; each entry stays a minor of the cleared rows, so the
    division is exact.  Column s then holds the leaving variable, whose full
    column was d times a unit vector: -f in each row i != r and d in row r.
    """
    top, p = rows[r], rows[r][s]
    for i, row in enumerate(rows):
        if i != r:
            f = row[s]
            rows[i] = [(p * a - f * b) // d for a, b in zip(row, top)]
            rows[i][s] = -f
    rows[r] = [*top[:s], d, *top[s + 1:]]
    return p


def _reduce(rows: list, ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of a list of integer rows, in place.

    Pivots are taken left to right in the first ``ncols`` columns, each one
    ``_pivot`` step: the rows are a condensed tableau whose basic columns,
    the rows' own slacks, are not stored.  Every column but the pivot
    columns, a right-hand side too, gets the Bareiss update, so on return
    those columns hold d times the reduced row echelon form; each pivot
    column holds the slack it swapped out.  Callers clear rational rows
    first (row scaling changes neither the row space nor the solutions);
    any entry but an int is refused with TypeError, and rows of unequal
    lengths with ValueError.
    """
    if not {int}.issuperset(type(x) for row in rows for x in row):
        raise TypeError("an eliminated row takes int entries only")
    lengths = {len(row) for row in rows}
    if len(lengths) > 1:
        raise ValueError(f"eliminated rows have unequal lengths {sorted(lengths)}")
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prev = _pivot(rows, r, col, prev)
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return pivots, prev


def rank(m: Matrix) -> int:
    """Rank over the rationals: the pivot count of the fraction-free elimination."""
    pivots, _ = _reduce([_cleared_row(row) for row in m], len(m[0]) if m else 0)
    return len(pivots)


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of solve_linear: kind is "unique", "affine", or "inconsistent".

    For "unique" and "affine", ``particular`` satisfies A x = b exactly; for
    "affine", ``nullspace`` rows form a basis of ker A, so the solution set is
    particular + span(nullspace).
    """

    kind: str
    particular: Vector | None = None
    nullspace: Matrix = ()


def solve_linear(a: Matrix, b: Vector) -> LinearSolution:
    """Exactly classify and solve the linear system A x = b.

    The augmented rows go through the same fraction-free elimination as
    ``rank``; Fractions are made only when the solution is read off.
    """
    if len(b) != len(a):
        raise ValueError("right-hand side length does not match row count")
    ncols = len(a[0]) if a else 0
    rows = [_cleared_row((*row, rhs)) for row, rhs in zip(a, b)]
    pivots, d = _reduce(rows, ncols)
    if any(row[ncols] != 0 for row in rows[len(pivots):]):
        return LinearSolution(kind="inconsistent")

    particular = [ZERO] * ncols
    for row, col in zip(rows, pivots):
        particular[col] = Fraction(row[ncols], d)

    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return LinearSolution(kind="unique", particular=tuple(particular))

    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for row, col in zip(rows, pivots):
            v[col] = Fraction(-row[f], d)
        basis.append(tuple(v))
    return LinearSolution(kind="affine", particular=tuple(particular), nullspace=tuple(basis))


Relation = str  # "<=", "==", ">="

Constraint = tuple[Vector, Relation, Fraction]


@dataclass(frozen=True)
class LpProblem:
    """A linear program: objective vector, constraints, optional variable bounds.

    Constraints are (coefficients, relation, rhs) with relation one of
    "<=", "==", ">=".  Bounds, when given, are one (lower, upper) pair per
    variable with None meaning unbounded on that side; variables are otherwise
    free.
    """

    objective: Vector
    constraints: tuple[Constraint, ...]
    bounds: tuple[tuple[Fraction | None, Fraction | None], ...] | None = None

    def __post_init__(self):
        for coeffs, rel, _ in self.constraints:
            if rel not in ("<=", "==", ">="):
                raise ValueError(f"unknown relation {rel!r}")
            if len(coeffs) != len(self.objective):
                raise ValueError("constraint arity does not match objective")
        if self.bounds is not None and len(self.bounds) != len(self.objective):
            raise ValueError("bounds arity does not match objective")


def lp(objective, constraints, bounds=None) -> LpProblem:
    """Convenience constructor coercing all numeric entries exactly."""
    cons = tuple((vec(coeffs), rel, fr(rhs)) for coeffs, rel, rhs in constraints)
    bnds = None if bounds is None else tuple(
        (None if lo is None else fr(lo), None if hi is None else fr(hi)) for lo, hi in bounds
    )
    return LpProblem(objective=vec(objective), constraints=cons, bounds=bnds)


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Fraction | None = None
    point: Vector | None = None


def _run_simplex(tableau: list, basis: list[int], cols: list[int], d: int) -> tuple[str, int]:
    """Minimize over the condensed tableau in place; returns the status and the new d.

    Rows are laid out as ``_Growing``'s, the cost row last, so a pivot is one
    ``_pivot`` step and a swap of labels.  Bland's rule both for the entering
    column (lowest label with negative reduced cost) and for ratio-test ties
    (lowest basis label) rules out cycling; ratios are compared cross-multiplied.
    Under that rule the objective never rises (the cost row's right-hand side
    is -d times it) and no basis comes back, so a pivot that breaks either
    invariant raises ``Discrepancy`` instead of letting the loop run on.
    """
    seen = {frozenset(basis)}
    while True:
        cost = tableau[-1]
        negative = [c for c, w in zip(cols, cost) if w < 0]
        if not negative:
            return "optimal", d
        s = cols.index(min(negative))
        leave = None
        for i, (bc, row) in enumerate(zip(basis, tableau)):
            a, rhs = row[s], row[-1]
            if a > 0 and (leave is None or (rhs * den, bc) < (num * a, basis[leave])):
                leave, num, den = i, rhs, a
        if leave is None:
            return "unbounded", d
        was, prev = cost[-1], d
        d = _pivot(tableau, leave, s, d)
        basis[leave], cols[s] = cols[s], basis[leave]
        if tableau[-1][-1] * prev < was * d:
            raise Discrepancy("a simplex pivot raised the objective")
        now = frozenset(basis)
        if now in seen:
            raise Discrepancy("a simplex basis came back")
        seen.add(now)


def lp_solve(problem: LpProblem, sense: str = "max") -> LpResult:
    """Exact simplex on one condensed integer tableau, grown row by row.

    Free variables are split into positive and negative parts.  Every
    constraint joins one ``_Growing`` system cleared to integers, an equality
    as a "<=" and a ">=" row, each bound as a row of its own; a refused row
    means the problem is infeasible.  Phase two then minimizes the cleared
    objective on the grown tableau, which holds d times its entries, so
    Fractions are made only when the point is read off.
    """
    if sense not in ("max", "min"):
        raise ValueError(f"unknown sense {sense!r}")
    nvars = len(problem.objective)
    rows = [
        (c, r, b) for c, rel, b in problem.constraints for r in ("<=", ">=") if rel in (r, "==")
    ]
    for j, (lo, hi) in enumerate(problem.bounds or ()):
        rows += [(unit(nvars, j), r, b) for r, b in ((">=", lo), ("<=", hi)) if b is not None]
    grown = _Growing(nvars)
    for coeffs, rel, b in rows:
        *ints, rhs = _cleared_row((*coeffs, b) if rel == "<=" else (*neg(coeffs), -b))
        if not grown.add(ints, rhs):
            return LpResult(status="infeasible")
    obj = _cleared_row(problem.objective)
    tableau = [*grown.rows, grown._reduced([x if sense == "min" else -x for x in obj], 0)]
    status, grown.d = _run_simplex(tableau, grown.basis, grown.cols, grown.d)
    if status == "unbounded":
        return LpResult(status="unbounded")
    grown.rows = tableau[:-1]
    point = grown.point()
    return LpResult(status="optimal", value=dot(problem.objective, point), point=point)


class _Growing:
    """A feasible system of integer rows <ints, x> <= b on free variables, grown row by row.

    It keeps one condensed integer tableau, as Avis's lrs does: with labels
    x+_j = j, x-_j = n + j and 2n + k for the slack of row k, a row holds its
    basic label's entries in the 2n nonbasic columns ``cols``, then its
    right-hand side, all d times their values, d > 0; a basic column, d times
    a unit vector, is not stored.  A new row enters with its slack basic, and
    only a negative slack runs phase one, on one artificial from the current
    basis.  A row that would make the system infeasible is refused and leaves
    the system as it was.  This is the only phase one.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.rows: list[list[int]] = []
        self.basis: list[int] = []
        self.cols = list(range(2 * nvars))
        self.d = 1

    def copy(self) -> _Growing:
        # no row list is changed in place, so the copies may share them
        twin = _Growing(self.nvars)
        twin.rows, twin.basis, twin.cols, twin.d = [*self.rows], [*self.basis], [*self.cols], self.d
        return twin

    def _reduced(self, ints: list[int], b: int) -> list[int]:
        """d times the row <ints, x+ - x-> = b with every basic column eliminated."""
        by_label, d = [*ints, *[-c for c in ints], *[0] * len(self.rows)], self.d
        row = [d * by_label[c] for c in self.cols] + [d * b]
        for bc, r in zip(self.basis, self.rows):
            w = by_label[bc]
            if w:
                row = [o - w * a for o, a in zip(row, r)]
        return row

    def add(self, ints: list[int], b: int) -> bool:
        """Add the integer row <ints, x> <= b if the system stays feasible."""
        if len(ints) != self.nvars:
            raise ValueError("row arity does not match the system")
        if {type(b), *map(type, ints)} != {int}:
            raise TypeError("a grown row takes int entries only")
        slack = 2 * self.nvars + len(self.rows)
        row = self._reduced(ints, b)
        if row[-1] >= 0:
            self.rows.append(row)
            self.basis.append(slack)
            return True
        # flipped, the row takes an artificial basic at d; the phase-one cost is minus its row
        d, art = self.d, slack + 1
        rows = [[*r[:-1], 0, r[-1]] for r in self.rows]
        rows += [[*[-x for x in row[:-1]], -d, -row[-1]], [*row[:-1], d, row[-1]]]
        basis, cols = [*self.basis, art], [*self.cols, slack]
        status, d = _run_simplex(rows, basis, cols, d)
        if status != "optimal":
            raise Discrepancy("phase one cannot be unbounded")
        if rows.pop()[-1] < 0:
            return False
        if art in basis:
            # basic at 0; [A | I] has full row rank, so a nonbasic entry of its row is nonzero
            i = basis.index(art)
            _, s = min((c, s) for s, c in enumerate(cols) if rows[i][s] != 0)
            if rows[i][s] < 0:  # its right-hand side is 0: flip it to keep d > 0
                rows[i] = [-x for x in rows[i]]
            d = _pivot(rows, i, s, d)
            basis[i], cols[s] = cols[s], basis[i]
        s = cols.index(art)
        self.rows = [[*r[:s], *r[s + 1:]] for r in rows]
        self.basis, self.cols, self.d = basis, cols[:s] + cols[s + 1:], d
        return True

    def scaled_point(self) -> list[int]:
        """d times the basic point of the tableau: integers with the point's signs and ratios."""
        values = {bc: row[-1] for bc, row in zip(self.basis, self.rows)}
        return [values.get(j, 0) - values.get(self.nvars + j, 0) for j in range(self.nvars)]

    def point(self) -> Vector:
        """The basic point of the tableau, which satisfies every row."""
        return tuple(Fraction(x, self.d) for x in self.scaled_point())


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    witness: Vector | None = None


def strict_feasibility(c: Matrix) -> Feasibility:
    """Decide whether some beta has C beta > 0 in every row.

    The system is homogeneous, so scaling any solution makes every row at
    least 1: it is the same question as the plain feasibility of C beta >= 1,
    grown as one ``_Growing`` system whose basic point is an exact witness.
    """
    if not c:
        raise ValueError("strict_feasibility needs at least one row")
    if any(len(row) != len(c[0]) for row in c):
        raise ValueError("row arity does not match the system")
    mult, rows = _cleared(c)
    grown = _Growing(len(c[0]))
    if not all(grown.add([-x for x in row], -mult) for row in rows):
        return Feasibility(feasible=False)
    witness = grown.point()
    ints = _cleared_row(witness)
    if not all(sum(map(mul, row, ints)) > 0 for row in rows):
        raise Discrepancy("the strict-feasibility witness fails a row")
    return Feasibility(feasible=True, witness=witness)


def affine_rank(points) -> int:
    """Dimension of the affine hull of a point collection (-1 for empty)."""
    pts = [vec(p) for p in points]
    if not pts:
        return -1
    base = pts[0]
    return rank(tuple(sub(p, base) for p in pts[1:]))


def canonical_sorted(vectors) -> tuple[Vector, ...]:
    """Deterministic ordering for sets of rational vectors."""
    return tuple(sorted(vectors))


__all__ = [
    "Feasibility",
    "LinearSolution",
    "LpProblem",
    "LpResult",
    "fr",
    "lp",
    "lp_solve",
    "mat",
    "rank",
    "solve_linear",
    "strict_feasibility",
    "vec",
]
