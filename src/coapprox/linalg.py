"""Exact rational linear algebra.

Vectors are tuples of ``fractions.Fraction``, matrices are tuples of such
tuples.  Everything in this module is pure and tolerance-free: one
fraction-free (Bareiss) pivot step on rows cleared to integers drives both the
Gauss-Jordan elimination behind ranks and linear systems and the simplex, with
Bland's anti-cycling rule, behind linear programs, so termination and
exactness are guaranteed.  There is one phase one: a feasibility system grown
one row at a time keeps its tableau between rows, and a linear program is such
a system, grown from its constraints and then optimized on the same tableau.
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


def centroid(points) -> Vector:
    """The average of a nonempty list of points."""
    return tuple(sum(col, start=ZERO) / len(points) for col in zip(*points, strict=True))


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


def _eliminate(rows: list, r: int, col: int, prev: int) -> int:
    """One Bareiss step on the integer rows[r][col], in place; returns the pivot p."""
    top = rows[r]
    p = top[col]
    for i, row in enumerate(rows):
        if i != r:
            f = row[col]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
    return p


def _reduce(rows: list, ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of a list of rational rows, in place.

    Each row is first cleared to integers (row scaling changes neither the
    row space nor the solutions), then pivots are taken left to right in the
    first ``ncols`` columns.  The Bareiss update (p*a - f*b) // prev reaches
    every row but the pivot row and every entry, a right-hand side too; each
    entry stays a minor of the cleared rows, so the division is exact.  On
    return each pivot row holds d at its own pivot column and 0 at every
    other, so the rows divided by d are the reduced row echelon form.
    """
    for i, row in enumerate(rows):
        _, (rows[i],) = _cleared([row])
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prev = _eliminate(rows, r, col, prev)
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return pivots, prev


def rank(m: Matrix) -> int:
    """Rank over the rationals: the pivot count of the fraction-free elimination."""
    pivots, _ = _reduce(list(m), len(m[0]) if m else 0)
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
    rows = [[*row, rhs] for row, rhs in zip(a, b)]
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


def _cost_row(rows: list, basis: list[int], cost: list[int], d: int) -> list[int]:
    """d times ``cost`` with its basic entries eliminated by their rows.

    For a cost row (0 at the right-hand side) these are the reduced costs; for
    a new constraint row, its entries in the current basis.
    """
    out = [d * c for c in cost]
    for bc, row in zip(basis, rows):
        w = cost[bc]
        if w:
            out = [o - w * a for o, a in zip(out, row)]
    return out


def _run_simplex(tableau: list, basis: list[int], d: int) -> tuple[str, int]:
    """Minimize over the integer tableau in place; returns the status and the new d.

    Every row holds d times its entries, the cost row last, so a pivot is one
    ``_eliminate`` step.  Bland's rule both for the entering column (lowest
    index with negative reduced cost) and for ratio-test ties (lowest basis
    index), which rules out cycling; ratios are compared cross-multiplied.
    """
    while True:
        cost = tableau[-1]
        enter = next((j for j in range(len(cost) - 1) if cost[j] < 0), None)
        if enter is None:
            return "optimal", d
        leave = None
        for i, (bc, row) in enumerate(zip(basis, tableau)):
            a, rhs = row[enter], row[-1]
            if a > 0 and (leave is None or (rhs * den, bc) < (num * a, basis[leave])):
                leave, num, den = i, rhs, a
        if leave is None:
            return "unbounded", d
        d = _eliminate(tableau, leave, enter, d)
        basis[leave] = enter


def lp_solve(problem: LpProblem, sense: str = "max") -> LpResult:
    """Exact simplex on one fraction-free integer tableau, grown row by row.

    Free variables are split into positive and negative parts.  Every
    constraint joins one ``_Growing`` system, an equality as a "<=" and a
    ">=" row, each bound as a row of its own; a refused row means the problem
    is infeasible.  Phase two then minimizes the cleared objective on the
    grown tableau, which holds d times its entries, d > 0 the basis
    determinant, so Fractions are made only when the point is read off.
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
    if not all(grown.add(*row) for row in rows):
        return LpResult(status="infeasible")

    mult = lcm(*(c.denominator for c in problem.objective)) * (1 if sense == "min" else -1)
    obj = [c.numerator * (mult // c.denominator) for c in problem.objective]
    cost = [*obj, *(-c for c in obj), *[0] * (len(grown.rows) + 1)]
    tableau = grown.rows + [_cost_row(grown.rows, grown.basis, cost, grown.d)]
    status, grown.d = _run_simplex(tableau, grown.basis, grown.d)
    if status == "unbounded":
        return LpResult(status="unbounded")
    grown.rows = tableau[:-1]
    point = grown.point()
    return LpResult(status="optimal", value=dot(problem.objective, point), point=point)


class _Growing:
    """A feasible system of inequalities on free variables, grown one row at a time.

    It keeps one feasible integer tableau: columns [x+ | x- | one slack per
    row | rhs], every row holding d times its entries, d > 0.  A new row is
    reduced against the current basis with its slack basic; only when that
    slack comes out negative does phase one run, on one artificial in that
    row and from the current basis, so a grown system costs a few pivots.  A
    row that would make the system infeasible is refused and leaves it as it
    was.  This is the only phase one: ``lp_solve`` grows its constraints here
    and runs phase two on the result.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.rows: list[list[int]] = []
        self.basis: list[int] = []
        self.d = 1

    def copy(self) -> _Growing:
        # no row list is changed in place, so the copies may share them
        twin = _Growing(self.nvars)
        twin.rows, twin.basis, twin.d = list(self.rows), list(self.basis), self.d
        return twin

    def add(self, coeffs: Vector, rel: Relation, rhs: Fraction) -> bool:
        """Add <coeffs, x> rel rhs, rel "<=" or ">=", if the system stays feasible."""
        if rel not in ("<=", ">="):
            raise ValueError(f"unknown relation {rel!r}")
        if len(coeffs) != self.nvars:
            raise ValueError("row arity does not match the system")
        mult = lcm(*(x.denominator for x in (*coeffs, rhs))) * (1 if rel == "<=" else -1)
        ints = [c.numerator * (mult // c.denominator) for c in coeffs]
        d, slack = self.d, 2 * self.nvars + len(self.rows)
        # every old row is 0 in the new slack column, so the row is reduced
        # without it and takes d there
        row = [*ints, *(-c for c in ints), *[0] * len(self.rows)]
        row = _cost_row(self.rows, self.basis, [*row, rhs.numerator * (mult // rhs.denominator)], d)
        if row[-1] >= 0:
            self.rows = [r[:-1] + [0, r[-1]] for r in self.rows] + [row[:-1] + [d, row[-1]]]
            self.basis.append(slack)
            return True
        # flipped, the row takes one artificial, the column after its slack, basic at d
        art = slack + 1
        rows = [r[:-1] + [0, 0, r[-1]] for r in self.rows]
        rows.append([-x for x in row[:-1]] + [-d, d, -row[-1]])
        basis = self.basis + [art]
        cost = [0] * (art + 2)
        cost[art] = 1
        rows.append(_cost_row(rows, basis, cost, d))
        status, d = _run_simplex(rows, basis, d)
        if status != "optimal":
            raise Discrepancy("phase one cannot be unbounded")
        if rows.pop()[-1] < 0:
            return False
        if art in basis:
            # basic at 0; [A | I] has full row rank, so the row has a nonzero
            # entry outside the artificial column
            i = basis.index(art)
            col = next(j for j in range(art) if rows[i][j] != 0)
            if rows[i][col] < 0:  # its right-hand side is 0: flip it to keep d > 0
                rows[i] = [-x for x in rows[i]]
            d = _eliminate(rows, i, col, d)
            basis[i] = col
        self.rows = [r[:art] + r[-1:] for r in rows]
        self.basis, self.d = basis, d
        return True

    def point(self) -> Vector:
        """The basic point of the tableau, which satisfies every row."""
        values = {bc: row[-1] for bc, row in zip(self.basis, self.rows)}
        n = self.nvars
        return tuple(Fraction(values.get(j, 0) - values.get(n + j, 0), self.d) for j in range(n))


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    witness: Vector | None = None


def strict_feasibility(c: Matrix) -> Feasibility:
    """Decide whether some beta has C beta > 0 in every row.

    The system is homogeneous, so scaling any solution makes every row at
    least 1: it is the same question as the plain feasibility of C beta >= 1,
    one phase-one simplex with a zero objective, and any feasible point is an
    exact witness.
    """
    if not c:
        raise ValueError("strict_feasibility needs at least one row")
    constraints = tuple((row, ">=", ONE) for row in c)
    res = lp_solve(LpProblem(objective=zeros(len(c[0])), constraints=constraints))
    if res.status != "optimal":
        return Feasibility(feasible=False)
    _, (witness,) = _cleared([res.point])
    _, rows = _cleared(c)
    if not all(sum(map(mul, row, witness)) > 0 for row in rows):
        raise Discrepancy("the strict-feasibility witness fails a row")
    return Feasibility(feasible=True, witness=res.point)


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
