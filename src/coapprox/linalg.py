"""Exact rational linear algebra.

Vectors are tuples of ``fractions.Fraction``, matrices are tuples of such
tuples.  Everything in this module is pure and tolerance-free: ranks come from
fraction-free (Bareiss) elimination over cleared integers, linear systems from
exact Gauss-Jordan reduction, and linear programs from a two-phase simplex
with Bland's anti-cycling rule, so termination and exactness are guaranteed.
No floating point enters any code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def fr(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction.

    Floats are rejected: a float literal has already lost exactness and
    silently accepting one would poison every downstream strict-inequality
    decision.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"cannot interpret {value!r} as a rational number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
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
    return sum((a * b for a, b in zip(u, v, strict=True)), start=ZERO)


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


def rank(m: Matrix) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    Rows are first cleared to integers (rank is invariant under row scaling);
    the Bareiss pivot update keeps every intermediate entry an exact integer.
    """
    if not m or not m[0]:
        return 0
    rows = []
    for row in m:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        rows.append([int(x * mult) for x in row])
    nrows, ncols = len(rows), len(rows[0])
    r = 0
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nrows):
            for j in range(col + 1, ncols):
                rows[i][j] = (rows[r][col] * rows[i][j] - rows[i][col] * rows[r][j]) // prev
            rows[i][col] = 0
        prev = rows[r][col]
        r += 1
        if r == nrows:
            break
    return r


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
    """Exactly classify and solve the linear system A x = b."""
    nrows = len(a)
    if len(b) != nrows:
        raise ValueError("right-hand side length does not match row count")
    ncols = len(a[0]) if a else 0
    aug = [list(row) + [rhs] for row, rhs in zip(a, b, strict=True)]

    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break

    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return LinearSolution(kind="inconsistent")

    particular = [ZERO] * ncols
    for i, col in enumerate(pivots):
        particular[col] = aug[i][ncols]

    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return LinearSolution(kind="unique", particular=tuple(particular))

    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for i, col in enumerate(pivots):
            v[col] = -aug[i][f]
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


def lp(objective, constraints, bounds=None) -> LpProblem:
    """Convenience constructor coercing all numeric entries exactly."""
    obj = vec(objective)
    cons = []
    for coeffs, rel, rhs in constraints:
        if rel not in ("<=", "==", ">="):
            raise ValueError(f"unknown relation {rel!r}")
        c = vec(coeffs)
        if len(c) != len(obj):
            raise ValueError("constraint arity does not match objective")
        cons.append((c, rel, fr(rhs)))
    bnds = None
    if bounds is not None:
        bnds = tuple(
            (None if lo is None else fr(lo), None if hi is None else fr(hi))
            for lo, hi in bounds
        )
        if len(bnds) != len(obj):
            raise ValueError("bounds arity does not match objective")
    return LpProblem(objective=obj, constraints=tuple(cons), bounds=bnds)


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Fraction | None = None
    point: Vector | None = None


def _pivot(tableau, basis, row, col, cost):
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    prow = tableau[row]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            f = r[col]
            tableau[i] = [x - f * y for x, y in zip(r, prow)]
    if cost[col] != 0:
        f = cost[col]
        for j, y in enumerate(prow):
            cost[j] -= f * y
    basis[row] = col


def _run_simplex(tableau, basis, cost):
    """Minimize over the tableau in place; returns "optimal" or "unbounded".

    Bland's rule both for the entering column (lowest index with negative
    reduced cost) and for ratio-test ties (lowest basis index), which rules
    out cycling.
    """
    width = len(cost) - 1
    for row, bc in enumerate(basis):
        if cost[bc] != 0:
            f = cost[bc]
            for j, y in enumerate(tableau[row]):
                cost[j] -= f * y
    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for i, r in enumerate(tableau):
            if r[enter] > 0:
                ratio = r[-1] / r[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded"
        _pivot(tableau, basis, leave, enter, cost)


def lp_solve(problem: LpProblem, sense: str = "max") -> LpResult:
    """Exact two-phase simplex over the rationals.

    Free variables are split into positive and negative parts; bounds become
    extra inequality rows.  Phase one adds an artificial variable per
    equality row and one shared by all inequality rows the origin violates.
    """
    if sense not in ("max", "min"):
        raise ValueError(f"unknown sense {sense!r}")
    nvars = len(problem.objective)
    cons: list[tuple[Vector, str, Fraction]] = list(problem.constraints)
    if problem.bounds is not None:
        for j, (lo, hi) in enumerate(problem.bounds):
            if lo is not None:
                cons.append((unit(nvars, j), ">=", lo))
            if hi is not None:
                cons.append((unit(nvars, j), "<=", hi))

    ineq_rows = [i for i, (_, rel, _) in enumerate(cons) if rel != "=="]
    slack_col = {row: 2 * nvars + k for k, row in enumerate(ineq_rows)}
    nstruct = 2 * nvars + len(ineq_rows)

    rows = []
    for i, (coeffs, rel, rhs) in enumerate(cons):
        row = [ZERO] * nstruct
        for j, c in enumerate(coeffs):
            row[j] = c
            row[nvars + j] = -c
        if rel != "==":
            row[slack_col[i]] = ONE if rel == "<=" else -ONE
        row.append(rhs)
        if rhs < 0:
            row = [-x for x in row]
        rows.append(row)

    # The shared artificial starts on the surplus row with the largest
    # right-hand side; subtracting every other surplus row from that one
    # leaves its slack basic at a nonnegative value (one pivot, not one each).
    surplus = [i for i, col in slack_col.items() if rows[i][col] == -ONE]
    top = max(surplus, key=lambda i: rows[i][-1], default=None)
    for i in surplus:
        if i != top:
            rows[i] = [a - b for a, b in zip(rows[top], rows[i])]
    basis: list[int] = []
    art_cols: list[int] = []
    for i, (_, rel, _) in enumerate(cons):
        col = slack_col.get(i)
        if col is not None and rows[i][col] == ONE:
            basis.append(col)
        else:
            art = nstruct + len(art_cols)
            art_cols.append(art)
            basis.append(art)

    width = nstruct + len(art_cols)
    for row in rows:
        rhs = row.pop()
        row.extend(ZERO for _ in range(width - len(row)))
        row.append(rhs)
    for i, bc in enumerate(basis):
        if bc >= nstruct:
            rows[i][bc] = ONE

    if art_cols:
        cost = [ZERO] * width + [ZERO]
        for c in art_cols:
            cost[c] = ONE
        status = _run_simplex(rows, basis, cost)
        assert status == "optimal", "phase one cannot be unbounded"
        if -cost[-1] > 0:
            return LpResult(status="infeasible")
        for i in range(len(rows) - 1, -1, -1):
            if basis[i] >= nstruct:
                col = next((j for j in range(nstruct) if rows[i][j] != 0), None)
                if col is None:
                    del rows[i], basis[i]
                else:
                    _pivot(rows, basis, i, col, cost)
        rows = [r[:nstruct] + [r[-1]] for r in rows]
        width = nstruct

    minimize = sense == "min"
    cost = [ZERO] * (width + 1)
    for j, c in enumerate(problem.objective):
        cost[j] = c if minimize else -c
        cost[nvars + j] = -cost[j]
    status = _run_simplex(rows, basis, cost)
    if status == "unbounded":
        return LpResult(status="unbounded")

    values = [ZERO] * width
    for i, bc in enumerate(basis):
        values[bc] = rows[i][-1]
    point = tuple(values[j] - values[nvars + j] for j in range(nvars))
    value = dot(problem.objective, point)
    return LpResult(status="optimal", value=value, point=point)


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
    assert all(dot(row, res.point) > 0 for row in c)
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
