"""Seeded inputs for the benchmark: the same seed always gives the same inputs.

Every generator is an endless iterator; a workload takes as many questions
as fit in its run.  Inputs are plain tuples of ints and Fractions (or JSON
documents for the CLI), so the program under test receives nothing but the
generated data.  Nothing here calls into ``coapprox``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

# One cycle of the shared span schedule, in order.  It holds every (kind, n, m)
# with n = 4..6 and 1 < m < n once, except the strata where a single
# question takes 0.85-4 s on one of the engines at the seed (l1 n = 5, m = 4;
# l1 n = 6, m >= 3; linf n = 6, m = 5): like n = 7-8 they would leave too few
# questions in a run.  The three cheapest strata (linf 4/2, l1 4/2, linf 6/2) appear five
# times each, between the others, so that a fast-path run of 150 questions
# takes about 15 seconds at full speed.
_ONCE = (
    ("linf", 4, 3), ("linf", 5, 2), ("linf", 5, 3), ("linf", 5, 4), ("linf", 6, 3),
    ("linf", 6, 4), ("l1", 4, 3), ("l1", 5, 2), ("l1", 5, 3), ("l1", 6, 2),
)
_CHEAP = (("linf", 4, 2), ("l1", 4, 2), ("linf", 6, 2))


def _schedule():
    cycle, cheap = [], itertools.cycle(_CHEAP)
    for i, once in enumerate(_ONCE):
        cycle.append(once)
        cycle.extend(next(cheap) for _ in range(2 - i % 2))
    return tuple(cycle)


SPAN_SCHEDULE = _schedule()

# classify_generic inserts one custom-ball question after this many spans,
# five per schedule cycle.
CUSTOM_EVERY = 5


@dataclass(frozen=True)
class Span:
    """A subspace question for the named families: span(rows) in kind^n.

    ``point`` is the point whose best coapproximation the sum-norm fast path
    is asked for; the max-norm questions ignore it.
    """

    kind: str
    n: int
    rows: tuple[tuple[Fraction, ...], ...]
    point: tuple[Fraction, ...]

    @property
    def m(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class CustomSpan:
    """A subspace question in a custom ball given by symmetric integer points."""

    points: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[Fraction, ...], ...]

    kind = "custom"

    @property
    def n(self) -> int:
        return len(self.points[0])

    @property
    def m(self) -> int:
        return len(self.rows)


def _rng(seed: int, stream: str) -> random.Random:
    # string seeds hash through sha512, so streams are stable across runs
    return random.Random(f"{seed}:{stream}")


def _rank(rows) -> int:
    """Rank over the rationals by plain elimination (kept free of coapprox)."""
    work = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / work[rank][c]
            work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def nonzero_point(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    while True:
        x = tuple(rational(rng) for _ in range(n))
        if any(x):
            return x


def basis(rng: random.Random, n: int, m: int) -> tuple[tuple[Fraction, ...], ...]:
    """m independent integer rows of length n with entries in [-4, 4]."""
    while True:
        rows = tuple(tuple(Fraction(rng.randint(-4, 4)) for _ in range(n)) for _ in range(m))
        if _rank(rows) == m:
            return rows


def symmetric_points(rng: random.Random, d: int, k: int, redundant: int) -> tuple[tuple[int, ...], ...]:
    """A symmetric integer point set spanning R^d that is not in convex position.

    Holds +-2p for k random nonzero p, plus +-p for the first ``redundant``
    of them; each such p sits strictly inside the segment [-2p, 2p], so the
    program must drop at least 2 * redundant points.
    """
    while True:
        base = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
        if any(not any(p) for p in base) or _rank(base) < d:
            continue
        pts = []
        for i, p in enumerate(base):
            two = tuple(2 * c for c in p)
            pts += [two, tuple(-c for c in two)]
            if i < redundant:
                pts += [p, tuple(-c for c in p)]
        return tuple(pts)


# Every seed draws from one fixed pool of questions (random bases and balls
# from POOL_SEED, POOL_CYCLES schedule cycles long, repeated) and gets a fresh
# isometric copy of each question on every pass.  The numbers then differ from
# seed to seed while the geometry and the verdicts stay put, and a run that
# ends on a pool boundary holds the same questions as any other run.  With a
# fresh random basis per seed instead, the p90 of a 20-second fast-path run
# moved by 25% from one seed to the next.
POOL_SEED = 0
POOL_CYCLES = 2


def isometric_copy(rng: random.Random, rows, points):
    """The same question after a random change of coordinates and of basis.

    Every coordinate is multiplied by a random sign, in the basis rows and in
    the points alike; that maps a symmetric ball built from the points, and
    the max- and sum-norm balls, onto an isometric copy.  The basis of Y (if
    any) is changed by one random elementary row operation and a shuffle,
    which keeps the subspace.  Verdicts and failing coordinates are unchanged.
    """
    signs = [rng.choice((-1, 1)) for _ in (rows or points)[0]]
    new = [list(r) for r in rows]
    if len(new) > 1:
        i, j = rng.sample(range(len(new)), 2)
        k = rng.choice((-1, 1))
        new[i] = [a + k * b for a, b in zip(new[i], new[j])]
        rng.shuffle(new)

    def flip(v):
        return tuple(s * c for s, c in zip(signs, v))

    return tuple(flip(r) for r in new), tuple(flip(p) for p in points)


def _pool(stream: str):
    """An endless supply of pool generators, one per pass over the pool."""
    while True:
        yield _rng(POOL_SEED, stream)


def spans(seed: int):
    """The shared span sequence of classify_fast and classify_generic."""
    copies = _rng(seed, "span-copies")
    for pool in _pool("spans"):
        for kind, n, m in SPAN_SCHEDULE * POOL_CYCLES:
            rows, (point,) = isometric_copy(copies, basis(pool, n, m), (nonzero_point(pool, n),))
            yield Span(kind=kind, n=n, rows=rows, point=point)


def custom_spans(seed: int):
    """Custom balls in R^4 (10 extreme candidates, 4 redundant points), m = 2, 3."""
    copies = _rng(seed, "custom-copies")
    for pool in _pool("custom"):
        for m in (2, 3) * (POOL_CYCLES * len(SPAN_SCHEDULE) // CUSTOM_EVERY // 2):
            points = symmetric_points(pool, 4, 5, 2)
            rows, points = isometric_copy(copies, basis(pool, 4, m), points)
            yield CustomSpan(points=points, rows=rows)


def generic_questions(seed: int):
    """The shared spans with a custom-ball question after every CUSTOM_EVERY."""
    custom = custom_spans(seed)
    for i, span in enumerate(spans(seed), start=1):
        yield span
        if i % CUSTOM_EVERY == 0:
            yield next(custom)


# point_queries: fixed (space, Y) pairs, warmed in set-up and independent of
# the seed, so a run's cost depends on the seeded points alone.  A pair is
# (label, space kind, n, basis rows); "prism" is the hexagonal prism of the
# README and its three planar sections.
HALF = Fraction(1, 2)
PRISM_TOP = ((1, 0, 1), (-1, 0, 1), (HALF, HALF, 1), (-HALF, HALF, 1), (-HALF, -HALF, 1), (HALF, -HALF, 1))
PRISM_VERTICES = tuple(p for v in PRISM_TOP for p in (v, tuple(-Fraction(c) for c in v)))
PAIRS = (
    ("prism-flat", "prism", 3, ((1, 0, 0), (0, 1, 0))),
    ("prism-tilted", "prism", 3, ((Fraction(3, 4), Fraction(-1, 4), 1), (Fraction(-3, 4), Fraction(-1, 4), 1))),
    ("prism-steep", "prism", 3, ((Fraction(7, 8), Fraction(1, 8), 1), (Fraction(7, 8), Fraction(-1, 8), 1))),
    ("linf3", "linf", 3, ((3, 0, 2), (0, 3, 2))),
    ("linf4", "linf", 4, ((1, 2, -1, 3), (2, -1, 3, 1))),
    ("linf5", "linf", 5, ((-4, 2, 3, 1, 3), (1, -5, 4, 2, -3), (1, 3, -7, 4, 6))),
    ("l1-3", "l1", 3, ((0, 1, 1), (-1, 0, 1))),
    ("l1-4", "l1", 4, ((1, 2, -1, 3), (2, -1, 3, 1))),
    ("l1-5", "l1", 5, ((1, 2, -1, 3, 1), (2, -1, 3, 1, -2))),
)
POINT_KINDS = ("bj", "eps_bj", "defect", "is_best", "solve")


@dataclass(frozen=True)
class PointQuestion:
    """One question about a fixed pair: ``pair`` indexes ``PAIRS``.

    ``x`` is the point asked about; ``y`` is a point of Y: the direction for
    the orthogonality kinds and the candidate y0 for the defect kinds;
    ``eps`` is used by eps_bj only.
    """

    pair: int
    kind: str
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]
    eps: Fraction


def combine(rows, alpha) -> tuple[Fraction, ...]:
    """The point sum_k alpha_k * rows[k]."""
    return tuple(sum((Fraction(a) * Fraction(r[j]) for a, r in zip(alpha, rows)), Fraction(0))
                 for j in range(len(rows[0])))


def point_questions(seed: int, stream: str = "points"):
    """Seeded questions, cycling over every (pair, kind) in a fixed order.

    For the defect kinds x is drawn outside Y, where the defect is defined.
    On the prism's flat section every third defect/is_best question uses the
    known answer y0 = (x1, x2, 0), so the zero-defect branch runs as well.
    """
    rng = _rng(seed, stream)
    turn = 0
    while True:
        for pair, (_, _, n, rows) in enumerate(PAIRS):
            m = len(rows)
            for kind in POINT_KINDS:
                x = nonzero_point(rng, n)
                if kind in ("defect", "is_best"):
                    while _rank(rows + (x,)) == m:
                        x = nonzero_point(rng, n)
                alpha = tuple(rational(rng) for _ in range(m))
                if kind in ("defect", "is_best") and pair == 0 and turn % 3 == 0:
                    alpha = x[:2]
                eps = Fraction(rng.randint(0, 7), 8)
                yield PointQuestion(pair=pair, kind=kind, x=x, y=combine(rows, alpha), eps=eps)
        turn += 1


# cli_requests: one fresh process per request, the mix below in a fixed order.
CLI_MIX = (
    "facets-vertices", "norm", "bj", "classify", "jset", "defect",
    "facets-facets", "best-coapprox", "eps-check", "jy", "norm", "bj",
)


def _q(value) -> str:
    return str(Fraction(value))


def _vec(v) -> list[str]:
    return [_q(c) for c in v]


def _family(rng: random.Random, lo: int, hi: int) -> dict:
    return {"type": rng.choice(("linf", "l1")), "n": rng.randint(lo, hi)}


def cli_requests(seed: int):
    """Seeded (subcommand, flags, stdin document) triples for the CLI.

    Like the spans, every request is an isometric copy of one from a fixed
    pool: the space, the points and the basis are drawn from POOL_SEED, and
    the seed picks the coordinate signs and the change of basis.
    """
    copies = _rng(seed, "cli-copies")
    for pool in _pool("cli"):
        for name in CLI_MIX * POOL_CYCLES:
            flags: list[str] = []
            if name in ("facets-vertices", "facets-facets"):
                d = pool.choice((3, 4))
                key = "vertices" if name == "facets-vertices" else "facets"
                _, pts = isometric_copy(copies, (), symmetric_points(pool, d, 4 if d == 3 else 5, 2))
                yield "facets", flags, {"space": {"type": "custom", key: [_vec(p) for p in pts]}}
                continue
            if name in ("norm", "jset", "bj"):
                # the --verify oracle of bj is one LP over all 2^n sum-norm facets
                space = _family(pool, 3, 5 if name == "bj" else 10)
                n = space["n"]
                _, pts = isometric_copy(copies, (), [nonzero_point(pool, n) for _ in range(1 + (name == "bj"))])
                yield name, (["--verify"] if name == "bj" else flags), {"space": space, "points": [_vec(p) for p in pts]}
                continue
            if name == "classify":
                space = _family(pool, 4, 4)
                rows, _ = isometric_copy(copies, basis(pool, 4, pool.choice((2, 3))), ())
                yield name, ["--verify"], {"space": space, "basis": [_vec(r) for r in rows]}
                continue
            space = _family(pool, 3, 4)
            n = space["n"]
            rows = basis(pool, n, 2)
            x = nonzero_point(pool, n)
            while _rank(rows + (x,)) == 2:
                x = nonzero_point(pool, n)
            alpha = (rational(pool), rational(pool))
            eps = Fraction(pool.randint(0, 7), 8)
            rows, (x,) = isometric_copy(copies, rows, (x,))
            doc = {"space": space, "basis": [_vec(r) for r in rows], "point": _vec(x)}
            if name in ("defect", "eps-check"):
                doc["y0"] = _vec(combine(rows, alpha))
                if name == "eps-check":
                    doc["epsilon"] = _q(eps)
            else:
                flags = ["--verify"]
            yield name, flags, doc
