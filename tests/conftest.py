"""Shared fixtures: the hexagonal prism space, reusable bases, random helpers."""

import random
from fractions import Fraction

import pytest

import coapprox as ca

HALF = Fraction(1, 2)

PRISM_TOP = (
    (1, 0, 1),
    (-1, 0, 1),
    (HALF, HALF, 1),
    (-HALF, HALF, 1),
    (-HALF, -HALF, 1),
    (HALF, -HALF, 1),
)

WIDE_BASIS = (
    (-4, 2, 3, 1, 3),
    (1, -5, 4, 2, -3),
    (1, 3, -7, 4, 6),
)

NARROW_BASIS = ((1, 1, 2), (2, 2, 1))

L1_BASIS = ((0, 1, 1), (-1, 0, 1))

ACCEPTANCE_LINES = []


def prism_vertices():
    verts = []
    for v in PRISM_TOP:
        verts.append(tuple(Fraction(c) for c in v))
        verts.append(tuple(-Fraction(c) for c in v))
    return verts


@pytest.fixture(scope="session")
def prism():
    return ca.make_custom(vertices=prism_vertices())


@pytest.fixture(scope="session")
def prism_flat():
    """span{e1, e2}; every point of the prism space projects onto it."""
    return ca.subspace([(1, 0, 0), (0, 1, 0)])


@pytest.fixture(scope="session")
def prism_tilted():
    """Anti-coproximinal in the prism space but not strongly so."""
    return ca.subspace(
        [
            (Fraction(3, 4), Fraction(-1, 4), 1),
            (Fraction(-3, 4), Fraction(-1, 4), 1),
        ]
    )


@pytest.fixture(scope="session")
def prism_steep():
    """Meets the interior of every prism facet, hence strongly anti-coproximinal."""
    return ca.subspace(
        [
            (Fraction(7, 8), Fraction(1, 8), 1),
            (Fraction(7, 8), Fraction(-1, 8), 1),
        ]
    )


def rational(rng, lo=-6, hi=6, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rational_point(rng, n, lo=-6, hi=6, den=4):
    return tuple(rational(rng, lo, hi, den) for _ in range(n))


def nonzero_point(rng, n, lo=-6, hi=6, den=4):
    while True:
        x = rational_point(rng, n, lo, hi, den)
        if any(c != 0 for c in x):
            return x


def independent_basis(rng, n, m, lo=-4, hi=4):
    while True:
        rows = [tuple(Fraction(rng.randint(lo, hi)) for _ in range(n)) for _ in range(m)]
        if ca.rank(tuple(rows)) == m:
            return rows


def centroid(points):
    """The average of a nonempty list of points, in Fractions: the oracle of the integer centroids."""
    return tuple(sum(col, start=Fraction(0)) / len(points) for col in zip(*points, strict=True))


def seeded(seed):
    return random.Random(seed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
