"""Acceptance gate: ten end-to-end scenario suites, each with a timing budget.

Every suite reports one [PASS]/[FAIL] line through the terminal summary hook
in conftest, so the verdict list survives even a quiet pytest run.
"""

import time
from fractions import Fraction
from functools import wraps
from math import comb

import coapprox as ca
from coapprox.l1 import cell_bound
from coapprox.linalg import add, dot, scale, zeros

import conftest
from conftest import (
    L1_BASIS,
    NARROW_BASIS,
    WIDE_BASIS,
    independent_basis,
    nonzero_point,
    prism_vertices,
    rational,
    rational_point,
    seeded,
)

F = Fraction

CUBE_FACETS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def criterion(num, desc, limit):
    """Record one verdict line per suite and enforce its wall-clock budget."""

    def deco(fn):
        @wraps(fn)
        def run(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_LINES.append(f"[FAIL] criterion {num:2d}: {desc}")
                raise
            elapsed = time.monotonic() - start
            if elapsed >= limit:
                conftest.ACCEPTANCE_LINES.append(
                    f"[FAIL] criterion {num:2d}: {desc} "
                    f"(took {elapsed:.2f}s, limit {limit:.0f}s)"
                )
                raise AssertionError(
                    f"criterion {num} exceeded its {limit}s budget: {elapsed:.2f}s"
                )
            conftest.ACCEPTANCE_LINES.append(
                f"[PASS] criterion {num:2d}: {desc} ({elapsed:.2f}s)"
            )

        return run

    return deco


@criterion(1, "small max-norm span is strongly anti on both engines", 1.0)
def test_small_strong_fixture():
    rows = [(3, 0, 2), (0, 3, 2)]
    assert ca.linf_classify(rows).strongly_anti
    generic = ca.is_strongly_anti_coproximinal(ca.make_linf(3), ca.subspace(rows))
    assert generic.status == "yes"


@criterion(2, "five-coordinate span passes every separation check with exact witnesses", 1.0)
def test_wide_basis_with_witnesses():
    verdict = ca.linf_classify(WIDE_BASIS)
    assert verdict.strongly_anti
    table = ca.component_table(WIDE_BASIS)
    assert len(verdict.star_results) == 5
    for i, res in verdict.star_results:
        assert res.holds
        assert len(table.associated(i)) == 1
        lead = abs(dot(res.witness, table.component(i)))
        for j in range(1, table.n + 1):
            if j not in table.associated(i):
                assert lead > abs(dot(res.witness, table.component(j)))


@criterion(3, "associated pair blocks strength; face condition holds on 1000 points", 5.0)
def test_narrow_basis_and_necessary_condition():
    verdict = ca.linf_classify(NARROW_BASIS)
    assert not verdict.strongly_anti
    assert verdict.failing_index == 1
    assert verdict.failing_clause == "associated"
    sp, y = ca.make_linf(3), ca.subspace(NARROW_BASIS)
    rng = seeded(211)
    for _ in range(1000):
        assert ca.necessary_condition_check(sp, y, nonzero_point(rng, 3))


@criterion(4, "appended zero coordinate defeats separation and blocks anti", 1.0)
def test_padded_basis():
    rows = [row + (0,) for row in WIDE_BASIS]
    assert not ca.star_property(rows, 6).holds
    verdict = ca.linf_classify(rows)
    assert not verdict.strongly_anti
    assert verdict.failing_index == 6
    space, y = ca.make_linf(6), ca.subspace(rows)
    anti = ca.is_anti_coproximinal(space, y)
    assert anti.status == "no"
    assert not ca.point_in_subspace(y, anti.witness_x)
    assert ca.is_best_coapprox(space, y, anti.witness_x, anti.witness_y0)


@criterion(5, "prism sections: projection formula, anti-only middle, strong top", 30.0)
def test_prism_sections(prism, prism_flat, prism_tilted, prism_steep):
    rng = seeded(223)
    for _ in range(100):
        a, b, c = rational_point(rng, 3)
        res = ca.solve_best_coapprox(prism, prism_flat, (a, b, c))
        assert res.exists
        assert res.y0 == (a, b, F(0))

    anti = ca.is_anti_coproximinal(prism, prism_tilted)
    strong = ca.is_strongly_anti_coproximinal(prism, prism_tilted)
    assert anti.status == "yes"
    assert strong.status == "no"
    assert len(strong.jy.functionals) == 6

    top = ca.is_strongly_anti_coproximinal(prism, prism_steep)
    assert top.status == "yes"
    assert set(top.jy.functionals) == set(prism.dual_extreme)


@criterion(6, "sum-norm fixture: six sign vectors at the bound, no answer for e1", 1.0)
def test_l1_fixture():
    assert ca.zero_set(L1_BASIS) == frozenset()
    ns = ca.minimal_norming_set(L1_BASIS)
    one = F(1)
    assert ns.signs == (
        (one, one, one),
        (-one, -one, -one),
        (one, one, -one),
        (-one, -one, one),
        (one, -one, -one),
        (-one, one, one),
    )
    assert set(ns.signs) == {
        (one, one, one), (-one, -one, -one),
        (-one, one, one), (one, -one, -one),
        (-one, -one, one), (one, one, -one),
    }
    res = ca.l1_is_anti_coproximinal(L1_BASIS)
    assert res.status == "yes"
    assert res.rank == 3
    assert ns.size == 6 == 2 * (comb(2, 0) + comb(2, 1))
    assert not ca.l1_best_coapprox(L1_BASIS, (1, 0, 0)).exists


@criterion(7, "random sum-norm spans are never strong and respect the size bound", 120.0)
def test_l1_never_strong_suite():
    rng = seeded(227)
    checked = 0
    while checked < 200:
        n = rng.choice([3, 4, 5])
        m = rng.randint(2, n - 1)
        rows = independent_basis(rng, n, m)
        if ca.zero_set(rows):
            continue
        generic = ca.is_strongly_anti_coproximinal(ca.make_l1(n), ca.subspace(rows))
        assert generic.status == "no"
        assert cell_bound(n, m) == 2 * sum(comb(n - 1, k) for k in range(m))
        assert ca.minimal_norming_set(rows).size <= cell_bound(n, m) < 2**n
        checked += 1

    rng = seeded(261)
    checked = 0
    while checked < 12:
        m = rng.randint(2, 4)
        rows = independent_basis(rng, 7, m)
        if ca.zero_set(rows):
            continue
        assert ca.is_strongly_anti_coproximinal(ca.make_l1(7), ca.subspace(rows)).status == "no"
        assert ca.minimal_norming_set(rows).size <= cell_bound(7, m) < 2**7
        checked += 1


@criterion(8, "independent routes agree: orthogonality, classifier, solver", 300.0)
def test_oracle_equivalences(prism):
    rng = seeded(229)
    spaces = (ca.make_linf(3), ca.make_l1(3), prism)
    for k in range(2000):
        sp = spaces[k % 3]
        x = nonzero_point(rng, 3)
        y = rational_point(rng, 3)
        assert ca.bj_orthogonal(sp, x, y) == ca.bj_orthogonal_lambda_oracle(sp, x, y)

    done = 0
    while done < 100:
        n = rng.choice([3, 4, 5])
        m = rng.randint(2, n - 1)
        rows = independent_basis(rng, n, m)
        fast = ca.linf_classify(rows).strongly_anti
        generic = ca.is_strongly_anti_coproximinal(ca.make_linf(n), ca.subspace(rows))
        assert (generic.status == "yes") == fast
        done += 1

    done = 0
    while done < 100:
        n = rng.choice([3, 4, 5])
        m = rng.randint(2, n - 1)
        rows = independent_basis(rng, n, m)
        if ca.zero_set(rows):
            continue
        b = rational_point(rng, n)
        fast = ca.l1_best_coapprox(rows, b)
        generic = ca.solve_best_coapprox(ca.make_l1(n), ca.subspace(rows), b)
        assert fast.exists == generic.exists
        if fast.exists:
            assert fast.y0 == generic.y0
        done += 1

    rng = seeded(263)
    for _ in range(12):
        rows = independent_basis(rng, 7, rng.randint(2, 5))
        generic = ca.is_strongly_anti_coproximinal(ca.make_linf(7), ca.subspace(rows))
        assert (generic.status == "yes") == ca.linf_classify(rows).strongly_anti
    # half of the points are y + z with z annihilated by the norming set,
    # so that y is a best coapproximation; random points almost never have one
    done = found = 0
    while done < 12:
        rows = independent_basis(rng, 7, rng.randint(2, 6))
        if ca.zero_set(rows):
            continue
        b = rational_point(rng, 7)
        if done % 2 == 0:
            b = ca.embed(ca.subspace(rows), b[:len(rows)])
            reps = ca.minimal_norming_set(rows).representatives
            for v in ca.solve_linear(reps, zeros(len(reps))).nullspace:
                b = add(b, scale(v, rational(rng)))
        fast = ca.l1_best_coapprox(rows, b)
        generic = ca.solve_best_coapprox(ca.make_l1(7), ca.subspace(rows), b)
        assert (fast.exists, fast.y0) == (generic.exists, generic.y0)
        found += fast.exists
        done += 1
    assert found >= 3


@criterion(9, "relaxation machinery: zero case, defect membership, monotonicity, hard walls", 120.0)
def test_epsilon_machinery(prism, prism_flat, prism_steep):
    rng = seeded(233)
    spaces = (ca.make_linf(3), ca.make_l1(3), prism)
    for k in range(2000):
        sp = spaces[k % 3]
        x = nonzero_point(rng, 3)
        y = rational_point(rng, 3)
        assert ca.eps_bj_orthogonal(sp, x, y, 0) == ca.bj_orthogonal(sp, x, y)

    done = 0
    while done < 500:
        x = rational_point(rng, 3)
        y0 = ca.embed(prism_flat, rational_point(rng, 2))
        if x == y0:
            continue
        d = ca.eps_coapprox_defect(prism, prism_flat, x, y0)
        assert (d == 0) == ca.is_best_coapprox(prism, prism_flat, x, y0)
        done += 1

    done = 0
    while done < 500:
        sp = spaces[done % 3]
        x = nonzero_point(rng, 3)
        y = rational_point(rng, 3)
        lo = F(rng.randint(0, 2), 4)
        hi = lo + F(rng.randint(0, 1), 4)
        if ca.eps_bj_orthogonal(sp, x, y, lo):
            assert ca.eps_bj_orthogonal(sp, x, y, hi)
        done += 1

    wide = ca.subspace([(3, 0, 2), (0, 3, 2)])
    for sp, span in ((ca.make_linf(3), wide), (prism, prism_steep)):
        done = 0
        while done < 50:
            x = nonzero_point(rng, 3)
            if ca.point_in_subspace(span, x):
                continue
            assert ca.eps_coapprox_defect(sp, span, x, (0, 0, 0)) == 1
            done += 1


@criterion(10, "exact polytope round trips and the prism face count", 1.0)
def test_polytope_layer():
    from coapprox.linalg import canonical_sorted

    for vertices in (
        ca.h_to_v(ca.h_rep(CUBE_FACETS)).vertices,
        tuple(ca.vec(p) for p in OCTAHEDRON),
        tuple(prism_vertices()),
    ):
        v = ca.v_rep(vertices)
        back = ca.h_to_v(ca.v_to_h(v))
        assert canonical_sorted(back.vertices) == canonical_sorted(v.vertices)

    v = ca.v_rep(prism_vertices())
    census = ca.face_census(v, ca.v_to_h(v))
    assert census == {0: 12, 1: 18, 2: 8}
    assert census[0] - census[1] + census[2] == 2
