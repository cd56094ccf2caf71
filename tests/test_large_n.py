"""The generic engine against the fast paths at n = 8-10.

One seeded span per case, with ``induced_ball`` cold: n = 8 for both norms
and every proper m, the sum norm at 10/3 and the max norm at 10/8.  The
anti and strong verdicts must match ``linf_classify`` and
``l1_is_anti_coproximinal``.  On sum-norm spans with no zero component,
``solve_best_coapprox`` must match ``l1_best_coapprox`` on three seeded
points, each y0 rechecked face by face; and J_Y must be the norming set,
since a smooth point of the sum norm has no zero coordinate and is normed by
its own sign vector.
"""

import pytest

import coapprox as ca
from coapprox.linalg import add, scale, zeros

from conftest import independent_basis, rational, rational_point, seeded

CASES = (
    [("linf", 8, m) for m in range(2, 8)]
    + [("l1", 8, m) for m in range(2, 8)]
    + [("l1", 10, 3), ("linf", 10, 8)]
)


def _points(rng, y, reps):
    """Two random points around one with a best coapproximation in Y.

    That one is a point of Y plus vectors annihilated by the norming set.
    """
    b = ca.embed(y, rational_point(rng, y.dim))
    for v in ca.solve_linear(reps, zeros(len(reps))).nullspace:
        b = add(b, scale(v, rational(rng)))
    return rational_point(rng, y.ambient_dim), b, rational_point(rng, y.ambient_dim)


@pytest.mark.parametrize(("kind", "n", "m"), CASES, ids=[f"{k}-{n}-{m}" for k, n, m in CASES])
def test_generic_engine_agrees_with_the_fast_paths(kind, n, m):
    rng = seeded(f"{kind}-{n}-{m}")
    rows = independent_basis(rng, n, m)
    while kind == "l1" and ca.zero_set(rows):
        rows = independent_basis(rng, n, m)
    space = (ca.make_linf if kind == "linf" else ca.make_l1)(n)
    y = ca.subspace(rows)
    ca.induced_ball.cache_clear()
    anti = ca.is_anti_coproximinal(space, y).status
    strong = ca.is_strongly_anti_coproximinal(space, y).status
    if kind == "linf":
        fast = "yes" if ca.linf_classify(rows).strongly_anti else "no"
        assert (anti, strong) == (fast, fast)
        return
    assert (anti, strong) == (ca.l1_is_anti_coproximinal(rows).status, "no")
    norming = ca.minimal_norming_set(rows)
    assert set(ca.jy_set_via_faces(space, y).functionals) == set(norming.signs)
    found = 0
    for x in _points(rng, y, norming.representatives):
        generic, fast = ca.solve_best_coapprox(space, y, x), ca.l1_best_coapprox(rows, x)
        assert generic.exists == fast.exists
        for result in (generic, fast):
            assert not result.exists or ca.is_best_coapprox(space, y, x, result.y0)
        found += generic.exists
    assert found >= 1
