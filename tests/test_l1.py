"""Sum-norm fast path: zero sets, minimal norming sets, the no-strong bound."""

import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from operator import mul
from pathlib import Path

import pytest

import coapprox as ca
from coapprox.l1 import cell_bound
from coapprox.linalg import (
    ONE,
    Feasibility,
    LpProblem,
    _cleared,
    add,
    dot,
    lp_solve,
    neg,
    scale,
    vec,
    zeros,
)

from conftest import L1_BASIS, independent_basis, rational, rational_point, seeded

F = Fraction

RANK2_BASIS = ((1, 1, 0), (0, 0, 1))


def sign_pattern(v):
    return tuple(F(1) if c > 0 else F(-1) if c < 0 else F(0) for c in v)


class TestZeroSet:
    def test_fixture_is_empty(self):
        assert ca.zero_set(L1_BASIS) == frozenset()

    def test_common_zero_coordinate(self):
        assert ca.zero_set([(0, 1, 0), (0, 0, 1)]) == frozenset({1})

    def test_indices_are_one_based(self):
        assert ca.zero_set([(1, 0, 0), (0, 1, 0)]) == frozenset({3})


class TestMinimalNormingSet:
    def test_frozen_fixture(self):
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
        assert ns.size == 6
        assert ns.representatives == ns.signs[::2]

    def test_rank_two_fixture(self):
        ns = ca.minimal_norming_set(RANK2_BASIS)
        assert set(ns.signs) == {
            (F(1), F(1), F(1)),
            (F(-1), F(-1), F(-1)),
            (F(1), F(1), F(-1)),
            (F(-1), F(-1), F(1)),
        }

    def test_witnesses_realize_their_sign_vector(self):
        ns = ca.minimal_norming_set(L1_BASIS)
        for s, beta in zip(ns.signs, ns.witnesses):
            y = tuple(
                sum(b * row[j] for b, row in zip(beta, L1_BASIS))
                for j in range(3)
            )
            assert sign_pattern(y) == s

    def test_norming_property(self):
        # the selected sign vectors already compute the sum norm on the span
        rng = seeded(127)
        y_basis = ca.subspace(L1_BASIS)
        ns = ca.minimal_norming_set(L1_BASIS)
        sp = ca.make_l1(3)
        for _ in range(30):
            y = ca.embed(y_basis, rational_point(rng, 2))
            assert max(dot(s, y) for s in ns.signs) == ca.norm(sp, y)

    def test_minimality_via_unique_maximizers(self):
        # each witness is normed by its own sign vector and by no other member,
        # so no proper subset can still norm the span
        ns = ca.minimal_norming_set(L1_BASIS)
        sp = ca.make_l1(3)
        for s, beta in zip(ns.signs, ns.witnesses):
            y = tuple(
                sum(b * row[j] for b, row in zip(beta, L1_BASIS))
                for j in range(3)
            )
            peak = ca.norm(sp, y)
            assert dot(s, y) == peak
            for other in ns.signs:
                if other != s:
                    assert dot(other, y) < peak

    def test_single_row_spans(self):
        ns = ca.minimal_norming_set([(1, 2)])
        assert set(ns.signs) == {(F(1), F(1)), (F(-1), F(-1))}
        ns3 = ca.minimal_norming_set([(1, 2, 3)])
        assert set(ns3.signs) == {(F(1), F(1), F(1)), (F(-1), F(-1), F(-1))}

    def test_zero_set_refused(self):
        with pytest.raises(ca.NonEmptyZeroSet):
            ca.minimal_norming_set([(0, 1, 0), (0, 0, 1)])

    def test_closed_under_negation(self):
        rng = seeded(131)
        for _ in range(10):
            rows = independent_basis(rng, 4, 2)
            if ca.zero_set(rows):
                continue
            signs = set(ca.minimal_norming_set(rows).signs)
            assert signs == {neg(s) for s in signs}


def _former_strict_feasibility(c):
    """The former strict_feasibility, verbatim: one zero-objective LP through lp_solve."""
    if not c:
        raise ValueError("strict_feasibility needs at least one row")
    constraints = tuple((row, ">=", ONE) for row in c)
    res = lp_solve(LpProblem(objective=zeros(len(c[0])), constraints=constraints))
    if res.status != "optimal":
        return Feasibility(feasible=False)
    _, (witness,) = _cleared([res.point])
    _, rows = _cleared(c)
    if not all(sum(map(mul, row, witness)) > 0 for row in rows):
        raise ca.Discrepancy("the strict-feasibility witness fails a row")
    return Feasibility(feasible=True, witness=res.point)


def _former_minimal_norming_set(a_rows):
    """The former per-node walk, verbatim: one fresh strict system per prefix."""
    basis = ca.subspace(a_rows).basis
    zeros_found = ca.zero_set(a_rows)
    if zeros_found:
        raise ca.NonEmptyZeroSet(
            f"coordinates {sorted(zeros_found)} have zero components; "
            "the minimal norming set is not unique"
        )
    comps = tuple(zip(*basis, strict=True))
    n = len(comps)
    found = []

    def assign(i, rows, signs):
        feas = _former_strict_feasibility(tuple(rows))
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
    signs = []
    witnesses = []
    for s, beta in found:
        signs.extend((s, neg(s)))
        witnesses.extend((beta, neg(beta)))
    return ca.NormingSet(signs=tuple(signs), witnesses=tuple(witnesses))


def _seeded_spans():
    rng = seeded(251)
    for n in range(3, 9):
        for m in range(1, n):
            for _ in range(2 if n < 7 else 1):
                yield independent_basis(rng, n, m, -3, 3)
    yield independent_basis(rng, 10, 5, -3, 3)


class TestGrownWalk:
    def test_equals_the_former_per_node_walk(self):
        walked = 0
        for rows in _seeded_spans():
            if ca.zero_set(rows):
                with pytest.raises(ca.NonEmptyZeroSet):
                    ca.minimal_norming_set(rows)
                continue
            ns = ca.minimal_norming_set(rows)
            former = _former_minimal_norming_set(rows)
            assert ns.signs == former.signs
            assert ns.witnesses == former.witnesses
            walked += 1
        assert walked >= 35

    def test_no_strict_system_or_lp_is_solved(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the walk solved a strict system or an LP")

        for module in [m for name, m in sys.modules.items() if name.startswith("coapprox")]:
            for name in ("strict_feasibility", "lp_solve"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        rng = seeded(257)
        for _ in range(10):
            rows = independent_basis(rng, 6, 3, -3, 3)
            if not ca.zero_set(rows):
                ca.minimal_norming_set(rows)
                ca.l1_is_anti_coproximinal(rows)
                ca.l1_best_coapprox(rows, rational_point(rng, 6))

    def test_each_public_call_validates_its_basis_once(self, monkeypatch):
        calls = []
        real = ca.l1.subspace

        def spy(rows):
            calls.append(rows)
            return real(rows)

        monkeypatch.setattr(ca.l1, "subspace", spy)
        for call in (
            lambda: ca.zero_set(L1_BASIS),
            lambda: ca.minimal_norming_set(L1_BASIS),
            lambda: ca.l1_is_anti_coproximinal(L1_BASIS),
            lambda: ca.l1_best_coapprox(L1_BASIS, (1, 0, 0)),
        ):
            calls.clear()
            call()
            assert calls == [L1_BASIS]

    def test_refusals_keep_their_order(self):
        # dependent basis, then the dimension range, then the zero set
        with pytest.raises(ca.DependentBasis):
            ca.l1_is_anti_coproximinal([(0, 1, 0), (0, 2, 0)])
        with pytest.raises(ca.DimensionOutOfRange):
            ca.l1_is_anti_coproximinal([(1, 0, 0)])
        assert ca.l1_is_anti_coproximinal([(1, 0, 0), (0, 1, 0)]).reason == "zero-set"
        with pytest.raises(ca.DependentBasis):
            ca.l1_best_coapprox([(0, 1, 0), (0, 2, 0)], (1, 0))
        with pytest.raises(ca.NonEmptyZeroSet):
            ca.l1_best_coapprox([(1, 0, 0), (0, 1, 0)], (1, 0, 0))

    def test_a_lying_tableau_is_caught_in_optimized_mode(self):
        # python -O strips asserts; the leaf recheck must still raise
        src = str(Path(ca.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        )}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _LYING_WALK_SCRIPT],
            capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "Discrepancy", "Discrepancy"]


_LYING_WALK_SCRIPT = """
import coapprox as ca
import coapprox.linalg as la

print(__debug__)
honest = la._Growing.point
la._Growing.point = lambda self: tuple(-x for x in honest(self))
for call in (
    lambda: la.strict_feasibility(ca.mat([(1, 0), (1, 1)])),
    lambda: ca.minimal_norming_set(((0, 1, 1), (-1, 0, 1))),
):
    try:
        call()
    except ca.Discrepancy:
        print("Discrepancy")
    else:
        print("answered")
"""


class TestL1Anti:
    def test_fixture_is_anti(self):
        res = ca.l1_is_anti_coproximinal(L1_BASIS)
        assert res.status == "yes"
        assert res.rank == 3
        assert res.norming.size == 6

    def test_zero_coordinate_gives_a_witness(self):
        res = ca.l1_is_anti_coproximinal([(0, 1, 0), (0, 0, 1)])
        assert res.status == "no"
        assert res.witness_x == (F(1), F(0), F(0))
        # the witness really does admit a best coapproximation
        sp = ca.make_l1(3)
        y = ca.subspace([(0, 1, 0), (0, 0, 1)])
        assert ca.solve_best_coapprox(sp, y, res.witness_x).exists

    def test_low_rank_norming_set_blocks_anti(self):
        res = ca.l1_is_anti_coproximinal(RANK2_BASIS)
        assert res.status == "no"
        assert res.rank == 2

    def test_dimension_bounds(self):
        with pytest.raises(ca.DimensionOutOfRange):
            ca.l1_is_anti_coproximinal([(1, 2)])
        with pytest.raises(ca.DimensionOutOfRange):
            ca.l1_is_anti_coproximinal([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


class TestL1BestCoapprox:
    def test_fixture_has_no_answer(self):
        assert not ca.l1_best_coapprox(L1_BASIS, (1, 0, 0)).exists

    def test_subspace_points_answer_themselves(self):
        res = ca.l1_best_coapprox(L1_BASIS, (0, 1, 1))
        assert res.exists and res.y0 == (F(0), F(1), F(1))

    def test_agreement_with_the_generic_solver(self):
        rng = seeded(137)
        sp3 = ca.make_l1(3)
        checked = 0
        while checked < 12:
            rows = independent_basis(rng, 3, 2)
            if ca.zero_set(rows):
                continue
            b = rational_point(rng, 3)
            fast = ca.l1_best_coapprox(rows, b)
            generic = ca.solve_best_coapprox(sp3, ca.subspace(rows), b)
            assert fast.exists == generic.exists
            if fast.exists:
                assert fast.y0 == generic.y0
            checked += 1

    def test_agreement_with_the_generic_solver_at_seven(self):
        # random points almost never have a best coapproximation, so half of
        # them are built as y + z with z orthogonal to every norming sign
        # vector: then y itself solves the norming-set system
        rng = seeded(247)
        sp7 = ca.make_l1(7)
        spans = found = 0
        while spans < 12:
            rows = independent_basis(rng, 7, rng.choice((2, 3, 4)), -1, 1)
            if ca.zero_set(rows):
                continue
            if spans % 2:
                b = rational_point(rng, 7)
            else:
                b = ca.embed(ca.subspace(rows), rational_point(rng, len(rows)))
                reps = ca.minimal_norming_set(rows).representatives
                for v in ca.solve_linear(reps, zeros(len(reps))).nullspace:
                    b = add(b, scale(v, rational(rng)))
            fast = ca.l1_best_coapprox(rows, b)
            generic = ca.solve_best_coapprox(sp7, ca.subspace(rows), b)
            assert fast.exists == generic.exists
            if fast.exists:
                assert fast.y0 == generic.y0
            found += fast.exists
            spans += 1
        assert found >= 3


class TestNeverStronglyAnti:
    def test_fixture_report(self):
        result = ca.classify(ca.make_l1(3), ca.subspace(L1_BASIS), verify=True)
        cert = result.certificates
        assert cert["norming_size"] == 6
        assert cert["bound"] == cell_bound(3, 2) == 2 * (comb(2, 0) + comb(2, 1)) == 6
        assert cert["sign_vectors"] == 8
        assert result.strongly_anti == result.generic.strongly_anti == "no"
        assert result.generic.certificates["missed_facet"] is not None

    def test_zero_set_case_still_reports_no(self):
        result = ca.classify(ca.make_l1(3), ca.subspace([(0, 1, 0), (0, 0, 1)]), verify=True)
        assert result.generic.strongly_anti == "no"
        assert result.certificates["reason"] == "zero-set"
        assert "norming_size" not in result.certificates

    def test_bound_formula_on_random_bases(self):
        rng = seeded(139)
        checked = 0
        while checked < 10:
            n = rng.choice([3, 4])
            m = rng.randint(2, n - 1)
            rows = independent_basis(rng, n, m)
            if ca.zero_set(rows):
                continue
            result = ca.classify(ca.make_l1(n), ca.subspace(rows), verify=True)
            cert = result.certificates
            assert cert["bound"] == cell_bound(n, m) == 2 * sum(comb(n - 1, k) for k in range(m))
            assert cert["norming_size"] <= cert["bound"] < cert["sign_vectors"] == 2**n
            assert result.generic.strongly_anti == "no"
            checked += 1
