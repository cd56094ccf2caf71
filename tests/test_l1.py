"""Sum-norm fast path: zero sets, minimal norming sets, the no-strong bound."""

from fractions import Fraction
from math import comb

import pytest

import coapprox as ca
from coapprox.l1 import cell_bound
from coapprox.linalg import add, dot, neg, scale, zeros

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
