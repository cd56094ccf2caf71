"""Max-norm fast path: component tables, the separation property, classification."""

from fractions import Fraction

import pytest

import coapprox as ca
from coapprox.linalg import dot, scale

from conftest import NARROW_BASIS, WIDE_BASIS, independent_basis, seeded

F = Fraction


def star_witness_is_valid(rows, i, beta):
    """Re-verify the strict domination the witness claims, from scratch."""
    table = ca.component_table(rows)
    lead = abs(dot(beta, table.component(i)))
    others = [
        abs(dot(beta, table.component(j)))
        for j in range(1, table.n + 1)
        if j not in table.associated(i)
    ]
    return all(lead > v for v in others)


class TestComponentTable:
    def test_narrow_fixture(self):
        t = ca.component_table(NARROW_BASIS)
        assert t.n == 3
        assert t.components == ((F(1), F(2)), (F(1), F(2)), (F(2), F(1)))
        assert t.p_plus == (frozenset({1, 2}), frozenset({1, 2}), frozenset({3}))
        assert t.p_minus == (frozenset(), frozenset(), frozenset())
        assert t.associated(1) == frozenset({1, 2})
        assert t.component(3) == (F(2), F(1))

    def test_negated_component_is_associated(self):
        t = ca.component_table([(1, -1, 0), (2, -2, 1)])
        assert t.p_minus[0] == frozenset({2})
        assert t.associated(1) == frozenset({1, 2})

    def test_one_clearing_per_table(self, monkeypatch):
        calls = []
        real = ca.linf._cleared

        def spy(vectors):
            calls.append(vectors)
            return real(vectors)

        monkeypatch.setattr(ca.linf, "_cleared", spy)
        t = ca.component_table(WIDE_BASIS)
        assert calls == [t.components]

    def test_associated_sets_match_the_pairwise_comparison(self):
        # the former tied(): every pair of Fraction components compared directly
        rng = seeded(313)
        shapes = set()
        for _ in range(600):
            n = rng.randint(2, 7)
            m = rng.randint(1, min(n, 3))
            rows = [list(row) for row in independent_basis(rng, n, m, -2, 2)]
            for _ in range(rng.randint(0, 2)):
                # copy a coordinate, negated or halved at times, so that ties are common
                i, j, factor = rng.randrange(n), rng.randrange(n), rng.choice((1, -1, F(1, 2)))
                for row in rows:
                    row[j] = factor * row[i]
            if ca.rank(tuple(map(tuple, rows))) < m:
                continue
            t = ca.component_table(rows)
            comps = tuple(zip(*ca.subspace(rows).basis))

            def tied(targets):
                return tuple(
                    frozenset(j + 1 for j, cj in enumerate(comps) if cj == c) for c in targets
                )

            assert t.p_plus == tied(comps)
            assert t.p_minus == tied(tuple(-x for x in c) for c in comps)
            shapes.update(
                ("plus" if len(p) > 1 else "alone", "minus" if q else "none")
                for p, q in zip(t.p_plus, t.p_minus)
            )
        assert shapes == {("plus", "minus"), ("plus", "none"), ("alone", "minus"), ("alone", "none")}

    def test_every_index_is_self_associated(self):
        t = ca.component_table(WIDE_BASIS)
        for i in range(1, t.n + 1):
            assert i in t.associated(i)


class TestStarProperty:
    def test_narrow_unassociated_index_holds(self):
        res = ca.star_property(NARROW_BASIS, 3)
        assert res.holds
        assert star_witness_is_valid(NARROW_BASIS, 3, res.witness)

    def test_wide_basis_holds_everywhere(self):
        for i in range(1, 6):
            res = ca.star_property(WIDE_BASIS, i)
            assert res.holds
            assert star_witness_is_valid(WIDE_BASIS, i, res.witness)

    def test_zero_component_fails(self):
        res = ca.star_property([(1, 0, 1), (0, 0, 2)], 2)
        assert not res.holds and res.witness is None

    def test_index_bounds(self):
        with pytest.raises(ca.DimensionOutOfRange):
            ca.star_property(NARROW_BASIS, 0)
        with pytest.raises(ca.DimensionOutOfRange):
            ca.star_property(NARROW_BASIS, 4)

    @pytest.mark.parametrize("i", [True, False, 1.0, "1", F(1)])
    def test_the_coordinate_must_be_an_int(self, i):
        # True once answered for coordinate 1
        with pytest.raises(TypeError, match="not an int"):
            ca.star_property(NARROW_BASIS, i)

    def test_padded_zero_column_fails_at_the_new_index(self):
        rows = [row + (0,) for row in WIDE_BASIS]
        assert not ca.star_property(rows, 6).holds


class TestClassify:
    def test_wide_basis_is_strongly_anti(self):
        verdict = ca.linf_classify(WIDE_BASIS)
        assert verdict.strongly_anti
        assert verdict.failing_index is None
        assert verdict.failing_clause is None
        assert len(verdict.star_results) == 5
        assert [i for i, _ in verdict.star_results] == [1, 2, 3, 4, 5]
        for i, res in verdict.star_results:
            assert res.holds
            assert star_witness_is_valid(WIDE_BASIS, i, res.witness)

    def test_narrow_basis_fails_on_association(self):
        verdict = ca.linf_classify(NARROW_BASIS)
        assert not verdict.strongly_anti
        assert verdict.failing_index == 1
        assert verdict.failing_clause == "associated"
        assert "coordinate 1" in verdict.reason
        assert "coordinate 2" in verdict.reason

    def test_padded_basis_fails_on_the_star_clause(self):
        rows = [row + (0,) for row in WIDE_BASIS]
        verdict = ca.linf_classify(rows)
        assert not verdict.strongly_anti
        assert verdict.failing_index == 6
        assert verdict.failing_clause == "star"

    def test_small_strong_fixture(self):
        assert ca.linf_classify([(3, 0, 2), (0, 3, 2)]).strongly_anti

    def test_row_scaling_does_not_change_the_answer(self):
        rng = seeded(109)
        for rows in (NARROW_BASIS, WIDE_BASIS, [(3, 0, 2), (0, 3, 2)]):
            base = ca.linf_classify(rows).strongly_anti
            scaled = [scale(ca.vec(r), F(rng.randint(1, 4), rng.randint(1, 3))) for r in rows]
            assert ca.linf_classify(scaled).strongly_anti == base

    def test_change_of_basis_does_not_change_the_answer(self):
        # the answer depends on the span only, so row operations are harmless
        for rows in (NARROW_BASIS, [(3, 0, 2), (0, 3, 2)]):
            a, b = (ca.vec(r) for r in rows)
            mixed = [tuple(p + q for p, q in zip(a, b)), b]
            assert ca.linf_classify(mixed).strongly_anti == ca.linf_classify(rows).strongly_anti

    def test_dimension_bounds(self):
        with pytest.raises(ca.DimensionOutOfRange):
            ca.linf_classify([(1, 0, 0)])
        with pytest.raises(ca.DimensionOutOfRange):
            ca.linf_classify([(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_dependent_rows_rejected(self):
        with pytest.raises(ca.DependentBasis):
            ca.linf_classify([(1, 2, 0), (2, 4, 0)])


class TestAgainstGenericEngine:
    def test_fixture_agreement(self):
        cases = [NARROW_BASIS, WIDE_BASIS, [(3, 0, 2), (0, 3, 2)]]
        for rows in cases:
            n = len(rows[0])
            fast = ca.linf_classify(rows).strongly_anti
            generic = ca.is_strongly_anti_coproximinal(ca.make_linf(n), ca.subspace(rows))
            assert (generic.status == "yes") == fast

    def test_random_agreement(self):
        rng = seeded(113)
        for _ in range(15):
            n = rng.choice([3, 4])
            m = rng.randint(2, n - 1)
            rows = independent_basis(rng, n, m)
            fast = ca.linf_classify(rows).strongly_anti
            generic = ca.is_strongly_anti_coproximinal(ca.make_linf(n), ca.subspace(rows))
            assert (generic.status == "yes") == fast

    def test_anti_and_strongly_coincide_here(self):
        # in the max norm the two classifications agree; spot-check both verdicts
        wide = ca.subspace([(3, 0, 2), (0, 3, 2)])
        narrow = ca.subspace(NARROW_BASIS)
        sp = ca.make_linf(3)
        assert ca.is_anti_coproximinal(sp, wide).status == "yes"
        assert ca.is_strongly_anti_coproximinal(sp, wide).status == "yes"
        assert ca.is_anti_coproximinal(sp, narrow).status == "no"
        assert ca.is_strongly_anti_coproximinal(sp, narrow).status == "no"
