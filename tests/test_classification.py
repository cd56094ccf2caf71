"""The classification entry point: engine choice, certificates, the cross-check."""

import pytest

import coapprox as ca
import coapprox.classification as classification
from coapprox.l1 import L1AntiResult
from coapprox.linf import LinfClassification

from conftest import L1_BASIS, NARROW_BASIS, independent_basis, seeded

WIDE3 = ((3, 0, 2), (0, 3, 2))


@pytest.fixture
def linf3():
    return ca.make_linf(3)


@pytest.fixture
def l1_3():
    return ca.make_l1(3)


class TestEngineChoice:
    def test_max_norm_takes_its_fast_path(self, linf3):
        result = ca.classify(linf3, ca.subspace(WIDE3))
        assert result.engine == "linf-fast"
        assert result.anti == result.strongly_anti == "yes"
        assert set(result.certificates["star_witnesses"]) == {"1", "2", "3"}

    def test_max_norm_failure_names_the_coordinate(self, linf3):
        result = ca.classify(linf3, ca.subspace(NARROW_BASIS))
        assert result.engine == "linf-fast"
        assert result.strongly_anti == "no"
        assert result.certificates["failing_index"] == 1
        assert result.certificates["failing_clause"] == "associated"

    def test_sum_norm_takes_its_fast_path(self, l1_3):
        result = ca.classify(l1_3, ca.subspace(L1_BASIS))
        assert result.engine == "l1-fast"
        assert (result.anti, result.strongly_anti) == ("yes", "no")
        assert result.certificates == {
            "bound": 6, "sign_vectors": 8, "norming_size": 6, "norming_rank": 3,
        }

    def test_prism_takes_the_generic_engine(self, prism, prism_tilted):
        result = ca.classify(prism, prism_tilted)
        assert result.engine == "generic"
        assert (result.anti, result.strongly_anti) == ("yes", "no")
        assert result.certificates["jy_size"] == 6
        assert result.certificates["epsilon0"] < 1

    def test_dimension_mismatch_is_refused(self, linf3):
        with pytest.raises(ValueError, match="space dimension"):
            ca.classify(linf3, ca.subspace([(1, 0), (0, 1)]))

    def test_improper_dimension_is_refused(self, linf3, prism):
        for space in (linf3, ca.make_l1(3), prism):
            with pytest.raises(ca.DimensionOutOfRange):
                ca.classify(space, ca.subspace([(1, 0, 0)]))


class TestVerify:
    def test_generic_only_for_fast_kinds(self, linf3, l1_3, prism, prism_tilted):
        cases = ((linf3, ca.subspace(WIDE3)), (l1_3, ca.subspace(L1_BASIS)), (prism, prism_tilted))
        for space, y in cases:
            assert ca.classify(space, y).generic is None
            checked = ca.classify(space, y, verify=True)
            if space.kind == "custom":
                assert checked.generic is None
            else:
                assert checked.generic.engine == "generic"
                assert checked.generic.strongly_anti == checked.strongly_anti
            assert checked.certificates == ca.classify(space, y).certificates

    def test_lying_max_norm_path_is_caught(self, linf3, monkeypatch):
        lie = LinfClassification(
            strongly_anti=False, failing_index=1, failing_clause="star", reason="patched",
        )
        monkeypatch.setattr(classification, "linf_classify", lambda rows: lie)
        y = ca.subspace(WIDE3)
        assert ca.classify(linf3, y).strongly_anti == "no"
        with pytest.raises(ca.Discrepancy, match="strongly_anti"):
            ca.classify(linf3, y, verify=True)

    def test_lying_sum_norm_path_is_caught(self, l1_3, monkeypatch):
        lie = L1AntiResult(status="no", reason="rank")
        monkeypatch.setattr(classification, "l1_is_anti_coproximinal", lambda rows: lie)
        y = ca.subspace(L1_BASIS)
        assert ca.classify(l1_3, y).anti == "no"
        with pytest.raises(ca.Discrepancy, match="anti=no"):
            ca.classify(l1_3, y, verify=True)

    def test_search_branch_agrees_with_the_fast_paths(self):
        # spans with entries in {-1, 0, 1} often have a short J_Y without
        # smooth density, where only the witness search decides plain
        # anti-coproximinality; the fast paths decide it independently
        rng = seeded(241)
        searched = 0
        for _ in range(40):
            n = rng.randint(3, 5)
            space = rng.choice((ca.make_linf, ca.make_l1))(n)
            y = ca.subspace(independent_basis(rng, n, rng.randint(2, n - 1), -1, 1))
            result = ca.classify(space, y, verify=True)
            assert result.generic.anti == result.anti
            certificates = result.generic.certificates
            searched += certificates["rank"] < n and not certificates["smooth_dense"]
        assert searched >= 10

    def test_fast_paths_agree_with_the_generic_engine_at_six_and_seven(self):
        # the integer double description makes B_Y affordable at n = 6-7,
        # so both fast paths meet the generic engine there, search branch
        # included
        rng = seeded(243)
        searched = 0
        for _ in range(16):
            n = rng.randint(6, 7)
            space = rng.choice((ca.make_linf, ca.make_l1))(n)
            y = ca.subspace(independent_basis(rng, n, rng.randint(2, n - 1), -1, 1))
            result = ca.classify(space, y, verify=True)
            assert result.generic.anti == result.anti
            assert result.generic.strongly_anti == result.strongly_anti
            certificates = result.generic.certificates
            searched += certificates["rank"] < n and not certificates["smooth_dense"]
        assert searched >= 4
