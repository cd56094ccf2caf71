"""Command line interface: subcommands, document input, exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import coapprox as ca
import coapprox.classification
import coapprox.coapproximation
import coapprox.linf
import coapprox.cli as cli

from conftest import prism_vertices
from test_subspaces import _assert_smooth_unit_normers

F = Fraction

LINF3 = '{"type":"linf","n":3}'
L1_3 = '{"type":"l1","n":3}'
NARROW = "[[1,1,2],[2,2,1]]"
WIDE = "[[3,0,2],[0,3,2]]"
L1_ROWS = "[[0,1,1],[-1,0,1]]"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def prism_space_json():
    verts = [[str(c) for c in v] for v in prism_vertices()]
    return json.dumps({"type": "custom", "vertices": verts})


class TestHappyPaths:
    def test_norm(self, capsys):
        code, out = run(capsys, "norm", "--space", LINF3, "--point", "[3,-2,1]")
        assert code == 0
        assert out == {"norm": "3"}

    def test_jset(self, capsys):
        code, out = run(capsys, "jset", "--space", '{"type":"linf","n":2}', "--point", '[1,"1/2"]')
        assert code == 0
        assert out["functionals"] == [["1", "0"]]

    def test_smooth(self, capsys):
        code, out = run(capsys, "smooth", "--space", '{"type":"l1","n":2}', "--point", "[1,0]")
        assert code == 0 and out == {"smooth": False}

    def test_bj_with_verify(self, capsys):
        code, out = run(
            capsys, "bj", "--space", '{"type":"linf","n":2}',
            "--point", '[1,"1/2"]', "--point", "[0,1]", "--verify",
        )
        assert code == 0
        assert out == {"orthogonal": True, "oracle": True}

    def test_eps_bj(self, capsys):
        code, out = run(
            capsys, "eps-bj", "--space", '{"type":"linf","n":2}',
            "--point", "[1,0]", "--point", '["1/4",1]', "--epsilon", "1/2",
        )
        assert code == 0
        assert out == {"orthogonal": True, "epsilon": "1/2"}

    def test_best_coapprox_exists(self, capsys):
        code, out = run(
            capsys, "best-coapprox", "--space", prism_space_json(),
            "--basis", "[[1,0,0],[0,1,0]]", "--point", "[3,-2,5]",
        )
        assert code == 0
        assert out["exists"] is True
        assert out["y0"] == ["3", "-2", "0"]
        assert out["alpha"] == ["3", "-2"]

    def test_best_coapprox_missing(self, capsys):
        code, out = run(
            capsys, "best-coapprox", "--space", L1_3, "--basis", L1_ROWS, "--point", "[1,0,0]",
        )
        assert code == 0
        assert out["exists"] is False
        assert isinstance(out["failed_face"], int)

    def test_eps_check_and_defect_round_trip(self, capsys):
        code, out = run(
            capsys, "eps-check", "--space", LINF3, "--basis", NARROW,
            "--point", "[5,1,2]", "--y0", "[0,0,0]", "--epsilon", "1/2",
        )
        assert code == 0
        assert out["is_eps_best"] is True
        assert F(out["defect"]) == F(2, 5)

        code, out = run(
            capsys, "defect", "--space", LINF3, "--basis", NARROW,
            "--point", "[5,1,2]", "--y0", "[0,0,0]",
        )
        assert code == 0 and F(out["defect"]) == F(2, 5)

    def test_classify_linf_fast_path(self, capsys):
        code, out = run(capsys, "classify", "--space", LINF3, "--basis", WIDE, "--verify")
        assert code == 0
        assert out["engine"] == "linf-fast"
        assert out["strongly_anti"] == "yes" and out["anti"] == "yes"
        assert out["generic"]["strongly_anti"] == "yes"

    def test_classify_linf_failure_reason(self, capsys):
        code, out = run(capsys, "classify", "--space", LINF3, "--basis", NARROW)
        assert code == 0
        assert out["strongly_anti"] == "no"
        assert out["certificates"]["failing_index"] == 1
        assert out["certificates"]["failing_clause"] == "associated"

    def test_classify_l1_fast_path(self, capsys):
        code, out = run(capsys, "classify", "--space", L1_3, "--basis", L1_ROWS)
        assert code == 0
        assert out["engine"] == "l1-fast"
        assert out["anti"] == "yes"
        assert out["strongly_anti"] == "no"
        assert out["certificates"]["norming_size"] == 6

    def test_classify_generic_engine(self, capsys):
        code, out = run(
            capsys, "classify", "--space", prism_space_json(),
            "--basis", '[["3/4","-1/4","1"],["-3/4","-1/4","1"]]',
        )
        assert code == 0
        assert out["engine"] == "generic"
        assert out["anti"] == "yes" and out["strongly_anti"] == "no"
        assert out["certificates"]["jy_size"] == 6

    def test_classify_decides_the_gap_the_rank_criterion_leaves(self, capsys):
        # the fixture of TestAntiClassification: short J_Y, not smooth-dense
        verts = [(1, 1, 0), (1, -1, -1), (1, 0, 1), (0, 1, 1), (1, -1, 1)]
        space = json.dumps({"type": "custom", "vertices": verts + [[-c for c in v] for v in verts]})
        code, out = run(capsys, "classify", "--space", space, "--basis", "[[0,1,1],[1,0,1]]")
        assert code == 0
        assert out["anti"] == "yes"
        assert out["certificates"]["rank"] == 2 and out["certificates"]["smooth_dense"] is False

    def test_star_property(self, capsys):
        code, out = run(capsys, "star-property", "--basis", WIDE)
        assert code == 0
        assert [entry["i"] for entry in out["components"]] == [1, 2, 3]
        assert all(entry["holds"] for entry in out["components"])

    def test_star_property_builds_one_table(self, capsys, monkeypatch):
        calls, real = [], coapprox.linf.subspace

        def spy(rows):
            calls.append(rows)
            return real(rows)

        basis = [[1, 1, 2, 5], [2, 2, 1, 1]]
        want = [ca.star_property(basis, i) for i in range(1, 5)]
        monkeypatch.setattr(coapprox.linf, "subspace", spy)
        code, out = run(capsys, "star-property", "--basis", json.dumps(basis))
        assert code == 0 and len(calls) == 1
        assert [(e["holds"], e.get("witness")) for e in out["components"]] == [
            (r.holds, r.witness and [str(x) for x in r.witness]) for r in want
        ]

    def test_norming_set(self, capsys):
        code, out = run(capsys, "norming-set", "--basis", L1_ROWS)
        assert code == 0
        assert out["zero_set"] == []
        assert out["size"] == 6
        assert out["signs"][0] == ["1", "1", "1"]

    def test_facets(self, capsys):
        code, out = run(capsys, "facets", "--space", '{"type":"l1","n":2}')
        assert code == 0
        assert out["census"] == {"0": 4, "1": 4}
        assert len(out["facets"]) == 4

    def test_jy_with_verify(self, capsys):
        code, out = run(
            capsys, "jy", "--space", prism_space_json(),
            "--basis", '[["7/8","1/8","1"],["7/8","-1/8","1"]]', "--verify",
        )
        assert code == 0
        assert out["size"] == 8

    def test_jy_witnesses_recheck(self, capsys, prism, prism_tilted):
        cases = (
            (prism, prism_tilted, prism_space_json(), '[["3/4","-1/4","1"],["-3/4","-1/4","1"]]'),
            (ca.make_l1(4), ca.subspace([(1, 2, 0, -1), (0, 1, 3, 1)]),
             '{"type":"l1","n":4}', "[[1,2,0,-1],[0,1,3,1]]"),
        )
        for space, y, space_json, basis in cases:
            code, out = run(capsys, "jy", "--space", space_json, "--basis", basis)
            assert code == 0
            jy = ca.JYSet(
                indices=tuple(out["indices"]),
                functionals=tuple(tuple(F(c) for c in g) for g in out["functionals"]),
                witnesses=tuple(tuple(F(c) for c in w) for w in out["witnesses"]),
            )
            assert jy.size == out["size"] > 0
            _assert_smooth_unit_normers(space, y, jy)


class TestDocumentInput:
    def test_reads_a_document_from_stdin(self, capsys, monkeypatch):
        doc = {"space": {"type": "linf", "n": 3}, "point": ["3", "-2", "1"]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out = run(capsys, "norm")
        assert code == 0 and out == {"norm": "3"}

    def test_points_list_in_document(self, capsys, monkeypatch):
        doc = {
            "space": {"type": "linf", "n": 2},
            "points": [["1", "1/2"], ["0", "1"]],
        }
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out = run(capsys, "bj")
        assert code == 0 and out["orthogonal"] is True

    def test_flags_override_the_document(self, capsys, monkeypatch):
        doc = {
            "space": {"type": "linf", "n": 3},
            "basis": [["1", "1", "2"], ["2", "2", "1"]],
            "point": ["5", "1", "2"],
            "y0": ["0", "0", "0"],
            "epsilon": "0",
        }
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out = run(capsys, "eps-check", "--epsilon", "1/2")
        assert code == 0
        assert out["is_eps_best"] is True and out["epsilon"] == "1/2"

    def test_unknown_key_is_one(self, capsys, monkeypatch):
        doc = {"space": {"type": "linf", "n": 3}, "basis": [[1, 1, 2], [2, 2, 1]], "seed": 3}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out = run(capsys, "classify")
        assert code == 1
        assert "seed" in out["error"]["message"]

    def test_removed_budget_key_is_one(self, capsys, monkeypatch):
        doc = {"space": {"type": "linf", "n": 3}, "basis": [[1, 1, 2], [2, 2, 1]],
               "point": [1, -1, 0], "budget": 5}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out = run(capsys, "best-coapprox")
        assert code == 1
        assert "budget" in out["error"]["message"]

    def test_point_and_points_together_are_one(self, capsys, monkeypatch):
        doc = {"space": {"type": "linf", "n": 3}, "point": [3, -2, 1], "points": [[1, 0, 0]]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out = run(capsys, "norm")
        assert code == 1
        assert out["error"] == {
            "type": "ValueError", "message": 'request takes "point" or "points", not both'
        }

    @pytest.mark.parametrize(
        "verify", ["false", "true", 0, 1, None, []],
        ids=["string-false", "string-true", "zero", "one", "null", "list"],
    )
    def test_verify_that_is_not_a_boolean_is_one(self, capsys, monkeypatch, verify):
        doc = {"space": {"type": "linf", "n": 3}, "basis": [[1, 1, 2], [2, 2, 1]], "verify": verify}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out = run(capsys, "classify")
        assert code == 1
        assert out["error"] == {
            "type": "ValueError", "message": 'request key "verify" must be true or false'
        }


class TestExitCodes:
    def test_malformed_json_is_one(self, capsys):
        code, out = run(capsys, "norm", "--space", "{", "--point", "[1,0]")
        assert code == 1 and "error" in out

    def test_float_literal_is_one(self, capsys):
        code, out = run(capsys, "norm", "--space", LINF3, "--point", "[0.5,0,0]")
        assert code == 1
        assert "float" in out["error"]["message"]

    @pytest.mark.parametrize("route", ["point", "space", "stdin"])
    def test_deeply_nested_json_is_one(self, capsys, monkeypatch, route):
        deep = "[" * 10**5 + "]" * 10**5
        argv = {
            "point": ["norm", "--space", LINF3, "--point", deep],
            "space": ["norm", "--space", deep, "--point", "[1,0,0]"],
            "stdin": ["norm"],
        }[route]
        monkeypatch.setattr(sys, "stdin", io.StringIO(deep))
        code, out = run(capsys, *argv)
        assert code == 1
        assert out["error"] == {"type": "ValueError", "message": "JSON input is nested too deeply"}

    def test_missing_argument_is_one(self, capsys):
        code, out = run(capsys, "smooth", "--space", LINF3)
        assert code == 1

    def test_unknown_command_is_one(self, capsys):
        code, _ = run(capsys, "no-such-command")
        assert code == 1

    def test_removed_seed_flag_is_one(self, capsys):
        code, out = run(capsys, "classify", "--space", LINF3, "--basis", NARROW, "--seed", "3")
        assert code == 1
        assert out["error"]["type"] == "UsageError"

    def test_dimension_mismatch_is_one(self, capsys):
        code, out = run(capsys, "norm", "--space", LINF3, "--point", "[1,0]")
        assert code == 1

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["bj", "--point", "[1,2,3]", "--point", "[1,2]"], "point has dimension 2, space has 3"),
            (["eps-bj", "--epsilon", "1/2", "--point", "[1,2,3]", "--point", "[1,2]"],
             "point has dimension 2, space has 3"),
            (["best-coapprox", "--basis", NARROW, "--point", "[1,2]"], "point has dimension 2, space has 3"),
            (["best-coapprox", "--basis", NARROW, "--point", "[1,2,3,4]"],
             "point has dimension 4, space has 3"),
            (["defect", "--basis", NARROW, "--point", "[1,2]", "--y0", "[3,3,3]"],
             "point has dimension 2, space has 3"),
            (["eps-check", "--epsilon", "1/2", "--basis", NARROW, "--point", "[1,2]", "--y0", "[3,3,3]"],
             "point has dimension 2, space has 3"),
            (["defect", "--basis", NARROW, "--point", "[1,2,3]", "--y0", "[3,3]"],
             "y0 has dimension 2, space has 3"),
            (["eps-check", "--epsilon", "1/2", "--basis", NARROW, "--point", "[1,2,3]", "--y0", "[3,3]"],
             "y0 has dimension 2, space has 3"),
        ],
    )
    def test_wrong_point_dimension_is_named(self, capsys, argv, message):
        code, out = run(capsys, *argv, "--space", LINF3)
        assert code == 1
        assert out["error"] == {"type": "ValueError", "message": message}

    @pytest.mark.parametrize(
        "argv",
        [
            ["eps-check", "--epsilon", "1/2", "--point", "[1,0,0]", "--y0", "[1,0,0]"],
            ["eps-check", "--epsilon", "1/2", "--point", "[1,2,3]", "--y0", "[1,0,0]"],
            ["defect", "--point", "[1,2,3]", "--y0", "[1,0,0]"],
            ["classify"],
            ["best-coapprox", "--point", "[1,2,3]"],
            ["jy"],
        ],
        ids=["eps-check-x-is-y0", "eps-check", "defect", "classify", "best-coapprox", "jy"],
    )
    def test_basis_in_another_dimension_is_named(self, capsys, argv):
        code, out = run(capsys, *argv, "--space", LINF3, "--basis", "[[1,0,0,0],[0,1,0,0]]")
        assert code == 1
        assert out["error"] == {
            "type": "ValueError", "message": "subspace lives in a different ambient dimension"
        }

    def test_custom_spec_with_vertices_and_facets_is_one(self, capsys):
        spec = json.loads(prism_space_json())
        spec["facets"] = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
        code, out = run(capsys, "norm", "--space", json.dumps(spec), "--point", "[1,0,0]")
        assert code == 1
        assert out["error"] == {
            "type": "ValueError",
            "message": 'custom space spec needs exactly one of "vertices" and "facets"',
        }

    @pytest.mark.parametrize(
        ("spec", "keys"),
        [
            ({"type": "linf", "n": 3, "vertices": [[1, 0, 0], [-1, 0, 0]]}, "vertices"),
            ({"type": "l1", "n": 3, "N": 4, "seed": 1}, "N, seed"),
            ({"type": "custom", "facets": [[1, 0], [-1, 0], [0, 1], [0, -1]], "n": 2}, "n"),
        ],
        ids=["linf", "l1", "custom"],
    )
    def test_unknown_space_key_is_one(self, capsys, spec, keys):
        point = "[1,0]" if spec["type"] == "custom" else "[1,0,0]"
        code, out = run(capsys, "norm", "--space", json.dumps(spec), "--point", point)
        assert code == 1
        assert out["error"] == {"type": "ValueError", "message": f"unknown space key(s): {keys}"}

    @pytest.mark.parametrize(
        ("argv", "error"),
        [
            (["--space", '{"type":"custom","vertices":[]}'],
             ("ValueError", "vertices must be a nonempty JSON array of rows")),
            (["--space", '{"type":"custom","vertices":[[1,0],[]]}'],
             ("ValueError", "a row of vertices must be a nonempty JSON array of rationals")),
            (["--space", '{"type":"custom","facets":[[]]}'],
             ("ValueError", "a row of facets must be a nonempty JSON array of rationals")),
            (["--space", LINF3, "--basis", "[[1,0,0],[]]"],
             ("ValueError", "a basis row must be a nonempty JSON array of rationals")),
            (["--space", LINF3, "--basis", NARROW, "--y0", "[]"],
             ("ValueError", "y0 must be a nonempty JSON array of rationals")),
            (["--space", '{"type":"linf"}'], ("ValueError", 'linf space spec needs "n"')),
            (["--space", '{"type":"linf","n":"3"}'],
             ("ValueError", 'linf space spec needs "n" as a JSON integer, got "3"')),
            (["--space", '{"type":"l1","n":" 3 "}'],
             ("ValueError", 'l1 space spec needs "n" as a JSON integer, got " 3 "')),
            (["--space", '{"type":"linf","n":true}'],
             ("ValueError", 'linf space spec needs "n" as a JSON integer, got true')),
            (["--space", '{"type":"l1","n":"abc"}'],
             ("ValueError", 'l1 space spec needs "n" as a JSON integer, got "abc"')),
            (["--space", '{"type":"linf","n":[3]}'],
             ("ValueError", 'linf space spec needs "n" as a JSON integer, got [3]')),
        ],
        ids=[
            "vertices", "vertices-row", "facets-row", "basis-row", "y0", "missing-n",
            "n-string", "n-padded-string", "n-bool", "n-word", "n-list",
        ],
    )
    def test_malformed_field_is_named(self, capsys, argv, error):
        code, out = run(capsys, "defect", *argv, "--point", "[1,0,0]")
        assert code == 1
        assert out["error"] == dict(zip(("type", "message"), error))

    def test_bool_in_vector_is_one(self, capsys):
        code, out = run(capsys, "norm", "--space", LINF3, "--point", "[true,0,0]")
        assert code == 1

    def test_removed_budget_flag_is_one(self, capsys):
        code, out = run(
            capsys, "best-coapprox", "--space", LINF3, "--basis", NARROW,
            "--point", "[1,-1,0]", "--budget", "5",
        )
        assert code == 1
        assert out["error"]["type"] == "UsageError"

    def test_anti_search_cap_is_two(self, capsys, monkeypatch):
        # the rank-2 fixture reaches the anti search, whose second tried
        # branch passes a cap of one
        monkeypatch.setattr(coapprox.coapproximation, "_ANTI_LP_CAP", 1)
        verts = [(1, 1, 0), (1, -1, -1), (1, 0, 1), (0, 1, 1), (1, -1, 1)]
        space = json.dumps({"type": "custom", "vertices": verts + [[-c for c in v] for v in verts]})
        code, out = run(capsys, "classify", "--space", space, "--basis", "[[0,1,1],[1,0,1]]")
        assert code == 2
        assert out["error"]["type"] == "BudgetExceeded"
        assert out["error"]["budget"] == 1
        assert out["error"]["required"] == 2

    @pytest.mark.parametrize("vertices, basis", [
        (
            [[-2, -2, 2, 1, -1, 0], [-2, -1, -2, -2, 2, 2], [-2, -1, 1, -2, 1, 2],
             [-2, 0, 1, -1, 2, 1], [-1, 0, 0, 2, 0, 2], [-1, 0, 1, 0, 0, -1],
             [0, 0, -1, 0, 1, -1], [0, 0, 1, 0, -1, 1], [1, 0, -1, 0, 0, 1],
             [1, 0, 0, -2, 0, -2], [2, 0, -1, 1, -2, -1], [2, 1, -1, 2, -1, -2],
             [2, 1, 2, 2, -2, -2], [2, 2, -2, -1, 1, 0]],
            [[-2, -1, -2, -2, 2, 2], [-1, 0, 0, 2, 0, 2], [-2, 0, 1, -1, 2, 1], [0, 0, -1, 0, 1, -1]],
        ),
        (
            [[s * c for c in row] for s in (1, -1) for row in (
                [-2, -1, 1, 2, -2, 2], [-2, 0, -1, -2, -1, 0], [-1, -2, 2, 0, -2, 0],
                [-1, 1, 0, -2, -2, 0], [0, -1, -1, 2, 0, 1], [0, 0, -2, -1, 2, 2],
                [0, 0, -1, 2, 2, -2],
            )],
            [[-1, 1, 0, -2, -2, 0], [0, 1, 1, -2, 0, -1], [0, 0, -2, -1, 2, 2],
             [-2, -1, 1, 2, -2, 2], [0, 0, -1, 2, 2, -2]],
        ),
    ])
    def test_desk_scale_anti_search_fits_a_cap_of_100(self, capsys, monkeypatch, vertices, basis):
        # custom balls in R^6 on which the pairwise search ran past 10^4 branches
        monkeypatch.setattr(coapprox.coapproximation, "_ANTI_LP_CAP", 100)
        space = json.dumps({"type": "custom", "vertices": vertices})
        code, out = run(capsys, "classify", "--space", space, "--basis", json.dumps(basis))
        assert code == 0
        assert out["anti"] == "no"
        certificates = out["certificates"]
        x, y0 = ([F(c) for c in certificates[key]] for key in ("witness_x", "witness_y0"))
        ball, y = ca.make_custom(vertices=vertices), ca.subspace(basis)
        assert ca.coordinates(y, x) is None
        assert ca.is_best_coapprox(ball, y, x, y0)

    def test_output_too_long_for_str_is_one(self, capsys):
        # the norm is a 5000-digit integer, beyond int-to-str conversion
        a = "7" * 2500
        space = json.dumps({"type": "custom", "facets": [[a, 0], ["-" + a, 0], [0, 1], [0, -1]]})
        code, out = run(capsys, "norm", "--space", space, "--point", json.dumps([a, 0]))
        assert code == 1
        assert out["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("text", ["1e10000000", "1e-10000000"])
    def test_exponent_string_is_one_at_once(self, capsys, text):
        start = time.perf_counter()
        code, out = run(capsys, "norm", "--space", LINF3, "--point", json.dumps([text, 0, 0]))
        assert time.perf_counter() - start < 1
        assert code == 1
        assert "p/q" in out["error"]["message"]

    def test_engine_disagreement_is_three(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "bj_orthogonal_lambda_oracle", lambda sp, x, y: False)
        code, out = run(
            capsys, "bj", "--space", '{"type":"linf","n":2}',
            "--point", '[1,"1/2"]', "--point", "[0,1]", "--verify",
        )
        assert code == 3
        assert out["error"]["type"] == "VerifyDiscrepancy"

    def test_jy_route_disagreement_is_three(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "jy_set", lambda sp, y: ca.JYSet((), (), ()))
        code, out = run(
            capsys, "jy", "--space", prism_space_json(),
            "--basis", '[["7/8","1/8","1"],["7/8","-1/8","1"]]', "--verify",
        )
        assert code == 3
        assert out["error"]["type"] == "VerifyDiscrepancy"

    def test_classify_fast_path_disagreement_is_three(self, capsys, monkeypatch):
        lie = ca.LinfClassification(strongly_anti=False, failing_index=1, failing_clause="star")
        monkeypatch.setattr(coapprox.classification, "linf_classify", lambda rows: lie)
        code, out = run(capsys, "classify", "--space", LINF3, "--basis", WIDE, "--verify")
        assert code == 3
        assert out["error"]["type"] == "VerifyDiscrepancy"

    def test_classification_dimension_error_is_one(self, capsys):
        code, out = run(
            capsys, "classify",
            "--space", '{"type":"custom","vertices":[[1,1],[1,-1],[-1,1],[-1,-1]]}',
            "--basis", "[[1,0]]",
        )
        assert code == 1
        assert out["error"]["type"] == "DimensionOutOfRange"

    def test_eps_check_y0_outside_y_survives_optimized_mode(self):
        # python -O strips asserts; the y0 membership check must not be one
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        )}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "coapprox.cli", "eps-check", "--space", LINF3,
             "--basis", "[[1,0,0],[0,1,0]]", "--point", "[0,0,1]", "--y0", "[0,0,1]",
             "--epsilon", "1/2"],
            capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL, timeout=120,
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"]["type"] == "BasisMismatch"


class TestFormatting:
    def test_pretty_prints_with_indentation(self, capsys):
        code = cli.main(["norm", "--space", LINF3, "--point", "[3,-2,1]", "--pretty"])
        raw = capsys.readouterr().out
        assert code == 0 and "\n  " in raw

    def test_compact_by_default(self, capsys):
        code = cli.main(["norm", "--space", LINF3, "--point", "[3,-2,1]"])
        raw = capsys.readouterr().out
        assert code == 0 and "\n" not in raw.strip()

    def test_rationals_stay_exact_through_the_pipe(self, capsys):
        code, out = run(
            capsys, "defect", "--space", LINF3, "--basis", NARROW,
            "--point", '["5/3","1/7","2"]', "--y0", "[0,0,0]",
        )
        assert code == 0
        assert F(out["defect"]) == ca_defect_reference()


def ca_defect_reference():
    return ca.eps_coapprox_defect(
        ca.make_linf(3),
        ca.subspace([(1, 1, 2), (2, 2, 1)]),
        (F(5, 3), F(1, 7), F(2)),
        (0, 0, 0),
    )
