"""Command line interface: subcommands, document input, exit codes."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import coapprox.cli as cli

from conftest import prism_vertices

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
        assert out["region_systems"] >= 1

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

    def test_star_property(self, capsys):
        code, out = run(capsys, "star-property", "--basis", WIDE)
        assert code == 0
        assert [entry["i"] for entry in out["components"]] == [1, 2, 3]
        assert all(entry["holds"] for entry in out["components"])

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


class TestExitCodes:
    def test_malformed_json_is_one(self, capsys):
        code, out = run(capsys, "norm", "--space", "{", "--point", "[1,0]")
        assert code == 1 and "error" in out

    def test_float_literal_is_one(self, capsys):
        code, out = run(capsys, "norm", "--space", LINF3, "--point", "[0.5,0,0]")
        assert code == 1
        assert "float" in out["error"]["message"]

    def test_missing_argument_is_one(self, capsys):
        code, out = run(capsys, "smooth", "--space", LINF3)
        assert code == 1

    def test_unknown_command_is_one(self, capsys):
        code, _ = run(capsys, "no-such-command")
        assert code == 1

    def test_dimension_mismatch_is_one(self, capsys):
        code, out = run(capsys, "norm", "--space", LINF3, "--point", "[1,0]")
        assert code == 1

    def test_bool_in_vector_is_one(self, capsys):
        code, out = run(capsys, "norm", "--space", LINF3, "--point", "[true,0,0]")
        assert code == 1

    def test_budget_exhaustion_is_two(self, capsys):
        code, out = run(
            capsys, "best-coapprox", "--space", LINF3, "--basis", NARROW,
            "--point", "[1,-1,0]", "--budget", "1",
        )
        assert code == 2
        assert out["error"]["type"] == "BudgetExceeded"
        assert out["error"]["budget"] == 1
        assert out["error"]["required"] == 4

    def test_engine_disagreement_is_three(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "bj_orthogonal_lambda_oracle", lambda sp, x, y: False)
        code, out = run(
            capsys, "bj", "--space", '{"type":"linf","n":2}',
            "--point", '[1,"1/2"]', "--point", "[0,1]", "--verify",
        )
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
    import coapprox as ca

    return ca.eps_coapprox_defect(
        ca.make_linf(3),
        ca.subspace([(1, 1, 2), (2, 2, 1)]),
        (F(5, 3), F(1, 7), F(2)),
        (0, 0, 0),
    )
