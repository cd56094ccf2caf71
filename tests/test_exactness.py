"""Exactness lint: no module of the library can reach for floats, randomness or asserts.

Every decision is exact and deterministic, so a ``random`` import, a float
literal or a ``float(...)`` call anywhere under the package is a defect.  So
is an ``assert`` statement: ``python -O`` strips it, and a check that can
vanish lets a failed invariant answer silently, so checks raise
``Discrepancy`` instead.
"""

import ast
from pathlib import Path

import coapprox as ca

PACKAGE = Path(ca.__file__).resolve().parent


def _violations(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "random" for a in node.names):
            yield f"{where}: imports random"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "random":
            yield f"{where}: imports from random"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield f"{where}: float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield f"{where}: float(...) call"
        elif isinstance(node, ast.Assert):
            yield f"{where}: assert statement"


def test_no_floats_or_randomness_in_the_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 9
    assert [v for path in modules for v in _violations(path)] == []


def test_the_lint_sees_each_kind_of_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nfrom random import randint\nx = 0.5\ny = float(1)\nassert x\n")
    assert len(list(_violations(bad))) == 5
