"""Exactness lint: no module of the library can reach for floats, randomness or asserts.

Every decision is exact and deterministic, so a ``random`` import, a float
literal or a ``float(...)`` call anywhere under the package is a defect.  So
is an ``assert`` statement: ``python -O`` strips it, and a check that can
vanish lets a failed invariant answer silently, so checks raise
``Discrepancy`` instead.  A space clears its own representations to integers,
once: no module but ``spaces.py`` calls ``_cleared`` on a ``.dual_extreme``
or ``.vertices`` attribute.  There is one pivot kernel: no module but
``linalg.py`` calls ``_eliminate``, ``_run_simplex`` or ``_cost_row``, and
one phase one: inside it, only the growing system's ``add`` and the second
phase of ``lp_solve`` run the simplex.
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


def _clearings(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name == "_cleared" and any(
            isinstance(arg, ast.Attribute) and arg.attr in ("dual_extreme", "vertices")
            for arg in node.args
        ):
            yield f"{path.name}:{node.lineno}: clears {ast.unparse(node.args[0])}"


def test_only_the_space_clears_its_representations():
    modules = sorted(path for path in PACKAGE.rglob("*.py") if path.name != "spaces.py")
    assert len(modules) >= 8
    assert [v for path in modules for v in _clearings(path)] == []


def test_the_clearing_lint_sees_each_call(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "a = _cleared(space.dual_extreme)\n"
        "b = linalg._cleared(ball.vertices)\n"
        "c = _cleared(points)\n"
        "d = _cleared([space.vertices[0]])\n"
    )
    assert [v.split(": ", 1)[1] for v in _clearings(bad)] == [
        "clears space.dual_extreme", "clears ball.vertices",
    ]


KERNEL = ("_eliminate", "_run_simplex", "_cost_row")


def _kernel_calls(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in KERNEL:
                yield f"{path.name}:{node.lineno}: calls {name}"


def test_only_linalg_pivots():
    modules = sorted(path for path in PACKAGE.rglob("*.py") if path.name != "linalg.py")
    assert len(modules) >= 8
    assert [v for path in modules for v in _kernel_calls(path)] == []
    assert list(_kernel_calls(PACKAGE / "linalg.py"))


def test_the_kernel_lint_sees_each_call(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "d = _eliminate(rows, 0, 1, d)\n"
        "status, d = linalg._run_simplex(rows, basis, d)\n"
        "cost = la._cost_row(rows, basis, cost, d)\n"
        "e = eliminate(rows)\n"
    )
    assert [v.split(": ", 1)[1] for v in _kernel_calls(bad)] == [
        "calls _eliminate", "calls _run_simplex", "calls _cost_row",
    ]


def _simplex_callers(path):
    """The qualified names of the functions that call ``_run_simplex``, once per call."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name == "_run_simplex":
                    yield owner
            yield from visit(child, owner)

    return sorted(visit(ast.parse(path.read_text(), filename=str(path)), ""))


def test_one_phase_one():
    assert _simplex_callers(PACKAGE / "linalg.py") == ["_Growing.add", "lp_solve"]


def test_the_phase_one_lint_names_each_caller(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def solve(rows):\n"
        "    status, d = _run_simplex(rows, [], 1)\n"
        "    return la._run_simplex(rows, [], d)\n"
        "class Tableau:\n"
        "    def pivot(self):\n"
        "        def inner():\n"
        "            return _run_simplex(self.rows, [], 1)\n"
        "        return inner()\n"
    )
    assert _simplex_callers(bad) == ["Tableau.pivot.inner", "solve", "solve"]
