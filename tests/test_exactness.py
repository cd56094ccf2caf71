"""Exactness lint: no module of the library can reach for floats, randomness or asserts.

Every decision is exact and deterministic, so a ``random`` import, a float
literal or a ``float(...)`` call anywhere under the package is a defect.  So
is an ``assert`` statement: ``python -O`` strips it, and a check that can
vanish lets a failed invariant answer silently, so checks raise
``Discrepancy`` instead.  A space clears its own representations to integers,
once: no module but ``spaces.py`` calls ``_cleared`` on a ``.dual_extreme``
or ``.vertices`` attribute.  There is one pivot kernel: no module but
``linalg.py`` calls ``_run_simplex`` or ``_pivot``; inside it the one
Bareiss step ``_pivot`` serves ``_reduce``'s elimination, the simplex and the
growing system's ``add``, and there is one phase one: only that ``add`` and
the second phase of ``lp_solve`` run the simplex.  Strict systems and search trees grow
that system directly, so only the lambda oracle of orthogonality calls
``lp_solve``.  An induced ball makes one conversion and one meet test, and
reads its incidences off its own product of vertices and rows: only the two
readers of a ball given by points (``symmetric_ball``, ``enumerate_faces``)
call ``_incidences``.
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


KERNEL = ("_run_simplex", "_pivot")


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
        "status, d = linalg._run_simplex(rows, basis, d)\n"
        "p = la._pivot(rows, 0, 1, d)\n"
        "e = pivot(rows)\n"
    )
    assert [v.split(": ", 1)[1] for v in _kernel_calls(bad)] == [
        "calls _run_simplex", "calls _pivot",
    ]


def _callers(path, callee):
    """The qualified names of the functions that call ``callee``, once per call."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name == callee:
                    yield owner
            yield from visit(child, owner)

    return sorted(visit(ast.parse(path.read_text(), filename=str(path)), ""))


def _simplex_callers(path):
    return _callers(path, "_run_simplex")


def test_one_phase_one():
    assert _simplex_callers(PACKAGE / "linalg.py") == ["_Growing.add", "lp_solve"]


def _defined(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_one_elimination_and_one_pivot():
    # _pivot serves ranks and linear systems through _reduce, and the condensed tableau
    assert [path.name for path in PACKAGE.rglob("*.py") if "_eliminate" in _defined(path)] == []
    linalg = PACKAGE / "linalg.py"
    assert _callers(linalg, "_pivot") == ["_Growing.add", "_reduce", "_run_simplex"]


def test_the_pivot_lint_names_each_caller(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def _reduce(rows):\n"
        "    return _pivot(rows, 0, 0, 1)\n"
        "def lp_solve(rows):\n"
        "    d = la._pivot(rows, 0, 0, 1)\n"
        "    return _pivot(rows, 0, 0, d)\n"
        "class _Growing:\n"
        "    def add(self):\n"
        "        return _pivot(self.rows, 0, 0, 1)\n"
        "def _eliminate(rows):\n"
        "    pass\n"
    )
    assert _callers(bad, "_pivot") == ["_Growing.add", "_reduce", "lp_solve", "lp_solve"]
    assert "_eliminate" in _defined(bad)


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


def _package_callers(callee):
    return [
        f"{path.stem}.{owner}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for owner in _callers(path, callee)
    ]


def test_only_the_lambda_oracle_solves_an_lp():
    # strict systems and search trees grow a _Growing system directly
    assert _package_callers("lp_solve") == ["coapproximation.bj_orthogonal_lambda_oracle"]


def test_the_lp_solve_lint_names_each_caller(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from coapprox import linalg as la\n"
        "def strict(rows):\n"
        "    return la.lp_solve(rows).status\n"
        "class Walk:\n"
        "    def leaf(self):\n"
        "        return lp_solve(self.problem, 'min')\n"
        "lp = lp_solve\n"
    )
    assert _callers(bad, "lp_solve") == ["Walk.leaf", "strict"]


def test_one_incidence_pass_per_ball():
    # an induced ball reads its incidences off its own vertex-row product
    assert _package_callers("_incidences") == [
        "polytope.enumerate_faces", "polytope.symmetric_ball",
    ]
    subspaces = PACKAGE / "subspaces.py"
    assert _callers(subspaces, "conv_facets") == ["induced_ball"]
    assert _callers(subspaces, "extreme_subset") == ["induced_ball"]


def test_the_incidence_lint_names_each_caller(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def induced_ball(space, y):\n"
        "    vertices = polytope.conv_facets(rows)\n"
        "    masks = _incidences(vertices, rows)\n"
        "    return extreme_subset(masks, len(rows)), conv_facets(vertices)\n"
        "class InducedBall:\n"
        "    def faces(self):\n"
        "        return _incidences(self.facet_rows, self.vertices)\n"
    )
    assert _callers(bad, "_incidences") == ["InducedBall.faces", "induced_ball"]
    assert _callers(bad, "conv_facets") == ["induced_ball", "induced_ball"]
    assert _callers(bad, "extreme_subset") == ["induced_ball"]
