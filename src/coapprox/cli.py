"""JSON command-line front end.

Every command reads exact rational data (integers or "p/q" strings; float
literals are rejected to keep all decisions exact) and emits a single JSON
object on stdout.  Fractions are serialized back as "p/q" strings so output
round-trips through the same parser.

``classify`` only serializes the library's ``classify``, which picks the
engine and runs the --verify cross-check; the --verify cross-checks of bj,
best-coapprox and jy are made here.

Exit codes: 0 success, 1 malformed input or domain error, 2 the
anti-coproximinality search of classify exceeded its cap of tried branches, 3 a
cross-check under --verify or a certificate recheck failed.

The request may also arrive on stdin as one JSON document with keys space,
basis, point, points, y0, epsilon, verify (any other key, point with
points, or a verify that is not a JSON boolean is an error); stdin is read
only when neither --space nor --basis is given, and explicit flags win over
the document's fields.  Space specs refuse keys of other types as well.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .classification import classify
from .coapproximation import (
    bj_orthogonal,
    bj_orthogonal_lambda_oracle,
    eps_bj_orthogonal,
    eps_coapprox_defect,
    epsilon_value,
    is_best_coapprox,
    solve_best_coapprox,
)
from .errors import BudgetExceeded, CoapproxError, DegenerateQuery, Discrepancy
from .l1 import l1_best_coapprox, minimal_norming_set, zero_set
from .linalg import vec
from .linf import _star, component_table
from .polytope import face_census
from .spaces import (
    PolyhedralSpace,
    is_smooth,
    make_custom,
    make_l1,
    make_linf,
    norm,
    support_set,
)
from .subspaces import Subspace, jy_set, jy_set_via_faces, smooth_dense_in, subspace


class _Parser(argparse.ArgumentParser):
    """Reports usage problems as exit-1 JSON instead of argparse's exit 2.

    Exit code 2 is reserved for exceeded search budgets.
    """

    def error(self, message):
        raise ValueError(message)


def _reject_float(text: str):
    raise ValueError(
        f"float literal {text!r} is not exact; write rationals as \"p/q\" strings"
    )


def _loads(text: str):
    try:
        return json.loads(text, parse_float=_reject_float)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _vector(value, name: str = "a point") -> tuple[Fraction, ...]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{name} must be a nonempty JSON array of rationals")
    return vec(value)


def _matrix(value, name: str = "a basis", row: str = "a basis row") -> tuple[tuple, ...]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{name} must be a nonempty JSON array of rows")
    return tuple(_vector(r, row) for r in value)


def _space(spec) -> PolyhedralSpace:
    if isinstance(spec, str):
        spec = _loads(spec)
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("space spec must be an object with a \"type\" field")
    kind = spec["type"]
    if kind not in ("linf", "l1", "custom"):
        raise ValueError(f"unknown space type {kind!r}")
    fields = set(spec) - {"type"}
    unknown = fields - ({"vertices", "facets"} if kind == "custom" else {"n"})
    if unknown:
        raise ValueError(f"unknown space key(s): {', '.join(sorted(unknown))}")
    if kind != "custom":
        if "n" not in spec:
            raise ValueError(f"{kind} space spec needs \"n\"")
        n = spec["n"]
        if type(n) is not int:
            raise ValueError(f"{kind} space spec needs \"n\" as a JSON integer, got {json.dumps(n)}")
        return (make_linf if kind == "linf" else make_l1)(n)
    if len(fields) != 1:
        raise ValueError("custom space spec needs exactly one of \"vertices\" and \"facets\"")
    (key,) = fields
    return make_custom(**{key: _matrix(spec[key], key, f"a row of {key}")})


@dataclass
class Request:
    """Parsed and merged inputs for one command."""

    space: PolyhedralSpace | None = None
    basis: tuple | None = None
    points: tuple = ()
    y0: tuple | None = None
    epsilon: Fraction | None = None
    verify: bool = False

    def need(self, key: str):
        value = getattr(self, key)
        if value is None:
            raise ValueError(f"this command needs --{key}")
        return value

    def need_subspace(self) -> Subspace:
        return subspace(self.need("basis"))

    def _fits_space(self, label: str, vector: tuple) -> tuple:
        if self.space is not None and len(vector) != self.space.dim:
            raise ValueError(f"{label} has dimension {len(vector)}, space has {self.space.dim}")
        return vector

    def need_point(self, k: int = 0) -> tuple:
        if len(self.points) <= k:
            raise ValueError(f"this command needs {k + 1} --point argument(s)")
        return self._fits_space("point", self.points[k])

    def need_y0(self) -> tuple:
        return self._fits_space("y0", self.need("y0"))


def _gather(args) -> Request:
    doc = {}
    if args.space is None and args.basis is None and not sys.stdin.isatty():
        text = sys.stdin.read().strip()
        if text:
            doc = _loads(text)
            if not isinstance(doc, dict):
                raise ValueError("stdin request must be a JSON object")
            unknown = set(doc) - {"space", "basis", "point", "points", "y0", "epsilon", "verify"}
            if unknown:
                raise ValueError(f"unknown request key(s): {', '.join(sorted(unknown))}")
            if "point" in doc and "points" in doc:
                raise ValueError("request takes \"point\" or \"points\", not both")
            if not isinstance(doc.get("verify", False), bool):
                raise ValueError("request key \"verify\" must be true or false")

    req = Request()
    space_spec = args.space if args.space is not None else doc.get("space")
    if space_spec is not None:
        req.space = _space(space_spec)
    basis = args.basis if args.basis is not None else doc.get("basis")
    if basis is not None:
        req.basis = _matrix(basis if isinstance(basis, list) else _loads(basis))

    pts = []
    if args.point:
        pts = [_vector(_loads(p)) for p in args.point]
    elif "points" in doc:
        pts = [_vector(p) for p in doc["points"]]
    elif "point" in doc:
        pts = [_vector(doc["point"])]
    req.points = tuple(pts)

    y0 = args.y0 if args.y0 is not None else doc.get("y0")
    if y0 is not None:
        req.y0 = _vector(y0 if isinstance(y0, list) else _loads(y0), "y0")
    eps = args.epsilon if args.epsilon is not None else doc.get("epsilon")
    if eps is not None:
        req.epsilon = epsilon_value(eps)
    req.verify = args.verify or doc.get("verify", False)
    return req


def _cmd_norm(req: Request) -> dict:
    return {"norm": norm(req.need("space"), req.need_point())}


def _cmd_jset(req: Request) -> dict:
    supp = support_set(req.need("space"), req.need_point())
    return {"indices": list(supp.indices), "functionals": supp.functionals}


def _cmd_smooth(req: Request) -> dict:
    return {"smooth": is_smooth(req.need("space"), req.need_point())}


def _cmd_bj(req: Request) -> dict:
    space = req.need("space")
    x, y = req.need_point(0), req.need_point(1)
    answer = bj_orthogonal(space, x, y)
    out = {"orthogonal": answer}
    if req.verify:
        oracle = bj_orthogonal_lambda_oracle(space, x, y)
        out["oracle"] = oracle
        if oracle != answer:
            raise Discrepancy(f"support-set route says {answer}, oracle says {oracle}")
    return out


def _cmd_eps_bj(req: Request) -> dict:
    eps = req.need("epsilon")
    answer = eps_bj_orthogonal(req.need("space"), req.need_point(0), req.need_point(1), eps)
    return {"orthogonal": answer, "epsilon": eps}


def _cmd_best_coapprox(req: Request) -> dict:
    space = req.need("space")
    y = req.need_subspace()
    x = req.need_point()
    result = solve_best_coapprox(space, y, x)
    out = {"exists": result.exists}
    if result.exists:
        out["y0"] = result.y0
        out["alpha"] = result.alpha
    else:
        out["failed_face"] = result.failed_face
    if req.verify:
        if result.exists and not is_best_coapprox(space, y, x, result.y0):
            raise Discrepancy("reported witness fails the face-wise test")
        if space.kind == "l1" and not zero_set(y.basis):
            fast = l1_best_coapprox(y.basis, x)
            out["l1_exists"] = fast.exists
            if fast.exists != result.exists:
                raise Discrepancy(
                    f"norming-set route says exists={fast.exists}, generic says {result.exists}"
                )
    return out


def _cmd_eps_check(req: Request) -> dict:
    eps = req.need("epsilon")
    space, y = req.need("space"), req.need_subspace()
    x, y0 = req.need_point(), req.need_y0()
    try:
        defect = eps_coapprox_defect(space, y, x, y0)
    except DegenerateQuery:  # x = y0 is its own best coapproximation
        defect = Fraction(0)
    return {"is_eps_best": defect <= eps, "epsilon": eps, "defect": defect}


def _cmd_defect(req: Request) -> dict:
    defect = eps_coapprox_defect(
        req.need("space"), req.need_subspace(), req.need_point(), req.need_y0()
    )
    return {"defect": defect}


def _cmd_classify(req: Request) -> dict:
    result = classify(req.need("space"), req.need_subspace(), verify=req.verify)
    out = {"anti": result.anti, "strongly_anti": result.strongly_anti,
           "engine": result.engine, "certificates": result.certificates}
    if result.generic is not None:
        out["generic"] = {"anti": result.generic.anti, "strongly_anti": result.generic.strongly_anti}
    return out


def _cmd_star_property(req: Request) -> dict:
    table = component_table(req.need("basis"))
    rows = []
    for i in range(1, table.n + 1):
        result = _star(table, i)
        entry: dict = {"i": i, "holds": result.holds}
        if result.witness is not None:
            entry["witness"] = result.witness
        rows.append(entry)
    return {"components": rows}


def _cmd_norming_set(req: Request) -> dict:
    basis = req.need("basis")
    norming = minimal_norming_set(basis)
    return {
        "zero_set": sorted(zero_set(basis)),
        "size": norming.size,
        "signs": norming.signs,
        "witnesses": norming.witnesses,
    }


def _cmd_facets(req: Request) -> dict:
    space = req.need("space")
    return {
        "dim": space.dim,
        "vertices": space.vertices,
        "facets": space.dual_extreme,
        "census": {
            str(d): c for d, c in sorted(face_census(space.vertices, space.dual_extreme).items())
        },
    }


def _cmd_jy(req: Request) -> dict:
    space, y = req.need("space"), req.need_subspace()
    jy = jy_set_via_faces(space, y)
    out = {
        "indices": list(jy.indices),
        "functionals": jy.functionals,
        "witnesses": jy.witnesses,
        "size": jy.size,
        "smooth_dense": smooth_dense_in(space, y),
    }
    if req.verify:
        oracle = jy_set(space, y)
        if oracle.indices != jy.indices:
            raise Discrepancy(
                f"face route found indices {list(jy.indices)}, "
                f"LP route found {list(oracle.indices)}"
            )
    return out


_COMMANDS = {
    "norm": _cmd_norm,
    "jset": _cmd_jset,
    "smooth": _cmd_smooth,
    "bj": _cmd_bj,
    "eps-bj": _cmd_eps_bj,
    "best-coapprox": _cmd_best_coapprox,
    "eps-check": _cmd_eps_check,
    "defect": _cmd_defect,
    "classify": _cmd_classify,
    "star-property": _cmd_star_property,
    "norming-set": _cmd_norming_set,
    "facets": _cmd_facets,
    "jy": _cmd_jy,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coapprox",
        description="Exact decisions about best coapproximations in polyhedral normed spaces.",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--space", help='space spec JSON, e.g. {"type":"linf","n":3}')
    parser.add_argument("--basis", help="subspace basis rows as a JSON array")
    parser.add_argument("--point", action="append", help="point as a JSON array (repeatable)")
    parser.add_argument("--y0", help="candidate point of the subspace as a JSON array")
    parser.add_argument("--epsilon", help='rational in [0,1), e.g. "1/2"')
    parser.add_argument("--verify", action="store_true", help="cross-check against a second route")
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    return parser


def _emit(payload: dict, pretty: bool) -> None:
    # every payload value is JSON-native or a Fraction, written as "p/q"
    print(json.dumps(payload, indent=2 if pretty else None, sort_keys=True, default=str))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except ValueError as exc:
        _emit({"error": {"type": "UsageError", "message": str(exc)}}, False)
        return 1
    pretty = bool(args.pretty)
    try:
        request = _gather(args)
        _emit(_COMMANDS[args.command](request), pretty)
        return 0
    except BudgetExceeded as exc:
        _emit({"error": {"type": "BudgetExceeded", "message": str(exc),
                         "budget": exc.budget, "required": exc.required}}, pretty)
        return 2
    except Discrepancy as exc:
        _emit({"error": {"type": "VerifyDiscrepancy", "message": str(exc)}}, pretty)
        return 3
    except (CoapproxError, ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, pretty)
        return 1


if __name__ == "__main__":
    sys.exit(main())
