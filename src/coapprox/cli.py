"""JSON command-line front end.

Every command reads exact rational data (integers or "p/q" strings; float
literals are rejected to keep all decisions exact) and emits a single JSON
object on stdout.  Fractions are serialized back as "p/q" strings so output
round-trips through the same parser.

Exit codes: 0 success, 1 malformed input or domain error, 2 search budget
exceeded, 3 cross-check discrepancy under --verify.

The request may also arrive on stdin as one JSON document with keys space,
basis, point, points, y0, epsilon, budget, seed, verify; stdin is read only
when neither --space nor --basis is given, and explicit flags win over the
document's fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .coapproximation import (
    bj_orthogonal,
    bj_orthogonal_lambda_oracle,
    eps_bj_orthogonal,
    eps_coapprox_defect,
    epsilon_value,
    is_anti_coproximinal,
    is_best_coapprox,
    is_strongly_anti_coproximinal,
    solve_best_coapprox,
)
from .errors import BudgetExceeded, CoapproxError
from .l1 import (
    cell_bound,
    l1_best_coapprox,
    l1_is_anti_coproximinal,
    minimal_norming_set,
    zero_set,
)
from .linf import linf_classify, star_property
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
from .subspaces import (
    Subspace,
    jy_set,
    jy_set_via_faces,
    require_coordinates,
    smooth_dense_in,
    subspace,
)


class Discrepancy(Exception):
    """Fast-path and generic-engine answers disagree under --verify."""


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
    return json.loads(text, parse_float=_reject_float)


def _rational(value) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"{value!r} is not an exact rational; use int or \"p/q\"")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"cannot read {value!r} as a rational number")


def _vector(value) -> tuple[Fraction, ...]:
    if not isinstance(value, list) or not value:
        raise ValueError("a point must be a nonempty JSON array of rationals")
    return tuple(_rational(x) for x in value)


def _matrix(value) -> tuple[tuple[Fraction, ...], ...]:
    if not isinstance(value, list) or not value:
        raise ValueError("a basis must be a nonempty JSON array of rows")
    return tuple(_vector(row) for row in value)


def _space(spec) -> PolyhedralSpace:
    if isinstance(spec, str):
        spec = _loads(spec)
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("space spec must be an object with a \"type\" field")
    kind = spec["type"]
    if kind == "linf":
        return make_linf(int(spec["n"]))
    if kind == "l1":
        return make_l1(int(spec["n"]))
    if kind == "custom":
        if "vertices" in spec:
            return make_custom(vertices=_matrix(spec["vertices"]))
        if "facets" in spec:
            return make_custom(facets=_matrix(spec["facets"]))
        raise ValueError("custom space spec needs \"vertices\" or \"facets\"")
    raise ValueError(f"unknown space type {kind!r}")


def _encode(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(_encode(v) for v in value)
    return value


@dataclass
class Request:
    """Parsed and merged inputs for one command."""

    space: PolyhedralSpace | None = None
    basis: tuple | None = None
    points: tuple = ()
    y0: tuple | None = None
    epsilon: Fraction | None = None
    budget: int = 10**6
    seed: int = 0
    verify: bool = False

    def need_space(self) -> PolyhedralSpace:
        if self.space is None:
            raise ValueError("this command needs --space")
        return self.space

    def need_basis(self) -> tuple:
        if self.basis is None:
            raise ValueError("this command needs --basis")
        return self.basis

    def need_subspace(self) -> Subspace:
        return subspace(self.need_basis())

    def need_point(self, k: int = 0) -> tuple:
        if len(self.points) <= k:
            raise ValueError(f"this command needs {k + 1} --point argument(s)")
        return self.points[k]

    def need_y0(self) -> tuple:
        if self.y0 is None:
            raise ValueError("this command needs --y0")
        return self.y0

    def need_epsilon(self) -> Fraction:
        if self.epsilon is None:
            raise ValueError("this command needs --epsilon")
        return self.epsilon


def _gather(args) -> Request:
    doc = {}
    if args.space is None and args.basis is None and not sys.stdin.isatty():
        text = sys.stdin.read().strip()
        if text:
            doc = _loads(text)
            if not isinstance(doc, dict):
                raise ValueError("stdin request must be a JSON object")

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
        req.y0 = _vector(y0 if isinstance(y0, list) else _loads(y0))
    eps = args.epsilon if args.epsilon is not None else doc.get("epsilon")
    if eps is not None:
        req.epsilon = epsilon_value(_rational(eps))
    budget = args.budget if args.budget is not None else doc.get("budget")
    if budget is not None:
        req.budget = int(budget)
    seed = args.seed if args.seed is not None else doc.get("seed")
    if seed is not None:
        req.seed = int(seed)
    req.verify = bool(args.verify or doc.get("verify", False))
    return req


def _cmd_norm(req: Request) -> dict:
    return {"norm": norm(req.need_space(), req.need_point())}


def _cmd_jset(req: Request) -> dict:
    supp = support_set(req.need_space(), req.need_point())
    return {"indices": list(supp.indices), "functionals": supp.functionals}


def _cmd_smooth(req: Request) -> dict:
    return {"smooth": is_smooth(req.need_space(), req.need_point())}


def _cmd_bj(req: Request) -> dict:
    space = req.need_space()
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
    eps = req.need_epsilon()
    answer = eps_bj_orthogonal(req.need_space(), req.need_point(0), req.need_point(1), eps)
    return {"orthogonal": answer, "epsilon": eps}


def _cmd_best_coapprox(req: Request) -> dict:
    space = req.need_space()
    y = req.need_subspace()
    x = req.need_point()
    result = solve_best_coapprox(space, y, x, budget=req.budget)
    out = {"exists": result.exists}
    if result.exists:
        out["y0"] = result.y0
        out["alpha"] = result.alpha
        out["region_systems"] = len(result.region)
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
    eps = req.need_epsilon()
    space, y = req.need_space(), req.need_subspace()
    x, y0 = req.need_point(), req.need_y0()
    if x == y0:
        require_coordinates(y, y0, "y0")
        return {"is_eps_best": True, "epsilon": eps, "defect": Fraction(0)}
    defect = eps_coapprox_defect(space, y, x, y0)
    return {"is_eps_best": defect <= eps, "epsilon": eps, "defect": defect}


def _cmd_defect(req: Request) -> dict:
    defect = eps_coapprox_defect(
        req.need_space(), req.need_subspace(), req.need_point(), req.need_y0()
    )
    return {"defect": defect}


def _classify_linf(req: Request) -> dict:
    verdict = linf_classify(req.need_basis())
    answer = "yes" if verdict.strongly_anti else "no"
    certificates = {}
    if not verdict.strongly_anti:
        certificates = {
            "failing_index": verdict.failing_index,
            "failing_clause": verdict.failing_clause,
            "reason": verdict.reason,
        }
    else:
        certificates = {
            "star_witnesses": {str(i): r.witness for i, r in verdict.star_results}
        }
    return {
        "anti": answer,
        "strongly_anti": answer,
        "engine": "linf-fast",
        "certificates": certificates,
    }


def _classify_l1(req: Request) -> dict:
    basis = req.need_basis()
    m, n = len(basis), len(basis[0])
    anti = l1_is_anti_coproximinal(basis)
    certificates: dict = {"bound": cell_bound(n, m), "sign_vectors": 2**n}
    if anti.status == "no":
        certificates["reason"] = anti.reason
        if anti.witness_x is not None:
            certificates["witness_x"] = anti.witness_x
    if anti.norming is not None:
        certificates["norming_size"] = anti.norming.size
        certificates["norming_rank"] = anti.rank
    return {
        "anti": anti.status,
        "strongly_anti": "no",
        "engine": "l1-fast",
        "certificates": certificates,
    }


def _classify_generic(req: Request, space: PolyhedralSpace) -> dict:
    y = req.need_subspace()
    anti = is_anti_coproximinal(space, y, seed=req.seed)
    strong = is_strongly_anti_coproximinal(space, y)
    certificates: dict = {
        "jy_size": strong.jy.size,
        "jy_indices": list(strong.jy.indices),
        "rank": anti.rank,
        "smooth_dense": anti.smooth_dense,
    }
    if anti.status == "no":
        certificates["witness_x"] = anti.witness_x
        certificates["witness_y0"] = anti.witness_y0
    if strong.status == "no":
        certificates["missed_facet"] = strong.missed
        certificates["interior_point"] = strong.interior_point
        certificates["epsilon0"] = strong.epsilon0
    return {
        "anti": anti.status,
        "strongly_anti": strong.status,
        "engine": "generic",
        "certificates": certificates,
    }


def _cmd_classify(req: Request) -> dict:
    space = req.need_space()
    basis = req.need_basis()
    if any(len(row) != space.dim for row in basis):
        raise ValueError("basis rows do not match the space dimension")
    if space.kind == "linf":
        out = _classify_linf(req)
    elif space.kind == "l1":
        out = _classify_l1(req)
    else:
        out = _classify_generic(req, space)
    if req.verify and space.kind in ("linf", "l1"):
        generic = _classify_generic(req, space)
        out["generic"] = {"anti": generic["anti"], "strongly_anti": generic["strongly_anti"]}
        if generic["strongly_anti"] != out["strongly_anti"]:
            raise Discrepancy(
                f"fast path says strongly_anti={out['strongly_anti']}, "
                f"generic says {generic['strongly_anti']}"
            )
        if generic["anti"] != "undecided" and generic["anti"] != out["anti"]:
            raise Discrepancy(
                f"fast path says anti={out['anti']}, generic says {generic['anti']}"
            )
    return out


def _cmd_star_property(req: Request) -> dict:
    basis = req.need_basis()
    n = len(basis[0])
    rows = []
    for i in range(1, n + 1):
        result = star_property(basis, i)
        entry: dict = {"i": i, "holds": result.holds}
        if result.witness is not None:
            entry["witness"] = result.witness
        rows.append(entry)
    return {"components": rows}


def _cmd_norming_set(req: Request) -> dict:
    basis = req.need_basis()
    norming = minimal_norming_set(basis)
    return {
        "zero_set": sorted(zero_set(basis)),
        "size": norming.size,
        "signs": norming.signs,
        "witnesses": norming.witnesses,
    }


def _cmd_facets(req: Request) -> dict:
    space = req.need_space()
    return {
        "dim": space.dim,
        "vertices": space.vertices,
        "facets": space.dual_extreme,
        "census": {str(d): c for d, c in sorted(face_census(space.vrep, space.hrep).items())},
    }


def _cmd_jy(req: Request) -> dict:
    space, y = req.need_space(), req.need_subspace()
    jy = jy_set(space, y)
    out = {
        "indices": list(jy.indices),
        "functionals": jy.functionals,
        "witnesses": jy.witnesses,
        "size": jy.size,
        "smooth_dense": smooth_dense_in(space, y),
    }
    if req.verify:
        via_faces = jy_set_via_faces(space, y)
        if via_faces.indices != jy.indices:
            raise Discrepancy(
                f"LP route found indices {list(jy.indices)}, "
                f"face route found {list(via_faces.indices)}"
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
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--space", help='space spec JSON, e.g. {"type":"linf","n":3}')
        p.add_argument("--basis", help="subspace basis rows as a JSON array")
        p.add_argument("--point", action="append", help="point as a JSON array (repeatable)")
        p.add_argument("--y0", help="candidate point of the subspace as a JSON array")
        p.add_argument("--epsilon", help='rational in [0,1), e.g. "1/2"')
        p.add_argument("--budget", type=int, help="witness-system cap for best-coapprox")
        p.add_argument("--seed", type=int, help="seed for randomized sub-searches")
        p.add_argument("--verify", action="store_true", help="cross-check against a second route")
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
    return parser


def _emit(payload: dict, pretty: bool) -> None:
    body = _encode(payload)
    if pretty:
        print(json.dumps(body, indent=2, sort_keys=True))
    else:
        print(json.dumps(body, sort_keys=True))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except ValueError as exc:
        _emit({"error": {"type": "UsageError", "message": str(exc)}}, False)
        return 1
    pretty = bool(args.pretty)
    try:
        request = _gather(args)
        payload = _COMMANDS[args.command](request)
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
    _emit(payload, pretty)
    return 0


if __name__ == "__main__":
    sys.exit(main())
