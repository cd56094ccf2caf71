"""The four workloads: set-up, the timed question, its verdict and its check.

Each workload is a closed loop with one client: the runner asks the next
question only after the previous verdict arrived.  ``ask`` is the only timed
call.  ``check`` runs right after it, outside the timed interval, and returns
an error message for a wrong verdict.  A question *fails* (as opposed to
being wrong) when ``ask`` raises or the verdict is "undecided".
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from math import comb
from pathlib import Path

import coapprox as ca
from coapprox.linalg import dot

import gen

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"


def _in_y(y, p) -> bool:
    return ca.coordinates(y, p) is not None


def _smooth_unit(space, g_index: int, w) -> bool:
    """w has norm one and g is the only extreme functional attaining it."""
    values = [dot(h, w) for h in space.dual_extreme]
    return values[g_index] == 1 and all(v < 1 for i, v in enumerate(values) if i != g_index)


def _check_jy(space, y, jy) -> str | None:
    for i, w in zip(jy.indices, jy.witnesses):
        if not _in_y(y, w) or not _smooth_unit(space, i, w):
            return f"J_Y witness for functional {i} does not recheck"
    return None


def _check_anti(space, y, anti) -> str | None:
    if anti.status == "yes":
        if ca.rank(anti.jy.functionals) != space.dim:
            return "anti=yes but J_Y does not span"
        return _check_jy(space, y, anti.jy)
    if anti.status == "no":
        x, y0 = anti.witness_x, anti.witness_y0
        if _in_y(y, x) or not _in_y(y, y0) or not ca.is_best_coapprox(space, y, x, y0):
            return "anti=no witness does not recheck"
    return None


def _check_strong(space, y, strong) -> str | None:
    if strong.status == "yes":
        if strong.jy.size != len(space.dual_extreme):
            return "strong=yes but J_Y misses a facet"
        return _check_jy(space, y, strong.jy)
    g, p = strong.missed, strong.interior_point
    gi = space.dual_extreme.index(g)
    if gi in strong.jy.indices or _in_y(y, p) or not _smooth_unit(space, gi, p):
        return "strong=no certificate does not recheck"
    neg_g = tuple(-c for c in g)
    eps0 = max(abs(dot(h, p)) for h in space.dual_extreme if h != g and h != neg_g)
    if eps0 != strong.epsilon0 or not eps0 < 1:
        return "strong=no epsilon0 does not recheck"
    return None


def bj_by_norms(space, x, y) -> bool:
    """Birkhoff-James orthogonality from its definition, ||x + t y|| >= ||x|| for all t.

    t -> ||x + t y|| is convex, and for |t| <= d, with d small enough that no
    functional outside J(x) can overtake one inside it, it is linear on each
    side of 0.  So the two points t = +-d decide the whole line.
    """
    x, y = tuple(x), tuple(y)
    values = sorted({dot(g, x) for g in space.dual_extreme}, reverse=True)
    reach = max(abs(dot(g, y)) for g in space.dual_extreme)
    if reach == 0:
        return True
    gap = values[0] - values[1] if len(values) > 1 else 1
    d = gap / (2 * reach)
    nx = ca.norm(space, x)
    return all(ca.norm(space, tuple(a + t * b for a, b in zip(x, y))) >= nx for t in (d, -d))


def _family_space(kind: str, n: int):
    return ca.make_linf(n) if kind == "linf" else ca.make_l1(n)


class PointQueries:
    """Warm path: many seeded points against fixed, pre-built (space, Y) pairs."""

    name = "point_queries"
    cycle = len(gen.PAIRS) * len(gen.POINT_KINDS)

    def setup(self, seed: int) -> None:
        prism = ca.make_custom(vertices=gen.PRISM_VERTICES)
        self.pairs = []
        for _, kind, n, rows in gen.PAIRS:
            space = prism if kind == "prism" else _family_space(kind, n)
            y = ca.subspace(rows)
            ca.induced_ball(space, y).faces
            self.pairs.append((space, y))
        self.norming = {}  # sum-norm pair -> its minimal norming set, for the checks
        self.questions = gen.point_questions(seed)
        warm = gen.point_questions(seed, stream="warm-up")
        for _ in range(len(gen.PAIRS) * len(gen.POINT_KINDS)):
            self.ask(next(warm))

    def reset(self) -> None:
        pass

    def ask(self, q):
        space, y = self.pairs[q.pair]
        if q.kind == "bj":
            return ca.bj_orthogonal(space, q.x, q.y)
        if q.kind == "eps_bj":
            return ca.eps_bj_orthogonal(space, q.x, q.y, q.eps)
        if q.kind == "defect":
            return ca.eps_coapprox_defect(space, y, q.x, q.y)
        if q.kind == "is_best":
            return ca.is_best_coapprox(space, y, q.x, q.y)
        return ca.solve_best_coapprox(space, y, q.x)

    def stratum(self, q) -> str:
        return q.kind

    def verdict(self, q, answer) -> str:
        if q.kind == "solve":
            return f"exists={answer.exists}"
        return str(answer)

    def check(self, q, answer) -> str | None:
        space, y = self.pairs[q.pair]
        known = q.pair == 0 and q.y == q.x[:2] + (0,)  # flat prism section, y0 = (x1, x2, 0)
        if q.kind == "bj":
            # the lambda-LP oracle costs up to 150 ms here against 0.2 ms for
            # bj; the benchmark's tests hold this check to that oracle
            if answer != bj_by_norms(space, q.x, q.y):
                return "bj disagrees with the definition of orthogonality"
        elif q.kind == "eps_bj":
            bj = ca.bj_orthogonal(space, q.x, q.y)
            if ca.eps_bj_orthogonal(space, q.x, q.y, 0) != bj or (bj and not answer):
                return "eps_bj is inconsistent with bj"
        elif q.kind == "defect":
            if not 0 <= answer <= 1 or (answer == 0) != ca.is_best_coapprox(space, y, q.x, q.y):
                return "defect 0 does not match is_best_coapprox"
            if known and answer != 0:
                return "flat prism section: (x1, x2, 0) has nonzero defect"
        elif q.kind == "is_best":
            if answer != (ca.eps_coapprox_defect(space, y, q.x, q.y) == 0) or (known and not answer):
                return "is_best_coapprox does not match a zero defect"
        else:
            if answer.exists and (not _in_y(y, answer.y0) or not ca.is_best_coapprox(space, y, q.x, answer.y0)):
                return "solver witness y0 is not a best coapproximation"
            if q.pair == 0 and answer.y0 != q.x[:2] + (0,):
                return "flat prism section: solver did not return (x1, x2, 0)"
            if space.kind == "l1":
                # sum-norm route: y0 is best iff <y0, s> = <x, s> on the norming set
                if q.pair not in self.norming:
                    self.norming[q.pair] = ca.minimal_norming_set(y.basis)
                reps = self.norming[q.pair].representatives
                system = tuple(tuple(dot(row, s) for row in y.basis) for s in reps)
                rhs = tuple(dot(q.x, s) for s in reps)
                if (ca.solve_linear(system, rhs).kind != "inconsistent") != answer.exists:
                    return "solver existence disagrees with the norming-set system"
        return None


class ClassifyGeneric:
    """Cold generic engine: a fresh span per question, so induced_ball misses."""

    name = "classify_generic"
    cycle = gen.POOL_CYCLES * len(gen.SPAN_SCHEDULE) * (gen.CUSTOM_EVERY + 1) // gen.CUSTOM_EVERY

    def setup(self, seed: int) -> None:
        warnings.simplefilter("ignore", UserWarning)  # dropped redundant points
        self.questions = gen.generic_questions(seed)
        self.ask(next(gen.spans(seed + 1)))  # one question off the record

    def reset(self) -> None:
        ca.induced_ball.cache_clear()

    def ask(self, q):
        if q.kind == "custom":
            space = ca.make_custom(vertices=q.points)
        else:
            space = _family_space(q.kind, q.n)
        y = ca.subspace(q.rows)
        return space, y, ca.is_anti_coproximinal(space, y), ca.is_strongly_anti_coproximinal(space, y)

    def stratum(self, q) -> str:
        return f"{q.kind} n={q.n}"

    def verdict(self, q, answer) -> str:
        return f"anti={answer[2].status} strong={answer[3].status}"

    def check(self, q, answer) -> str | None:
        space, y, anti, strong = answer
        if q.kind == "l1" and strong.status != "no":
            return "a sum-norm subspace was called strongly anti-coproximinal"
        if strong.status == "yes" and anti.status != "yes":
            return "strong=yes without anti=yes"
        return _check_anti(space, y, anti) or _check_strong(space, y, strong)


class ClassifyFast:
    """The max-norm and sum-norm fast paths on the generic workload's spans."""

    name = "classify_fast"
    cycle = gen.POOL_CYCLES * len(gen.SPAN_SCHEDULE)

    def setup(self, seed: int) -> None:
        self.questions = gen.spans(seed)
        self.ask(next(gen.spans(seed + 1)))

    def reset(self) -> None:
        ca.induced_ball.cache_clear()

    def ask(self, q):
        if q.kind == "linf":
            return ca.linf_classify(q.rows)
        anti = ca.l1_is_anti_coproximinal(q.rows)
        # the norming set, hence the fast solver, is undefined on a zero set
        best = None if anti.reason == "zero-set" else ca.l1_best_coapprox(q.rows, q.point)
        return anti, best

    def stratum(self, q) -> str:
        return f"{q.kind} n={q.n}"

    def verdict(self, q, answer) -> str:
        if q.kind == "linf":
            return f"strong={answer.strongly_anti} clause={answer.failing_clause}@{answer.failing_index}"
        anti, best = answer
        return f"anti={anti.status} reason={anti.reason} exists={best and best.exists}"

    def check(self, q, answer) -> str | None:
        space, y = _family_space(q.kind, q.n), ca.subspace(q.rows)
        comps = tuple(zip(*y.basis))
        generic_strong = ca.is_strongly_anti_coproximinal(space, y)
        if q.kind == "linf":
            for i, star in answer.star_results:
                if not star.holds:
                    continue
                ci = comps[i - 1]
                lead = abs(dot(star.witness, ci))
                others = [cj for cj in comps if cj != ci and cj != tuple(-c for c in ci)]
                if not all(lead > abs(dot(star.witness, cj)) for cj in others):
                    return f"star witness for coordinate {i} does not recheck"
            if (generic_strong.status == "yes") != answer.strongly_anti:
                return "linf_classify disagrees with the generic strong verdict"
            return None
        anti, best = answer
        if generic_strong.status != "no":
            return "generic engine called a sum-norm subspace strongly anti-coproximinal"
        generic_anti = ca.is_anti_coproximinal(space, y)
        if generic_anti.status != "undecided" and generic_anti.status != anti.status:
            return "l1_is_anti_coproximinal disagrees with the generic engine"
        if anti.norming is not None:
            bound = 2 * sum(comb(q.n - 1, k) for k in range(q.m))
            if not anti.norming.size <= bound < 2 ** q.n:
                return "norming-set size breaks size <= bound < 2^n"
            for s, beta in zip(anti.norming.signs, anti.norming.witnesses):
                if not all(si * dot(beta, ci) > 0 for si, ci in zip(s, comps)):
                    return "norming-set witness does not realize its sign vector"
            if (ca.rank(anti.norming.representatives) == q.n) != (anti.status == "yes"):
                return "anti verdict does not match the norming-set rank"
        elif not any(not any(c) for c in comps):
            return "zero-set verdict without a zero component"
        if best is not None and best.exists:
            if not _in_y(y, best.y0) or not ca.is_best_coapprox(space, y, q.point, best.y0):
                return "l1_best_coapprox witness is not a best coapproximation"
        return None


class CliRequests:
    """One fresh ``python -m coapprox.cli`` process per seeded JSON request."""

    name = "cli_requests"
    cycle = gen.POOL_CYCLES * len(gen.CLI_MIX)
    trace = False

    def setup(self, seed: int) -> None:
        SCRATCH.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.questions = enumerate(gen.cli_requests(seed))
        self.child_spans: dict[int, Path] = {}
        self.ask((-1, ("norm", [], {"space": {"type": "linf", "n": 3}, "points": [["1", "2", "3"]]})))

    def reset(self) -> None:
        pass

    def ask(self, q):
        index, (sub, flags, doc) = q
        if self.trace:
            span_file = SCRATCH / f"child-{os.getpid()}-{index}.tsv"
            self.child_spans[index] = span_file
            cmd = [sys.executable, str(Path(__file__).parent / "cli_child.py"), str(span_file)]
        else:
            cmd = [sys.executable, "-m", "coapprox.cli"]
        # no timeout: with one, Popen.wait polls the exit in steps of up to 50 ms
        proc = subprocess.run(cmd + [sub, *flags], input=json.dumps(doc), capture_output=True,
                              text=True, cwd=ROOT, env=self.env)
        if proc.returncode in (1, 2):
            raise RuntimeError(f"{sub} exited {proc.returncode}: {proc.stdout.strip()}")
        return proc.returncode, proc.stdout

    def stratum(self, q) -> str:
        return q[1][0]

    def verdict(self, q, answer) -> str:
        code, out = answer
        sub, body = q[1][0], _one_object(out) or {}
        keys = {"norm": "norm", "jset": "indices", "bj": "orthogonal", "classify": "anti",
                "facets": "census", "defect": "defect", "eps-check": "is_eps_best",
                "best-coapprox": "exists", "jy": "size"}
        extra = body.get("strongly_anti") if sub == "classify" else None
        return f"{sub} exit={code} {json.dumps(body.get(keys[sub]), sort_keys=True)} {extra}"

    def check(self, q, answer) -> str | None:
        code, out = answer
        sub, flags, doc = q[1]
        body = _one_object(out)
        if code != 0 or body is None or "error" in body:
            return f"{sub} did not return one JSON object with exit 0 (exit {code})"
        if sub == "norm":
            x = [Fraction(c) for c in doc["points"][0]]
            want = max(map(abs, x)) if doc["space"]["type"] == "linf" else sum(map(abs, x))
            if Fraction(body["norm"]) != want:
                return "norm disagrees with the closed form"
        elif sub == "facets":
            census = [body["census"].get(str(k), 0) for k in range(body["dim"])]
            euler = sum((-1) ** k * f for k, f in enumerate(census))
            if euler != 1 - (-1) ** body["dim"] or census[0] != len(body["vertices"]):
                return "face census breaks the Euler-Poincare relation"
            key = "vertices" if "vertices" in doc["space"] else "facets"
            if len(body[key]) > len(doc["space"][key]) - 4:
                return f"facets kept a redundant input {key[:-1]}"
        elif sub == "defect" and not 0 <= Fraction(body["defect"]) <= 1:
            return "defect outside [0, 1]"
        elif sub == "eps-check" and body["is_eps_best"] != (Fraction(body["defect"]) <= Fraction(doc["epsilon"])):
            return "eps-check verdict does not match its defect"
        elif sub == "classify" and doc["space"]["type"] == "l1" and body["strongly_anti"] != "no":
            return "a sum-norm subspace was called strongly anti-coproximinal"
        return None


def _one_object(text: str):
    try:
        body = json.loads(text)
    except json.JSONDecodeError:
        return None
    return body if isinstance(body, dict) and text.count("\n") == 1 else None


WORKLOADS = {w.name: w for w in (PointQueries, ClassifyGeneric, ClassifyFast, CliRequests)}
