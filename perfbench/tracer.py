"""Outside-in tracer: spans around the public functions of each coapprox layer.

Nothing under ``src/`` knows about it.  ``install`` replaces every binding of
a traced function, in the defining module, in every other ``coapprox.*``
module that imported it with ``from .x import f``, and in the package
namespace, so calls between modules are seen as well as calls from the
benchmark.  ``restore`` puts every original binding back.

Spans live in flat arrays (function, start, end, parent span, question id and
two per-function observations) and are written out as TSV when the run ends.
Self time is a span's duration minus the durations of its direct children;
the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

# The eight work-doing modules and the public functions timed in each.
LAYERS = {
    "linalg": ("lp_solve", "strict_feasibility", "rank", "solve_linear"),
    "polytope": ("conv_facets", "enumerate_faces", "h_to_v", "v_to_h"),
    "spaces": ("make_custom", "make_linf", "make_l1", "norm", "support_set"),
    "subspaces": ("induced_ball", "jy_set", "jy_set_via_faces", "smooth_dense_in"),
    "coapproximation": (
        "bj_orthogonal", "bj_orthogonal_lambda_oracle", "eps_bj_orthogonal",
        "is_best_coapprox", "eps_coapprox_defect", "solve_best_coapprox",
        "is_anti_coproximinal", "is_strongly_anti_coproximinal",
    ),
    "linf": ("linf_classify", "star_property", "component_table"),
    "l1": ("minimal_norming_set", "l1_is_anti_coproximinal", "l1_best_coapprox"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
WITH_TOTAL = ("polytope.h_to_v", "polytope.v_to_h", "spaces.make_custom")


def _lp_rows(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    bound_rows = sum((lo is not None) + (hi is not None) for lo, hi in problem.bounds or ())
    return len(problem.constraints) + bound_rows, result.status == "optimal"


# Per-function observations (a, b) read from arguments and results.
OBSERVERS = {
    "linalg.lp_solve": _lp_rows,
    "linalg.strict_feasibility": lambda args, kwargs, r: (r.feasible, 0),
    "polytope.conv_facets": lambda args, kwargs, r: (len(args[0]), len(r)),
    "polytope.enumerate_faces": lambda args, kwargs, r: (len(r), 0),
    "l1.minimal_norming_set": lambda args, kwargs, r: (len(r.representatives), 0),
}


class Tracer:
    """Records spans for every traced call while installed."""

    def __init__(self):
        self.fid = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.question = array("i")
        self.a = array("q")
        self.b = array("q")
        self.question_id = -1  # -1 marks set-up work
        self.paused = False  # while set, calls pass through unrecorded (checks)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn):
        observe = OBSERVERS.get(FUNCTIONS[fid])
        # induced_ball is an lru_cache: its hit count is read around the call,
        # and the call itself goes to the cached function with the same key.
        cache_info = getattr(fn, "cache_info", None)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(self.fid)
            self.fid.append(fid)
            self.parent.append(stack[-1] if stack else -1)
            self.question.append(self.question_id)
            self.end.append(0)
            self.a.append(0)
            self.b.append(0)
            hits = cache_info().hits if cache_info else 0
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if cache_info:
                self.a[idx] = cache_info().hits - hits
            elif observe:
                self.a[idx], self.b[idx] = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self) -> None:
        """Patch every loaded coapprox namespace; modules not yet imported are skipped."""
        spaces = [mod for name, mod in sorted(sys.modules.items())
                  if name == "coapprox" or name.startswith("coapprox.")]
        for fid, name in enumerate(FUNCTIONS):
            module = sys.modules.get(f"coapprox.{name.split('.')[0]}")
            if module is None:
                continue
            original = getattr(module, name.split(".")[1])
            wrapper = self._wrap(fid, original)
            for ns in spaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))

    def restore(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    # -- persistence -------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            out.write("name\tstart_ns\tend_ns\tparent\tquestion\ta\tb\n")
            for i in range(len(self.fid)):
                out.write(f"{FUNCTIONS[self.fid[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                          f"{self.parent[i]}\t{self.question[i]}\t{self.a[i]}\t{self.b[i]}\n")

    def merge(self, path: Path, question: int) -> None:
        """Append a child process's span file, tagging its spans with ``question``."""
        offset = len(self.fid)
        index = {name: i for i, name in enumerate(FUNCTIONS)}
        with open(path) as src:
            next(src)
            for line in src:
                name, start, end, parent, _, a, b = line.rstrip("\n").split("\t")
                self.fid.append(index[name])
                self.start.append(int(start))
                self.end.append(int(end))
                self.parent.append(int(parent) + offset if int(parent) >= 0 else -1)
                self.question.append(question)
                self.a.append(int(a))
                self.b.append(int(b))

    # -- aggregation ---------------------------------------------------------

    def _has_ancestor(self, i: int, target: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.fid[p] == target:
                return True
            p = self.parent[p]
        return False

    def main_spans_s(self) -> dict[int, float]:
        """Duration of the cli.main span of each question, in seconds."""
        main = FUNCTIONS.index("cli.main")
        return {self.question[i]: (self.end[i] - self.start[i]) / 1e9
                for i in range(len(self.fid)) if self.fid[i] == main}

    def layer_metrics(self, questions: int, scales, timed: bool = True) -> dict[str, float]:
        """Per-layer metrics over the timed questions (or over set-up work).

        Counts and times are per question, over ``questions`` questions; a
        span's time is multiplied by ``scales[question]`` when scales are
        given.  ``*_mean``, ``*_share``, ``*_ratio`` and ``*per_*`` are
        ratios over the calls named in BENCHMARK.json.
        """
        count = len(self.fid)
        dur = [(self.end[i] - self.start[i]) * (scales[self.question[i]] if scales else 1) / 1e9
               if (self.question[i] >= 0) == timed else 0.0 for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        by_fn: dict[int, list[int]] = {fid: [] for fid in range(len(FUNCTIONS))}
        for i in range(count):
            if (self.question[i] >= 0) == timed:
                by_fn[self.fid[i]].append(i)

        per_q = max(questions, 1)
        out: dict[str, float] = {}
        for fid, name in enumerate(FUNCTIONS):
            spans = by_fn[fid]
            out[f"{name}.calls"] = len(spans) / per_q
            out[f"{name}.self_s"] = sum(dur[i] - child[i] for i in spans) / per_q
            if name in WITH_TOTAL:
                out[f"{name}.total_s"] = sum(dur[i] for i in spans) / per_q

        def ratio(num, den):
            return num / den if den else 0.0

        def spans_of(name):
            return by_fn[FUNCTIONS.index(name)]

        def under(name, parent):
            target = FUNCTIONS.index(parent)
            return [i for i in spans_of(name) if self._has_ancestor(i, target)]

        lps = spans_of("linalg.lp_solve")
        out["linalg.lp_solve.rows_mean"] = ratio(sum(self.a[i] for i in lps), len(lps))
        out["linalg.lp_solve.optimal_share"] = ratio(sum(self.b[i] for i in lps), len(lps))
        sf = spans_of("linalg.strict_feasibility")
        out["linalg.strict_feasibility.feasible_share"] = ratio(sum(self.a[i] for i in sf), len(sf))
        cf = spans_of("polytope.conv_facets")
        out["polytope.conv_facets.points_mean"] = ratio(sum(self.a[i] for i in cf), len(cf))
        out["polytope.conv_facets.facets_mean"] = ratio(sum(self.b[i] for i in cf), len(cf))
        ef = spans_of("polytope.enumerate_faces")
        out["polytope.enumerate_faces.faces_mean"] = ratio(sum(self.a[i] for i in ef), len(ef))
        ib = spans_of("subspaces.induced_ball")
        out["subspaces.induced_ball.hit_ratio"] = ratio(sum(self.a[i] for i in ib), len(ib))
        solve_lps = under("linalg.lp_solve", "coapproximation.solve_best_coapprox")
        solves = len(spans_of("coapproximation.solve_best_coapprox"))
        out["coapproximation.solve_best_coapprox.lp_per_call"] = ratio(len(solve_lps), solves)
        out["coapproximation.solve_best_coapprox.lp_optimal_share"] = ratio(
            sum(self.b[i] for i in solve_lps), len(solve_lps))
        out["linf.component_table.per_classify"] = ratio(
            len(under("linf.component_table", "linf.linf_classify")),
            len(spans_of("linf.linf_classify")))
        mns = spans_of("l1.minimal_norming_set")
        mns_lps = under("linalg.lp_solve", "l1.minimal_norming_set")
        out["l1.minimal_norming_set.lp_per_call"] = ratio(len(mns_lps), len(mns))
        out["l1.minimal_norming_set.cells_per_lp"] = ratio(
            sum(self.a[i] for i in mns),
            len(under("linalg.strict_feasibility", "l1.minimal_norming_set")))
        return out
