"""The library names the benchmark in perfbench/ reaches for must exist.

The tracer looks up every function in its ``LAYERS`` table with ``getattr``
and the workloads call the package as ``ca.<name>``; renaming or deleting
one of those breaks ``--trace 1`` or a workload, so it fails here first.
The same goes for the fields and verdicts the workloads' correctness checks
read back.  The benchmark's files are only read.
"""

import importlib
import importlib.util
import itertools
import re
import warnings
from pathlib import Path

import pytest

import coapprox as ca

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    layers = _load("tracer").LAYERS
    missing = [
        f"{mod}.{fn}"
        for mod, fns in layers.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"coapprox.{mod}"), fn, None))
    ]
    assert not missing


def test_workload_names_exist_on_the_package():
    names = set(re.findall(r"\bca\.(\w+)", (PERFBENCH / "workloads.py").read_text()))
    assert names
    assert sorted(name for name in names if not hasattr(ca, name)) == []


@pytest.mark.parametrize("workload", ["PointQueries", "ClassifyGeneric", "ClassifyFast"])
def test_workload_checks_pass_on_the_first_questions(monkeypatch, workload):
    # CliRequests is left out: it spawns processes and writes under .perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    with warnings.catch_warnings():
        wl = getattr(workloads, workload)()
        wl.setup(201)
        problems = [wl.check(q, wl.ask(q)) for q in itertools.islice(wl.questions, 20)]
    assert problems == [None] * 20


def test_tracer_observes_a_traced_run_and_restores_every_binding():
    # the tracer's observers read LpProblem.bounds, LpResult.status,
    # Feasibility.feasible and NormingSet.representatives; a library change
    # that breaks --trace 1 fails here
    tracer_module = _load("tracer")
    ca.induced_ball.cache_clear()  # a cached ball would skip conv_facets
    with tracer_module.Tracer() as tracer:
        tracer.question_id = 0
        patched = tracer.patched
        space = ca.make_linf(3)
        y = ca.subspace(((1, 1, 2), (2, 2, 1)))
        ca.is_strongly_anti_coproximinal(space, y)
        ca.solve_best_coapprox(space, y, (1, 0, 0))
        ca.l1_is_anti_coproximinal(((0, 1, 1), (-1, 0, 1)))
        # the only library calls left that reach lp_solve and strict_feasibility
        ca.bj_orthogonal_lambda_oracle(space, (1, 0, 0), (0, 1, 0))
        ca.star_property(((1, 1, 2), (2, 2, 1)), 3)
    metrics = tracer.layer_metrics(1, None)
    for name in ("linalg.rank.calls", "linalg.solve_linear.calls",
                 "linalg.lp_solve.rows_mean", "polytope.conv_facets.facets_mean"):
        assert metrics[name] > 0, name
    assert patched
    assert all(getattr(ns, attr) is original for ns, attr, original in patched)
