"""Tests of the benchmark itself: run with ``python -m pytest perfbench -q``."""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import coapprox  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from speed import Probe  # noqa: E402
from tracer import Tracer  # noqa: E402


def _first(iterator, k):
    return list(itertools.islice(iterator, k))


def test_generator_is_deterministic_per_seed():
    makers = [gen.spans, gen.custom_spans, gen.generic_questions, gen.point_questions, gen.cli_requests]
    for make in makers:
        assert _first(make(7), 40) == _first(make(7), 40)
        assert _first(make(7), 40) != _first(make(8), 40)


def test_fast_and_generic_share_one_span_sequence():
    shared = [q for q in _first(gen.generic_questions(3), 60) if q.kind != "custom"]
    assert shared == _first(gen.spans(3), len(shared))


def test_custom_balls_are_symmetric_with_redundant_points():
    ball = next(gen.custom_spans(1))
    points = set(ball.points)
    assert all(tuple(-c for c in p) in points for p in points)
    assert sum(tuple(2 * c for c in p) in points for p in points) == 4


def test_bj_check_agrees_with_the_lambda_oracle():
    wl = workloads.PointQueries()
    wl.setup(4)
    questions = [q for q in _first(gen.point_questions(4), 9 * 5 * 6) if q.kind == "bj"]
    both = 0
    for q in questions:
        space, _ = wl.pairs[q.pair]
        oracle = coapprox.bj_orthogonal_lambda_oracle(space, q.x, q.y)
        assert workloads.bj_by_norms(space, q.x, q.y) == oracle
        both += oracle
    assert 0 < both < len(questions)


def _bindings():
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "coapprox" or name.startswith("coapprox.")
            for attr, value in vars(mod).items()}


def test_tracer_patches_every_namespace_and_restores_every_binding():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        patched = {(ns.__name__, attr) for ns, attr, _ in tracer.patched}
        assert ("coapprox", "lp_solve") in patched
        assert ("coapprox.linalg", "lp_solve") in patched
        assert ("coapprox.coapproximation", "lp_solve") in patched
        assert ("coapprox.polytope", "conv_facets") in patched
        cached = before[("coapprox.subspaces", "induced_ball")]
        assert coapprox.subspaces.induced_ball.__wrapped__ is cached
        assert coapprox.subspaces.induced_ball.cache_info() == cached.cache_info()
        tracer.question_id = 0
        coapprox.is_strongly_anti_coproximinal(coapprox.make_linf(4), coapprox.subspace([(1, 2, 0, 1), (0, 1, 3, -1)]))
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    metrics = tracer.layer_metrics(1, None)
    assert metrics["coapproximation.is_strongly_anti_coproximinal.calls"] == 1
    assert metrics["polytope.conv_facets.calls"] >= 1
    assert metrics["subspaces.induced_ball.calls"] >= 1


def _verdicts(name, k, trace):
    wl = workloads.WORKLOADS[name]()
    wl.trace = trace
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        wl.setup(5)
        loop = run.Loop(wl, Probe(), tracer)
        for index, q in enumerate(_first(wl.questions, k)):
            loop.one(index, q)
    finally:
        if tracer:
            tracer.restore()
        wl.reset()
    for path in getattr(wl, "child_spans", {}).values():
        path.unlink()
    assert not loop.wrong and loop.failed == 0
    return run._digest(loop.verdicts)


def test_traced_and_untraced_runs_give_identical_digests():
    for name, k in (("point_queries", 45), ("classify_generic", 6), ("classify_fast", 5), ("cli_requests", 3)):
        assert _verdicts(name, k, trace=False) == _verdicts(name, k, trace=True), name


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_smoke_run_of_each_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"] for m in spec[key]}
        for name in run.NAMES:
            proc = _run(["--workload", name, "--seed", "2", "--seconds", "0.3", "--trace", str(trace)], ROOT)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
            assert set(result["metrics"]) == names


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "point_queries", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
