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
