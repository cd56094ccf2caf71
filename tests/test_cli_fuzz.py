"""CLI fuzzing: any request, well-formed or not, gets one JSON object and a contract exit code.

Requests draw a subcommand, flags and a stdin document from bounded
strategies: max-norm, sum-norm and custom spaces in at most four dimensions,
small integers and "p/q" strings, mixed with wrong-typed values, unknown
keys, empty arrays, points of the wrong dimension and balls that are not
symmetric.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import coapprox.cli as cli

COMMANDS = sorted(cli._COMMANDS)
POINT_COMMANDS = ["best-coapprox", "bj", "defect", "eps-bj", "eps-check", "jset", "norm", "smooth"]

rationals = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 3), st.integers(1, 3)),
)
epsilons = st.one_of(st.just(0), st.builds(lambda p, q: f"{p}/{p + q}", st.integers(0, 3), st.integers(1, 3)))
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(-2, 2, width=16),
    st.text(max_size=3),
    st.just("1/0"),
    st.just([]),
    st.just({}),
)


def vectors(n):
    return st.lists(rationals, min_size=n, max_size=n)


def wrong_vectors(n):
    return st.one_of(
        junk,
        st.lists(st.one_of(rationals, junk), min_size=n, max_size=n),
        st.lists(rationals, min_size=n - 1, max_size=n + 1),
    )


def spaces(n):
    points = st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n + 2)
    symmetric = points.map(lambda pts: pts + [[-c for c in p] for p in pts])
    return st.one_of(
        st.fixed_dictionaries({"type": st.sampled_from(["linf", "l1"]), "n": st.just(n)}),
        st.fixed_dictionaries({"type": st.just("custom"), "vertices": symmetric}),
        st.fixed_dictionaries({"type": st.just("custom"), "facets": symmetric}),
    )


def wrong_spaces(n):
    return st.one_of(
        junk,
        st.fixed_dictionaries({"type": st.sampled_from(["linf", "l1"]), "n": st.one_of(st.integers(-1, 4), junk)}),
        st.fixed_dictionaries({"type": st.just("custom"), "vertices": st.lists(vectors(n), max_size=4)}),
        st.fixed_dictionaries({"type": st.just("custom"), "facets": st.lists(wrong_vectors(n), max_size=4)}),
        st.fixed_dictionaries({"type": st.one_of(st.just("custom"), junk)}),
    )


@st.composite
def requests(draw):
    """(argv, stdin text) for one CLI call, well-formed unless a fault is drawn."""
    n = draw(st.integers(2, 4))
    basis = draw(st.lists(vectors(n), min_size=min(2, n - 1), max_size=n - 1))
    fields = {
        "space": draw(spaces(n)),
        "basis": basis,
        "points": draw(st.lists(vectors(n), min_size=1, max_size=2)),
        "y0": draw(st.one_of(st.just(basis[0]), vectors(n))),
        "epsilon": draw(epsilons),
        "verify": draw(st.booleans()),
    }
    wrong = {
        "space": wrong_spaces(n),
        "basis": st.one_of(junk, st.lists(wrong_vectors(n), max_size=2)),
        "points": st.one_of(junk, st.lists(wrong_vectors(n), max_size=2)),
        "y0": wrong_vectors(n),
        "epsilon": st.one_of(junk, rationals),
        "verify": junk,
    }
    faults = (None,) * 8 + tuple(fields) + ("missing", "unknown key", "command", "document", "length")
    fault = draw(st.sampled_from(faults))
    if fault in wrong:
        fields[fault] = draw(wrong[fault])
    elif fault == "length":
        off = draw(st.lists(rationals, min_size=1, max_size=n + 1).filter(lambda v: len(v) != n))
        if draw(st.booleans()):
            fields["y0"] = off
        else:
            fields["points"][draw(st.integers(0, len(fields["points"]) - 1))] = off
    elif fault == "missing":
        del fields[draw(st.sampled_from(sorted(fields)))]
    elif fault == "unknown key":
        fields["colour"] = draw(junk)
    if fault == "command":
        argv = [draw(st.text(max_size=4))]
    else:
        argv = [draw(st.sampled_from(POINT_COMMANDS if fault == "length" else COMMANDS))]
    if draw(st.booleans()):
        doc = dict(fields)
        if "points" in doc and draw(st.booleans()) and isinstance(doc["points"], list) and doc["points"]:
            doc["point"] = doc.pop("points")[0]
        stdin = draw(st.sampled_from(["", "[1]", "{", "null"])) if fault == "document" else json.dumps(doc)
    else:
        stdin = ""
        for key, value in fields.items():
            if key == "verify":
                argv += ["--verify"] if value is True else []
            elif key == "points" and isinstance(value, list):
                for point in value:
                    argv += ["--point", json.dumps(point)]
            elif key == "epsilon":
                argv += ["--epsilon", str(value)]
            else:
                argv += [f"--{key}", json.dumps(value)]
    if draw(st.booleans()):
        argv.append("--pretty")
    return argv, stdin


def _call(argv, stdin):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@pytest.mark.filterwarnings("ignore:dropped .* non-extreme")
@given(requests())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_request_gets_one_json_object_and_a_contract_exit_code(request):
    argv, stdin = request
    code, out = _call(argv, stdin)
    assert code in (0, 1, 2, 3), (argv, stdin, code)
    if "--pretty" not in argv:
        assert len(out.splitlines()) == 1, out
    payload = json.loads(out)
    assert isinstance(payload, dict), out
    assert ("error" in payload) == (code != 0), out
    assert "zip()" not in out, (argv, stdin, out)
