"""Deterministic fuzzing of the model loader and of the command-line
numbers.

Each model example copies one demo model and, in most examples, applies one
mutation: drop a key, put NaN or +-inf in a number (the copula section's
included), or push an adjacency or dependence-member index out of range.
``check``, ``compose`` and ``copula-sample`` then run at an eps drawn up to
1e300 in size.  Every demo model also goes through each type swap (a list,
an object, a string, a number, a bool or null in place of the value) at
each top-level key and at each key of a mechanism or dependence entry, and
``check``, ``compose``, ``pld``, ``audit`` and ``copula-sample`` run on it.
Each number example runs ``check``, ``compose``, ``audit``, ``pld`` and
``ic`` on an intact demo model with numbers drawn finite or not, in range
or not.  Whatever the input, ``dcp`` must answer with exit
code 0, 1 or 2, never let an exception escape and never print a NaN.
"""

import contextlib
import io
import json
import math
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpkit.cli import main

MODELS = {
    path.name: json.loads(path.read_text())
    for path in sorted((pathlib.Path(__file__).parent.parent / "demos" / "models").glob("*.json"))
}


def sites(node, path=()):
    """(kind, path) of every droppable key, every number and every index."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield "drop", path + (key,)
            yield from sites(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from sites(value, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield "number", path
        if "pairs" in path or "members" in path:
            yield "index", path


def apply(model, kind, path, choice):
    parent = model
    for step in path[:-1]:
        parent = parent[step]
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "number":
        parent[path[-1]] = (math.nan, math.inf, -math.inf)[choice]
    else:
        size = len(model["secrets"]) if "pairs" in path else len(model["mechanisms"])
        parent[path[-1]] = (size, size + 3, -1)[choice]


@st.composite
def mutated_models(draw):
    name = draw(st.sampled_from(sorted(MODELS)))
    model = json.loads(json.dumps(MODELS[name]))
    if draw(st.integers(0, 3)):
        kind, path = draw(st.sampled_from(list(sites(model))))
        apply(model, kind, path, draw(st.integers(0, 2)))
    return model


EPS = st.floats(-1e300, 1e300).map(repr)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(model=mutated_models(), eps=EPS, eps_g=st.lists(EPS, min_size=1, max_size=3))
def test_dcp_never_raises_on_mutated_models(tmp_path_factory, model, eps, eps_g):
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    path.write_text(json.dumps(model))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        codes = [main(["--model", str(path), "check", "--eps", eps, "--delta", "0.05"]),
                 main(["--model", str(path), "compose", "--eps-g", *eps_g]),
                 main(["--model", str(path), "copula-sample", "-n", "3"])]
    assert all(code in (0, 1, 2) for code in codes)
    assert "Traceback" not in err.getvalue()


SWAPS = ([], [0.5, "a"], {"a": 1}, "abc", 0.7, 2, True, None)


def swap_sites(model):
    """Each top-level key and each key of a mechanism or dependence entry."""
    yield from ((key,) for key in model)
    for section in ("mechanisms", "dependence"):
        for i, entry in enumerate(model.get(section, [])):
            yield from ((section, i, key) for key in entry)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_dcp_never_raises_on_type_swapped_models(tmp_path, name):
    path = tmp_path / "model.json"
    single = MODELS[name]["mechanisms"][0]["name"]
    argvs = (["check", "--eps", "1.0", "--delta", "0.05"], ["compose"],
             ["pld", "--pair", "s0", "s1", "--mech", single],
             ["audit", "--single", single, "--eps-g", "1.0", "--delta-g", "0.05"],
             ["copula-sample", "-n", "3"])
    for site in swap_sites(MODELS[name]):
        for value in SWAPS:
            model = json.loads(json.dumps(MODELS[name]))
            parent = model
            for step in site[:-1]:
                parent = parent[step]
            parent[site[-1]] = value
            path.write_text(json.dumps(model))
            for argv in argvs:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(["--model", str(path), *argv])
                assert code in (0, 1, 2), (site, value, argv)
                assert "Traceback" not in err.getvalue()


NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "NaN", "inf", "-inf", "1e400", "-0.0", "0", "1", "0.02", "2", "x"]),
)
COUNT = st.one_of(st.integers(-3, 4).map(str), st.sampled_from(["nan", "inf", "1.5", "x"]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(name=st.sampled_from(sorted(MODELS)), eps=NUMBER, delta=NUMBER, tau=NUMBER, count=COUNT)
def test_dcp_never_raises_or_prints_nan_on_drawn_numbers(name, eps, delta, tau, count):
    model = str(pathlib.Path(__file__).parent.parent / "demos" / "models" / name)
    single = MODELS[name]["mechanisms"][0]["name"]
    argvs = [
        ["check", f"--eps={eps}", f"--delta={delta}"],
        ["compose", f"--eps-g={eps}", f"--delta-g={delta}"],
        ["audit", "--single", single, f"--eps-g={eps}", f"--delta-g={delta}"],
        [f"--cap={count}", "pld", "--pair", "s0", "s1"],
        ["ic", "--task", "1", f"--tau={tau}", f"--delta-g={delta}", f"--alphabet={count}"],
        ["ic", "--task", "2", f"--delta-g={delta}"],
    ]
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--model", model, *argv])
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
        assert not re.search(r"\bnan\b", out.getvalue(), re.IGNORECASE), argv
