"""File-level fuzzing of the CLI's input readers.

Each example starts from a valid trajectory, matrix or Lindblad spec
file and breaks it in one place: the text is cut short, the document is
not an object, a required key is missing, a value the reader uses is
replaced by one of another JSON type or by a non-finite number, a list
loses an element or gains a level of nesting, or a trajectory's or a
matrix's dim is wrong.  Every such file must end in exit 2 with one
line on stderr.
"""

import json
import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from probunitary import io, models
from probunitary.cli import EXIT_VALIDATION, main

SIGMA_X = io.matrix_to_json(np.array([[0, 1], [1, 0]]))


def trajectory_doc():
    samples = models.sample_model("amplitude-damping", np.linspace(0, 0.05, 6))
    rhos = np.stack([s.rho for s in samples])
    return {"dim": 2, "times": [s.time for s in samples], "rho": io.matrix_to_json(rhos)}


# kind: (valid document, required keys, keys whose values the reader uses,
# argv for a file path and an output prefix)
KINDS = {
    "trajectory": (
        trajectory_doc(),
        ("dim", "times", "rho"),
        ("dim", "times", "rho"),
        lambda path, out: ["decompose", "--input", path, "--out", out],
    ),
    "matrix": (
        {"dim": 2, "matrix": io.matrix_to_json(np.diag([0.7, 0.3]))},
        ("dim", "matrix"),
        ("dim", "matrix"),
        lambda path, out: ["channel", "--rho-in", path, "--rho-out", path, "--out", out],
    ),
    "spec": (
        {
            "hamiltonian": io.matrix_to_json(np.diag([0.5, -0.5])),
            "jump_ops": [{"operator": SIGMA_X, "gamma": 0.5}],
            "rho0": io.matrix_to_json(np.diag([0.7, 0.3])),
        },
        ("hamiltonian", "rho0"),
        ("hamiltonian", "jump_ops", "rho0"),
        lambda path, out: ["decompose", "--model", "lindblad", "--lindblad-spec", path,
                           "--horizon", "0.01", "--dt", "0.005", "--out", out],
    ),
}

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
SCALARS = st.one_of(st.none(), st.booleans(), st.text(max_size=4), NON_FINITE,
                    st.integers(), st.floats())


def nodes(value, path=()):
    """Every (path, value) under ``value``, ``value`` itself first."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from nodes(item, path + (i,))


DELETE = object()


def replace(doc, path, new):
    """A copy of ``doc`` with the value at ``path`` set to ``new``, or
    removed if ``new`` is DELETE."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if new is DELETE:
        del parent[last]
    else:
        parent[last] = new
    return doc


def other_type(value):
    """A JSON value of another type than ``value``, or a non-finite
    number where a number was."""
    if isinstance(value, dict):
        return st.one_of(SCALARS, st.lists(SCALARS, max_size=2))
    if isinstance(value, list):
        return st.one_of(SCALARS, st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))
    return st.one_of(st.none(), st.booleans(), st.text(max_size=4), NON_FINITE,
                     st.lists(st.floats(), max_size=2), st.just({}))


@st.composite
def broken_files(draw, kind):
    doc, required, used, _ = KINDS[kind]
    text = json.dumps(doc)
    hows = ["cut", "not-object", "drop-key", "retype", "shorten", "nest"]
    how = draw(st.sampled_from(hows + (["dim"] if "dim" in doc else [])))
    if how == "cut":
        return text[: draw(st.integers(0, len(text) - 1))]
    if how == "not-object":
        return json.dumps(draw(st.one_of(SCALARS, st.lists(SCALARS, max_size=2))))
    if how == "drop-key":
        return json.dumps(replace(doc, (draw(st.sampled_from(required)),), DELETE))
    if how == "dim":
        d = draw(st.one_of(st.integers(max_value=1), st.integers(3, 50),
                           st.integers(10**6, 2**63), other_type(2)))
        return json.dumps(replace(doc, ("dim",), d))
    found = [(p, v) for key in used for p, v in nodes(doc[key], (key,))]
    if how == "retype":
        path, value = draw(st.sampled_from(found))
        return json.dumps(replace(doc, path, draw(other_type(value))))
    # lists whose every element is needed: all but the list of jump operators
    lists = [(p, v) for p, v in found if isinstance(v, list) and p != ("jump_ops",)]
    path, value = draw(st.sampled_from(lists))
    if how == "shorten":
        return json.dumps(replace(doc, path + (draw(st.integers(0, len(value) - 1)),), DELETE))
    return json.dumps(replace(doc, path, [value]))


def exits_2_with_one_line(tmp_path, capsys, kind, text):
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    argv = KINDS[kind][3](str(path), str(tmp_path / "run"))
    code = main(argv)
    err = capsys.readouterr().err.strip()
    assert code == EXIT_VALIDATION, (text, err)
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(text=broken_files("trajectory"))
# a dim far beyond the entries' 2x2, which must not be allocated
@example(text=json.dumps(replace(KINDS["trajectory"][0], ("dim",), 1_000_000)))
def test_broken_trajectory_file_exits_2(tmp_path, capsys, text):
    exits_2_with_one_line(tmp_path, capsys, "trajectory", text)


@FUZZ
@given(text=broken_files("matrix"))
def test_broken_matrix_file_exits_2(tmp_path, capsys, text):
    exits_2_with_one_line(tmp_path, capsys, "matrix", text)


@FUZZ
@given(text=broken_files("spec"))
def test_broken_spec_file_exits_2(tmp_path, capsys, text):
    exits_2_with_one_line(tmp_path, capsys, "spec", text)
