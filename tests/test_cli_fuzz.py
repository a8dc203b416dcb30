"""Fuzzing ``qamp`` through ``cli.main``.

Matrix and prepared documents, well formed or not, with numbers anywhere in
float64's range and beyond it, go through every command that reads them,
with ``--c``, ``--shots`` and ``--seed`` values of any sign and size.  Every
outcome must be one of the documented exit codes 0 to 4, with no traceback
and no warning; a success writes JSON, a failure a message on stderr.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from qamp.cli import main
from qamp.complexmat import matrix_from_obj, prepare, prepared_to_obj
from qamp.errors import ParameterError, ValidationError

#: finite doubles of every magnitude, subnormals and signed zeros included
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMBERS = st.one_of(FINITE, st.floats(), st.integers(), st.integers(min_value=2**1024))
#: any JSON value, kept small
JSON = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def matrix_docs(draw):
    """A matrix document of width 0 to 2, sometimes with one field replaced
    by an arbitrary JSON value or dropped."""
    n = draw(st.integers(0, 2))
    dim = 1 << n
    pair = st.lists(FINITE, min_size=2, max_size=2)
    row = st.lists(pair, min_size=dim, max_size=dim)
    doc = {"n": n, "entries": draw(st.lists(row, min_size=dim, max_size=dim))}
    broken = draw(st.sampled_from([None, None, "n", "entries", "cell", "drop"]))
    if broken in ("n", "entries"):
        doc[broken] = draw(JSON)
    elif broken == "cell":
        doc["entries"][0][0][draw(st.integers(0, 1))] = draw(JSON)
    elif broken == "drop":
        del doc[draw(st.sampled_from(["n", "entries"]))]
    return doc


@st.composite
def prepared_docs(draw):
    """A prepared document: what ``prepare`` writes for a matrix document,
    or the document with arbitrary slack and scale fields, and sometimes
    one of those fields replaced by an arbitrary JSON value or dropped."""
    doc = draw(matrix_docs())
    try:
        doc = prepared_to_obj(prepare(matrix_from_obj(doc), draw(st.floats(0.3, 2.0))))
    except (ParameterError, ValidationError):
        doc = {**doc, "b": draw(st.lists(FINITE, min_size=2, max_size=2)), "s_original": draw(FINITE), "c": draw(FINITE)}
    broken = draw(st.sampled_from([None, None, "b", "s_original", "c", "drop"]))
    if broken == "drop":
        del doc[draw(st.sampled_from(["b", "s_original", "c"]))]
    elif broken is not None:
        doc[broken] = draw(st.one_of(NUMBERS, st.lists(NUMBERS, min_size=2, max_size=2), JSON))
    return doc


DOCS = st.one_of(matrix_docs(), prepared_docs())
C_VALUES = st.one_of(st.floats(), st.sampled_from(["1e400", "-1e400", "5e-324"]))
SHOTS = st.one_of(st.integers(-2, 3000), st.integers(2**62, 2**64))
SEEDS = st.integers(-(2**70), 2**70)


def options(name, values):
    """``--name=value`` for a drawn value, or nothing."""
    return st.one_of(st.just([]), values.map(lambda value: [f"--{name}={value}"]))


MANIPULATION_FLAGS = st.lists(
    st.sampled_from(["--dagger-a", "--dagger-b", "--swap-order"]), unique=True
)


@st.composite
def invocations(draw):
    """A command and its arguments; the operands are written to files named
    a.json and b.json in the working directory."""
    command = draw(st.sampled_from(["prepare", "multiply", "conjugate", "estimate-g"]))
    if command in ("prepare", "conjugate"):
        args = ["a.json"]
        if command == "prepare":
            args += draw(options("c", C_VALUES))
        return [command, *args], [draw(DOCS)]
    args = ["a.json", "b.json", *draw(MANIPULATION_FLAGS), *draw(options("c", C_VALUES))]
    if command == "multiply":
        args += draw(st.sampled_from([[], ["--no-verify"]]))
    else:
        args += draw(options("shots", SHOTS)) + draw(options("seed", SEEDS))
    return [command, *args], [draw(DOCS), draw(DOCS)]


def run(argv, docs):
    """(exit code, stdout, stderr, warnings) of ``main(argv)`` with the
    documents written as a.json and b.json; argparse's own usage error
    counts as its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in zip(("a.json", "b.json"), docs):
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump(doc, fh)
        argv = [os.path.join(tmp, arg) if arg.endswith(".json") else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(
            out
        ), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocations())
def test_every_outcome_is_a_documented_exit_code(invocation):
    argv, docs = invocation
    code, out, err, caught = run(argv, docs)
    assert code in (0, 1, 2, 3, 4), (argv, code, err)
    assert not caught, (argv, caught)
    if code == 0:
        json.loads(out)
        assert err == ""
    else:
        assert err, (argv, code)
