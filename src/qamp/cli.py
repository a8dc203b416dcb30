"""Command-line front end: prepare, multiply, conjugate, estimate-g, report.

Matrix files are JSON objects {"n": int, "entries": [[[re, im], ...], ...]},
row major; prepared files add {"b": [re, im], "s_original": ..., "c": ...}.
Reports are JSON with every float printed at 17 significant digits so values
round-trip bit for bit.

No command builds a register state: ``multiply`` and ``estimate-g`` take
the pipeline's run path, and ``conjugate`` reads the conjugate transpose
straight off the prepared entries, the bits the conjugation circuit leaves
on the operand's own registers.

Exit codes: 0 success (and all requested verifications passed), 1 failed
verification, 2 parse/parameter problems, a post-selection branch of zero
weight or any other package error, 3 dimension mismatch, 4 the
normalization estimate is undefined (an operand without slack) or
unavailable.  :func:`main` maps each package error to its code in one
place and prints it as one ``error: <message>`` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import re
import sys

import numpy as np

from . import __version__
from .complexmat import (
    ComplexMatrix,
    ORACLE_TOL,
    _check_c,
    matrix_from_obj,
    matrix_to_obj,
    prepare,
    prepared_from_obj,
    prepared_to_obj,
)
from .errors import (
    DimensionError,
    EstimateUnavailableError,
    MethodUndefinedError,
    ParameterError,
    QampError,
    ValidationError,
    _width,
)
from .estimator import estimate_g
from .multiplier import RUNTIME_BYTES, oracle_product, require_memory, resource_report, run_pipeline
from .registers import layout_for

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DIMENSION = 3
EXIT_ESTIMATE = 4

DEFAULT_C = 1.0


# --- JSON emission -----------------------------------------------------------
# stdlib json prints shortest-repr floats; reports pin 17 significant digits
# instead, so the emitter is hand rolled.  A report holds only exact dicts,
# lists, strs, ints, floats, bools and None, and each of its lists holds
# scalars only or nests lists of floats of one shape, such as a matrix's
# rows of [re, im] pairs: the emitter looks each value's exact type up,
# writes such a float array with one %-template, and raises a TypeError
# naming the type of any other value, a list of dicts or a ragged list too.

_FLOAT = "%.17g"

#: exact type -> its text: ``"%.17g" % v`` prints what ``format(v, ".17g")``
#: prints, and ``encode_basestring_ascii`` is what ``json.dumps`` calls on a str
_SCALARS = {
    float: _FLOAT.__mod__,
    int: int.__repr__,
    str: json.encoder.encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _float_array(items: list) -> tuple[list, tuple]:
    """(shape, floats in row-major order) of ``items`` when it nests lists
    of one length per level, the innermost holding floats only, such as a
    matrix's rows of [re, im] pairs; otherwise a TypeError naming the first
    item that is neither a list nor a float, or a list when every item is
    one of those but the lists are ragged or not all at one depth."""
    shape = [len(items)]
    while True:
        kinds = set(map(type, items))
        if kinds == {float}:
            return shape, tuple(items)
        widths = set(map(len, items)) if kinds == {list} else set()
        if len(widths) != 1:
            odd = next((kind for kind in map(type, items) if kind not in (list, float)), list)
            raise TypeError(f"cannot serialize {odd.__name__}")
        shape += widths
        items = list(itertools.chain.from_iterable(items))


def _float_template(shape: list, indent: int) -> str:
    """The %-template that prints a float array of ``shape`` at ``indent``:
    innermost lists on one line, every other item on a line of its own."""
    if len(shape) == 1:
        return "[" + ", ".join([_FLOAT] * shape[0]) + "]"
    pad = "  " * indent
    item = pad + "  " + _float_template(shape[1:], indent + 1)
    return "[\n" + ",\n".join([item] * shape[0]) + "\n" + pad + "]"


def _emit(value, out: list, indent: int) -> None:
    kind = type(value)
    if kind in _SCALARS:
        out.append(_SCALARS[kind](value))
    elif kind is dict:
        _emit_dict(value, out, indent)
    elif kind is list:
        _emit_list(value, out, indent)
    else:
        raise TypeError(f"cannot serialize {kind.__name__}")


def _emit_dict(value: dict, out: list, indent: int) -> None:
    if not value:
        out.append("{}")
        return
    pad = "  " * indent
    last = len(value) - 1
    out.append("{\n")
    for i, (key, item) in enumerate(value.items()):
        out.append(f"{pad}  {json.encoder.encode_basestring_ascii(str(key))}: ")
        _emit(item, out, indent + 1)
        out.append(",\n" if i < last else "\n")
    out.append(pad + "}")


def _emit_list(items: list, out: list, indent: int) -> None:
    if set(map(type, items)) <= _SCALARS.keys():  # an empty list too
        out.append("[" + ", ".join([_SCALARS[type(item)](item) for item in items]) + "]")
        return
    shape, floats = _float_array(items)
    out.append(_float_template(shape, indent) % floats)


def dump_json(obj) -> str:
    out: list[str] = []
    _emit(obj, out, 0)
    return "".join(out) + "\n"


def _write_output(text: str, path: str | None) -> None:
    """Write a report to ``path``, or to standard output when it is None; a
    write that fails, a full disk or a closed pipe, is a parameter error."""
    if path is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            raise ParameterError(f"cannot write standard output: {exc.strerror or exc}") from None
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # a directory, no permission, ...
        raise ParameterError(f"cannot write {path}: {exc.strerror}") from None


def _write_report(args, fields: dict) -> None:
    """Write a command's report: the tool version, the command and every
    parsed argument but the command and its handler, in the parser's order,
    then ``fields``; to the command's ``--output``, or to standard output
    when it has no such option."""
    flags = {name: value for name, value in vars(args).items() if name not in ("command", "func")}
    report = {"version": __version__, "command": args.command, "flags": flags, **fields}
    _write_output(dump_json(report), getattr(args, "output", None))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"cannot read {path}: no such file") from None
    except OSError as exc:  # a directory, no permission, ...
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:
        # json.JSONDecodeError, text that is not UTF-8, an integer literal
        # past Python's digit limit, or nesting past the recursion limit
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None


def _load_operand(path: str, c: float):
    """A matrix file is prepared here with slack parameter ``c``; a prepared
    file (recognized by its b field) is taken as is."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "b" in obj:
        return prepared_from_obj(obj)
    return prepare(matrix_from_obj(obj), c)


# --- commands ----------------------------------------------------------------


def cmd_prepare(args) -> int:
    matrix = matrix_from_obj(_load_json(args.input))
    pm = prepare(matrix, args.c)
    _write_output(dump_json(prepared_to_obj(pm)), args.output)
    return EXIT_OK


#: manipulation -> the option that asks for it
MANIPULATION_OPTIONS = {"dagger1": "dagger_a", "dagger2": "dagger_b", "swap_order": "swap_order"}


def _add_operand_arguments(p: argparse.ArgumentParser) -> None:
    """The two operands, the manipulation flags and the slack parameter for
    raw inputs, shared by ``multiply`` and ``estimate-g``."""
    p.add_argument("a", help="first operand (matrix or prepared JSON file)")
    p.add_argument("b", help="second operand (matrix or prepared JSON file)")
    p.add_argument("--dagger-a", action="store_true", help="conjugate-transpose the first operand")
    p.add_argument("--dagger-b", action="store_true", help="conjugate-transpose the second operand")
    p.add_argument("--swap-order", action="store_true", help="exchange the operands' roles")
    p.add_argument("--c", type=float, default=DEFAULT_C, help="slack parameter for raw inputs")


def _load_operands(args):
    """(first operand, second operand, manipulations) from the arguments of
    :func:`_add_operand_arguments`.  ``--c`` is checked even when both
    operands are prepared files, since the report echoes it."""
    _check_c(args.c)
    manips = {name for name, option in MANIPULATION_OPTIONS.items() if getattr(args, option)}
    return _load_operand(args.a, args.c), _load_operand(args.b, args.c), manips


def cmd_multiply(args) -> int:
    pm1, pm2, manips = _load_operands(args)
    result = run_pipeline(pm1, pm2, manips, verify=args.verify)
    # scaling back can overflow, so the fresh product is scanned
    rescaled = ComplexMatrix._fresh(result.matrix_hat.n, result.matrix_hat.entries * result.scale_back)

    report = {
        "layout": layout_for(pm1.n).summary(),
        "manipulations": sorted(manips),
        "matrix_hat": matrix_to_obj(result.matrix_hat),
        "matrix_hat_rescaled": matrix_to_obj(rescaled),
        "b_hat": [result.b_hat.real, result.b_hat.imag],
        "g": result.g_exact,
        "branch_probability": result.branch_probability,
        "scale_back": result.scale_back,
    }
    ok = True
    if args.verify:
        ok = result.oracle_error <= ORACLE_TOL
        report["verify"] = {
            "oracle_error": result.oracle_error,
            "tolerance": ORACLE_TOL,
            "pass": ok,
        }
    _write_report(args, report)
    if not ok:
        expected, _ = oracle_product(pm1, pm2, manips)
        diff = np.abs(result.matrix_hat.entries - expected.entries)
        j, k = np.unravel_index(int(np.argmax(diff)), diff.shape)
        print(
            f"verification failed: max error {result.oracle_error:.3e} at entry "
            f"({j}, {k}) exceeds {ORACLE_TOL}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


def cmd_conjugate(args) -> int:
    matrix = matrix_from_obj(_load_json(args.input))
    _width(matrix.n)
    # the parsed and the prepared entries, their conjugate transpose and the
    # result's copy, 16 bytes an entry each
    needed = 4 * 16 * matrix.dim**2 + RUNTIME_BYTES
    require_memory(matrix.n, needed, "the entries it holds and the runtime")
    pm = prepare(matrix, DEFAULT_C)
    # the operand's entries after its conjugation circuit, scaled back
    entries = np.conjugate(pm.matrix.entries.T, order="C")
    np.multiply(entries, pm.scale, out=entries)
    _write_output(dump_json(matrix_to_obj(ComplexMatrix._fresh(matrix.n, entries))), args.output)
    return EXIT_OK


def cmd_estimate_g(args) -> int:
    pm1, pm2, manips = _load_operands(args)
    est = estimate_g(pm1, pm2, manips, shots=args.shots, seed=args.seed)
    report = {
        "s1": est.s1,
        "s1_tilde_exact": est.s1_tilde_exact,
        "s1_tilde_sampled": est.s1_tilde_sampled,
        "g_exact": est.g_exact,
        "g_hat": est.g_hat,
        "stderr": est.stderr,
        "shots": est.shots,
        "seed": est.seed,
        "nominal_runs": est.nominal_runs,
    }
    _write_report(args, report)
    return EXIT_OK


def cmd_report(args) -> int:
    _write_report(args, dataclasses.asdict(resource_report(args.n)))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes a negative number in exponent form
    (``--c -1e-5``), or ``-inf`` or ``-nan``, as an option's value, as it
    takes ``-1`` or ``-0.5``, rather than as an unknown option; its
    subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so :func:`main` reuses it for every call."""
    parser = _Parser(
        prog="qamp",
        description="Amplitude-encoded matrix operations on a statevector simulator.",
    )
    parser.add_argument("--version", action="version", version=f"qamp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="scale a matrix and attach its slack amplitude")
    p.add_argument("input", help="matrix JSON file")
    p.add_argument("--c", type=float, default=DEFAULT_C, help="slack parameter (default 1.0)")
    p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("multiply", help="run the multiplication pipeline on two inputs")
    _add_operand_arguments(p)
    p.add_argument(
        "--verify",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="check the decoded product against the classical oracle (default on)",
    )
    p.add_argument("--output", "-o", default=None, help="report path (default stdout)")
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("conjugate", help="conjugate-transpose a matrix")
    p.add_argument("input", help="matrix JSON file")
    p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("estimate-g", help="recover the normalization factor by sampling")
    _add_operand_arguments(p)
    p.add_argument("--shots", type=int, default=100_000, help="number of sampled runs")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.set_defaults(func=cmd_estimate_g)

    p = sub.add_parser("report", help="analytic qubit/gate/depth accounting")
    p.add_argument("--n", type=int, required=True, help="matrix register width")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QampError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DimensionError):
            return EXIT_DIMENSION
        if isinstance(exc, (MethodUndefinedError, EstimateUnavailableError)):
            return EXIT_ESTIMATE
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
