"""Complex matrices, the slack-scaling transform, and classical product oracles.

Matrices are dense, square, and sized N = 2**n so row and column indices fit
an n-qubit register.  Where the algebra mirrors the real/imaginary label
convention of the quantum encoding, entries are handled through their
components a_jk = a_jk0 + i * a_jk1.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MethodUndefinedError, ParameterError, ValidationError, _integer, _real

#: absolute per-entry tolerance when holding a decoded result against an oracle
ORACLE_TOL = 1e-10

#: tolerance on the slack identity |b|^2 + sum |entries|^2 = 1, and relative
#: tolerance on the scale record weight * (s_original + c)^2 = s_original
NORM_TOL = 1e-12


@dataclass
class ComplexMatrix:
    """Dense square complex matrix of size 2**n x 2**n, entries finite,
    held as a C-contiguous complex128 copy of what the caller passed, or
    as a result the package has just computed (:meth:`_fresh`).

    Every entry must be a number: bools, strings and bytes, which numpy
    would read as 1, 0 or the number they spell, raise
    :class:`ValidationError`, and rows of different lengths
    :class:`DimensionError`.  An int, float or complex array is taken by
    its dtype alone; any other input is checked entry by entry."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        self.n = _integer(self.n, "register width", DimensionError)
        if self.n < 0:
            raise DimensionError(f"register width must be a nonnegative integer, got {self.n!r}")
        # no array holds 2**64 rows, so a wider n is refused without
        # computing 2**n, which alone can exhaust memory
        if self.n >= 64:
            raise DimensionError(f"register width {self.n} is too wide for any matrix")
        dim = 1 << self.n
        entries = self.entries
        if isinstance(entries, np.ndarray) and entries.dtype.kind != "O":
            bad = [] if entries.dtype.kind in "iufc" else [f"an array of {entries.dtype}"]
        else:
            try:
                entries = np.array(entries, dtype=object)
            except ValueError:  # rows nested so unevenly that no object array holds them
                raise DimensionError(
                    f"expected a {dim}x{dim} matrix for n={self.n}, got uneven rows"
                ) from None
            bad = sorted({t.__name__ for t in map(type, entries.flat) if not _is_number(t)})
        if entries.shape != (dim, dim):
            raise DimensionError(
                f"expected a {dim}x{dim} matrix for n={self.n}, got shape {entries.shape}"
            )
        if bad:
            raise ValidationError(f"matrix entries must be numbers, got {', '.join(bad)}")
        arr = np.array(entries, dtype=np.complex128, order="C")
        if not np.isfinite(arr).all():
            raise ValidationError("matrix entries must be finite")
        self.entries = arr

    @classmethod
    def _fresh(cls, n: int, entries: np.ndarray, *, finite: bool = False) -> ComplexMatrix:
        """A matrix holding ``entries`` itself, neither copied nor reshaped:
        a C-contiguous complex128 (2**n, 2**n) array that the package has
        just computed and holds no other reference to.  Its finiteness is
        scanned, as the constructor scans it, unless ``finite`` says that
        the computation cannot overflow."""
        if not finite and not np.isfinite(entries).all():
            raise ValidationError("matrix entries must be finite")
        matrix = object.__new__(cls)
        matrix.n, matrix.entries = n, entries
        return matrix

    @property
    def dim(self) -> int:
        return 1 << self.n

    def weight(self) -> float:
        """Sum of squared entry magnitudes; inf, without a warning, when
        the squares overflow float64, so that callers name the overflow."""
        with np.errstate(over="ignore"):
            return float(np.sum(np.abs(self.entries) ** 2))


@dataclass
class PreparedMatrix:
    """A scaled matrix plus the slack amplitude that tops its norm up to one.

    ``matrix`` holds the original input divided by (s_original + c), and
    ``b`` is chosen so that |b|^2 + sum of squared entry magnitudes equals
    one exactly.  :func:`prepare` guarantees both, and records s_original and
    c consistently with the scaled entries; :meth:`validate` rechecks all of
    it on hand-built instances.
    """

    matrix: ComplexMatrix
    b: complex
    s_original: float
    c: float

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def scale(self) -> float:
        """Factor mapping the scaled matrix back to the original input."""
        return self.s_original + self.c

    def validate(self) -> None:
        b = self.b
        if isinstance(b, bool) or not isinstance(b, (int, float, complex, np.number)):
            raise ValidationError(f"b must be a number, got {b!r}")
        s = _real(self.s_original, "s_original", ValidationError)
        c = _real(self.c, "c", ValidationError)
        w = self.matrix.weight()
        if w >= 1.0:
            raise ValidationError(f"scaled matrix weight {w} is not strictly below 1")
        try:
            total = abs(b) ** 2 + w
        except OverflowError:  # |b| or its square beyond float64
            total = math.inf
        if not abs(total - 1.0) <= NORM_TOL:  # also refuses a NaN slack
            raise ValidationError(f"|b|^2 + weight = {total!r} deviates from 1 beyond {NORM_TOL}")
        if not (c > 0) or not (s >= 0):  # also rejects NaN
            raise ValidationError(f"need c > 0 and s_original >= 0, got c={c!r}, s_original={s!r}")
        _check_scale(s, c, ValidationError)
        # scaling by 1/(s + c) maps weight s to s / (s + c)^2; where the
        # squares underflow, s and the weight are each off by up to half the
        # smallest subnormal, 2**-1074, per entry, and the weight's error is
        # scaled up by (s + c)^2
        scale = s + c
        unscaled = w * scale * scale
        underflow = self.matrix.dim**2 * 2.0**-1074 * (1.0 + scale * scale)
        if abs(unscaled - s) > NORM_TOL * s + underflow:
            raise ValidationError(
                f"s_original={s!r} and c={c!r} disagree with the entries: "
                f"weight * (s_original + c)^2 = {unscaled!r}"
            )


def _is_number(kind: type) -> bool:
    """Whether ``kind`` is a number type, a numpy one included, and not
    bool."""
    return issubclass(kind, (int, float, complex, np.number)) and not issubclass(kind, bool)


def _check_scale(s: float, c: float, error: type) -> None:
    """Raise ``error`` when the squared scale (s + c)^2 overflows float64:
    rescaling a product by (s1 + c)(s2 + c), or checking a scale record,
    would then read inf."""
    scale = s + c
    if not math.isfinite(scale * scale):
        raise error(f"the scale (s + c)^2 overflows float64 for s={s!r} and c={c!r}")


def _check_c(c: float) -> None:
    """Raise :class:`ParameterError` unless the slack parameter ``c`` is a
    positive and finite real number, not a bool."""
    if not (_real(c, "slack parameter c") > 0) or not math.isfinite(c):  # also rejects NaN
        raise ParameterError(f"slack parameter c must be positive and finite, got {c}")


def prepare(a: ComplexMatrix, c: float = 1.0, b_phase: float | None = None) -> PreparedMatrix:
    """Scale ``a`` by 1/(s + c), s its squared-magnitude sum, and attach slack.

    The slack amplitude is real and nonnegative unless ``b_phase`` is given.
    For c <= 1/4 certain weights s make the scaled sum reach 1, in which case
    no valid slack exists and a parameter error is raised; any c > 1/4 is safe
    for every finite input.  A c that is not finite, or whose squared scale
    (s + c)^2 overflows float64, is a parameter error too: the scale record
    could not be written as JSON or multiplied back.  So is an s + c whose
    reciprocal overflows: numpy divides a complex entry by it as by the
    complex number s + c, through that reciprocal.  A ``b_phase`` that is
    not a real number, is a bool, or is not finite is a parameter error:
    the slack would be rotated by a truth value, or be NaN.
    """
    _check_c(c)
    if b_phase is not None:
        if not math.isfinite(_real(b_phase, "slack phase b_phase")):
            raise ParameterError(f"slack phase b_phase must be finite, got {b_phase}")
    if not np.all(np.isfinite(a.entries)):
        raise ValidationError("matrix entries must be finite")
    s = a.weight()
    _check_scale(s, c, ParameterError)
    if math.isinf(1.0 / (s + c)):
        raise ParameterError(
            f"c={c} is too small for this matrix: 1/(s + c) overflows float64 for s={s!r}"
        )
    scaled = ComplexMatrix._fresh(a.n, a.entries / (s + c))
    w = scaled.weight()
    if w >= 1.0:
        raise ParameterError(
            f"c={c} is too small for this matrix: scaled weight {w} is not strictly below 1"
        )
    mag = math.sqrt(1.0 - w)
    b = complex(mag) if b_phase is None else mag * cmath.exp(1j * b_phase)
    return PreparedMatrix(matrix=scaled, b=complex(b), s_original=s, c=float(c))


def matmul_oracle(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Reference product accumulated entrywise from real/imaginary components.

    This is the independent check every decoded quantum product is held
    against, so it uses no matrix product or BLAS call, which would reorder
    the sums.  Every (j, k) entry accumulates, from +0.0 and over the inner
    index l in order, re += a0*b0 - a1*b1 and im += a0*b1 + a1*b0: the
    plain triple loop, as one complex einsum (:func:`_matmul`, handed a's
    transpose as one C-contiguous copy and b's entries as they are), numpy's
    complex product being the formula above.  Each entry therefore rounds
    exactly as the scalar loop does.

    That equality rests on numpy's einsum loop for complex128, not on
    arithmetic written here: it must add each entry's terms in l order and
    round each of the four real products, not fuse a0*b0 - a1*b1 into one
    multiply-add, as a build with FMA in its baseline and contraction on
    could.  numpy's own complex multiply does not keep it on an FMA
    machine.  The tests that hold this function byte for byte to the
    scalar loop on numpy float64 scalars (``matmul_oracle_numpy``), whose
    every operation rounds, and the order canary
    (``test_complexmat.py::TestEinsumOrder``) are what guard it on each
    platform and numpy version.
    """
    if a.n != b.n:
        raise DimensionError(f"cannot multiply matrices of widths n={a.n} and n={b.n}")
    return ComplexMatrix._fresh(a.n, _matmul(np.ascontiguousarray(a.entries.T), b.entries))


def _matmul(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The ordered sum over l of x[l, j] * y[l, k], entry (j, k), taken as
    :func:`matmul_oracle` takes it: x holds the first factor's columns as
    rows and y the second factor's rows, so that term l of entry (j, k) of
    their product is x[l, j] * y[l, k].  Both must be C-contiguous, but x
    may also be a band of a C-contiguous array's columns, written into
    ``out``, the matching band of rows of a C-contiguous result.  It also
    sums w1's K1 = K2 = 1 quarter on the run path
    (:func:`qamp.multiplier._w1_quarter`), on the operands' float64 factors
    with l the contracted index c, a band at a time, so one einsum carries
    the order that both sums rest on.

    One einsum takes the whole sum.  With both operands C-contiguous,
    numpy's iterator puts the summed index l outermost, so every entry adds
    its terms in l order, in place, onto the +0.0 that einsum writes first;
    a -0.0 term added to it gives +0.0, as in the scalar loop.  A band of
    x's columns keeps x's strides, so the iterator orders its axes alike,
    and each entry of the band adds the same terms in the same order.
    """
    return np.einsum("lj,lk->jk", x, y, out=out)


def dagger_oracle(a: ComplexMatrix) -> ComplexMatrix:
    """Conjugate transpose, one C-ordered copy (:func:`_dagger`):
    conjugating cannot overflow."""
    return ComplexMatrix._fresh(a.n, _dagger(a.entries), finite=True)


def _dagger(entries: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a square complex array, one C-ordered
    copy: the transpose copied, then conjugated in place, which takes numpy
    three quarters of the time of conjugating the transposed view into C
    order (0.89 against 1.18 us at 16 x 16), with the same bits, since
    conjugating is exact."""
    copy = entries.T.copy()
    return np.conjugate(copy, out=copy)


# --- file schema -----------------------------------------------------------
#
# Matrix document:   {"n": int, "entries": [[[re, im], ...], ...]}  row major
# Prepared document: the above plus {"b": [re, im], "s_original": f, "c": f}


def matrix_to_obj(m: ComplexMatrix) -> dict:
    pairs = np.ascontiguousarray(m.entries).view(np.float64).reshape(m.dim, m.dim, 2)
    return {"n": m.n, "entries": pairs.tolist()}


def _finite(value, where: str) -> float:
    """A document's number as a float: a real number, numpy ones included
    (:func:`qamp.errors._real`), that is finite; otherwise a
    :class:`ValidationError` naming the field ``where``."""
    number = _real(value, where, ValidationError)
    if not math.isfinite(number):
        raise ValidationError(f"{where} must be finite, got {value!r}")
    return number


def _pair(value, where: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise ValidationError(f"{where} must be a [re, im] pair")
    return complex(_finite(value[0], where), _finite(value[1], where))


def _numbers(entries: list, dim: int) -> list | None:
    """The components of ``entries`` in row-major order when it is ``dim``
    lists of ``dim`` [re, im] lists of ints and floats, bools excluded;
    otherwise None."""
    if not all(type(row) is list and len(row) == dim for row in entries):
        return None
    pairs = list(itertools.chain.from_iterable(entries))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    numbers = list(itertools.chain.from_iterable(pairs))
    return numbers if set(map(type, numbers)) <= {int, float} else None


def matrix_from_obj(obj) -> ComplexMatrix:
    """Parse the matrix document schema, naming the offending field on error."""
    if not isinstance(obj, dict):
        raise ValidationError("matrix document must be a JSON object")
    if "n" not in obj:
        raise ValidationError("missing field: n")
    n = _integer(obj["n"], "field n", ValidationError)
    if n < 0:
        raise ValidationError(f"field n must be a nonnegative integer, got {n!r}")
    if "entries" not in obj:
        raise ValidationError("missing field: entries")
    entries = obj["entries"]
    # no list holds 2**64 rows, so a wider n is refused without computing 2**n
    if n >= 64 or not isinstance(entries, list) or len(entries) != 1 << n:
        raise ValidationError(f"field entries must be a list of 2**{n} rows")
    dim = 1 << n
    numbers = _numbers(entries, dim)
    if numbers is not None:
        try:
            components = np.array(numbers, dtype=np.float64)
        except OverflowError:  # an integer beyond float64
            components = None
        if components is not None and np.isfinite(components).all():
            return ComplexMatrix._fresh(n, components.view(np.complex128).reshape(dim, dim), finite=True)
    # a check failed, or a number is of another type, such as a numpy
    # one: the walk names the first offending field, or reads the entries
    out = np.zeros((dim, dim), dtype=np.complex128)
    for j, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(f"entries[{j}] must be a list of {dim} [re, im] pairs")
        for k, pair in enumerate(row):
            out[j, k] = _pair(pair, f"entries[{j}][{k}]")
    return ComplexMatrix._fresh(n, out, finite=True)


def prepared_to_obj(pm: PreparedMatrix) -> dict:
    obj = matrix_to_obj(pm.matrix)
    obj["b"] = [float(pm.b.real), float(pm.b.imag)]
    obj["s_original"] = float(pm.s_original)
    obj["c"] = float(pm.c)
    return obj


def prepared_from_obj(obj) -> PreparedMatrix:
    """Parse and validate the prepared document schema.

    A zero slack amplitude is reported as :class:`MethodUndefinedError`: the
    strict weight inequality then fails, and the normalization recovery
    needs the slack.  Any other violation of :meth:`PreparedMatrix.validate`
    is a :class:`ValidationError`.
    """
    m = matrix_from_obj(obj)
    for key in ("b", "s_original", "c"):
        if key not in obj:
            raise ValidationError(f"missing field: {key}")
    b = _pair(obj["b"], "field b")
    pm = PreparedMatrix(
        matrix=m,
        b=b,
        s_original=_finite(obj["s_original"], "field s_original"),
        c=_finite(obj["c"], "field c"),
    )
    if pm.b == 0:
        raise MethodUndefinedError(
            "field b is zero: without slack the normalization recovery is undefined"
        )
    pm.validate()
    return pm
