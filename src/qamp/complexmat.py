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
from typing import Sequence

import numpy as np

from .errors import DimensionError, MethodUndefinedError, ParameterError, ValidationError

#: absolute per-entry tolerance when holding a decoded result against an oracle
ORACLE_TOL = 1e-10

#: complex amplitudes in one block of :func:`matmul_oracle`'s sum, a chunk
#: of inner indices by a band of rows plus the slot for the band's running
#: sum, 256 KiB; 2**13 made the n = 9 oracle 15 % slower, and 2**15, at
#: most 5 % faster there, would put an n = 5 run above four of w1's rows
ORACLE_BLOCK = 1 << 14

#: tolerance on the slack identity |b|^2 + sum |entries|^2 = 1, and relative
#: tolerance on the scale record weight * (s_original + c)^2 = s_original
NORM_TOL = 1e-12


@dataclass
class ComplexMatrix:
    """Dense square complex matrix of size 2**n x 2**n, entries finite."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise DimensionError(f"register width must be a nonnegative integer, got {self.n!r}")
        self.n = int(self.n)
        dim = 1 << self.n
        arr = np.array(self.entries, dtype=np.complex128)
        if arr.shape != (dim, dim):
            raise DimensionError(
                f"expected a {dim}x{dim} matrix for n={self.n}, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValidationError("matrix entries must be finite")
        self.entries = arr

    @property
    def dim(self) -> int:
        return 1 << self.n

    def weight(self) -> float:
        """Sum of squared entry magnitudes; inf, without a warning, when
        the squares overflow float64, so that callers name the overflow."""
        with np.errstate(over="ignore"):
            return float(np.sum(np.abs(self.entries) ** 2))

    def copy(self) -> "ComplexMatrix":
        return ComplexMatrix(self.n, self.entries.copy())


def _square_matrix(entries) -> ComplexMatrix:
    arr = np.array(entries, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    dim = arr.shape[0]
    n = dim.bit_length() - 1
    if dim < 1 or (1 << n) != dim:
        raise DimensionError(f"matrix side {dim} is not a power of two")
    return ComplexMatrix(n, arr)


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
        w = self.matrix.weight()
        if w >= 1.0:
            raise ValidationError(f"scaled matrix weight {w} is not strictly below 1")
        try:
            total = abs(self.b) ** 2 + w
        except OverflowError:  # |b| or its square beyond float64
            total = math.inf
        if not abs(total - 1.0) <= NORM_TOL:  # also refuses a NaN slack
            raise ValidationError(f"|b|^2 + weight = {total!r} deviates from 1 beyond {NORM_TOL}")
        s, c = self.s_original, self.c
        if not (c > 0) or not (s >= 0):  # also rejects NaN
            raise ValidationError(f"need c > 0 and s_original >= 0, got c={c!r}, s_original={s!r}")
        _check_scale(s, c, ValidationError)
        # scaling by 1/(s + c) maps weight s to s / (s + c)^2; where the
        # squares underflow, s and the weight are each off by up to half the
        # smallest subnormal, 2**-1074, per entry, and the weight's error is
        # scaled up by (s + c)^2
        unscaled = w * self.scale * self.scale
        underflow = self.matrix.dim**2 * 2.0**-1074 * (1.0 + self.scale * self.scale)
        if abs(unscaled - s) > NORM_TOL * s + underflow:
            raise ValidationError(
                f"s_original={s!r} and c={c!r} disagree with the entries: "
                f"weight * (s_original + c)^2 = {unscaled!r}"
            )

    @classmethod
    def from_scaled(cls, matrix, b_phase: float = 0.0) -> "PreparedMatrix":
        """Wrap an already-scaled matrix, assigning the unit scale record.

        The slack magnitude is forced by the unit-norm identity; ``b_phase``
        rotates it in the complex plane.  The recorded (s_original, c) pair is
        the unique consistent one with s_original + c = 1.
        """
        m = matrix if isinstance(matrix, ComplexMatrix) else _square_matrix(matrix)
        w = m.weight()
        if w >= 1.0:
            raise ParameterError(f"scaled matrix weight {w} must be strictly below 1")
        b = math.sqrt(1.0 - w) * cmath.exp(1j * b_phase)
        return cls(matrix=m.copy(), b=complex(b), s_original=w, c=1.0 - w)


def pad_to_square(rows: Sequence[Sequence[complex]]) -> ComplexMatrix:
    """Embed a rectangular array into the smallest 2**n square, zero padded."""
    rows = [list(r) for r in rows]
    if len(rows) == 0:
        raise DimensionError("cannot pad an empty matrix")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DimensionError(f"rows have inconsistent lengths {sorted(widths)}")
    (cols,) = widths
    if cols == 0:
        raise DimensionError("cannot pad a matrix with empty rows")
    side = max(len(rows), cols)
    n = (side - 1).bit_length()
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[: len(rows), :cols] = np.array(rows, dtype=np.complex128)
    return ComplexMatrix(n, out)


def _check_scale(s: float, c: float, error: type) -> None:
    """Raise ``error`` when the squared scale (s + c)^2 overflows float64:
    rescaling a product by (s1 + c)(s2 + c), or checking a scale record,
    would then read inf."""
    scale = s + c
    if not math.isfinite(scale * scale):
        raise error(f"the scale (s + c)^2 overflows float64 for s={s!r} and c={c!r}")


def _check_c(c: float) -> None:
    """Raise :class:`ParameterError` unless the slack parameter ``c`` is
    positive and finite."""
    if not (c > 0) or not math.isfinite(c):  # also rejects NaN
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
    not finite is a parameter error: the slack would be NaN.
    """
    _check_c(c)
    if b_phase is not None and not math.isfinite(b_phase):
        raise ParameterError(f"slack phase b_phase must be finite, got {b_phase}")
    if not np.all(np.isfinite(a.entries)):
        raise ValidationError("matrix entries must be finite")
    s = a.weight()
    _check_scale(s, c, ParameterError)
    if math.isinf(1.0 / (s + c)):
        raise ParameterError(
            f"c={c} is too small for this matrix: 1/(s + c) overflows float64 for s={s!r}"
        )
    scaled = ComplexMatrix(a.n, a.entries / (s + c))
    w = scaled.weight()
    if w >= 1.0:
        raise ParameterError(
            f"c={c} is too small for this matrix: scaled weight {w} is not strictly below 1"
        )
    mag = math.sqrt(1.0 - w)
    b = complex(mag) if b_phase is None else mag * cmath.exp(1j * b_phase)
    return PreparedMatrix(matrix=scaled, b=complex(b), s_original=s, c=float(c))


def block_shape(terms: int, rows: int, width: int, cap: int) -> tuple[int, int]:
    """(chunk, band) for an ordered sum of ``terms`` arrays of shape
    (``rows``, ``width``) taken a block at a time: ``chunk`` terms by
    ``band`` rows, plus one slot for the band's running sum, in at most
    ``cap`` amplitudes, or one term and one row when even that is larger."""
    chunk = min(terms, max(1, cap // width - 1))
    band = min(rows, max(1, cap // ((chunk + 1) * width)))
    return chunk, band


def matmul_oracle(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Reference product accumulated entrywise from real/imaginary components.

    This is the independent check every decoded quantum product is held
    against, so it uses no matrix product or BLAS call, which would reorder
    the sums.  Every (j, k) entry accumulates, from +0.0 and over the inner
    index l in order, re += a0*b0 - a1*b1 and im += a0*b1 + a1*b0: the
    plain triple loop, run a block of (l, j) values at a time
    (:func:`block_shape`, at most :data:`ORACLE_BLOCK` complex amplitudes),
    chunks of l in order.  Per block, one complex einsum writes the term
    a[j, l] * b[l, k] for every (l, j, k) of the block, numpy's complex
    product being the formula above, and one reduction along l adds the
    terms onto the running sums of the band's rows, held in the block's
    first slot; numpy reduces along that axis one slice after another, so
    in l order.  Each entry therefore rounds exactly as the scalar loop
    does.  (einsum writes a zero product as +0.0, but a sum that starts at
    +0.0 never holds -0.0, and adding either zero to it gives the same
    bits.)

    That equality rests on numpy's einsum loop for complex128, not on
    arithmetic written here: it must round each of the four real products
    and not fuse a0*b0 - a1*b1 into one multiply-add, as a build with FMA
    in its baseline and contraction on could.  numpy's own complex
    multiply does not keep it on an FMA machine.  The tests that hold
    this function byte for byte to the scalar loop on numpy float64
    scalars (``matmul_oracle_numpy``), whose every operation rounds, are
    what guard it on each platform and numpy version.
    """
    if a.n != b.n:
        raise DimensionError(f"cannot multiply matrices of widths n={a.n} and n={b.n}")
    return ComplexMatrix(a.n, _matmul(a.entries, b.entries))


def _matmul(
    a: np.ndarray, b: np.ndarray, dagger_a=False, dagger_b=False, transpose=False
) -> np.ndarray:
    """The entries of :func:`matmul_oracle` of ``a`` and ``b``, each taken
    as its conjugate transpose when asked, and of the product's transpose
    when asked, read from the entries without building the daggered
    matrices: bit for bit ``matmul_oracle`` of :func:`dagger_oracle` and a
    transpose.

    x holds the first factor's columns as rows, conj(a) or a's transpose,
    and y the second factor's rows, conj(b)'s transpose or b, so that
    x[l, j] * y[l, k] is term l of entry (j, k).  One complex einsum
    writes the terms of a block, and numpy's complex product is the scalar
    loop's x0*y0 - x1*y1 and x0*y1 + x1*y0 as long as einsum does not fuse
    them (see :func:`matmul_oracle`); one reduction along l adds them onto
    the band's running sums.  Conjugation is exact, so every step rounds
    as the scalar loop does.  The chunks of l go in order,
    each over every band of rows, so that a chunk of y stays in cache.
    """
    dim = len(a)
    x = np.conjugate(a) if dagger_a else np.ascontiguousarray(a.T)
    y = np.conjugate(b.T, out=np.empty_like(b)) if dagger_b else b
    sums = np.zeros((dim, dim), dtype=np.complex128)
    chunk, band = block_shape(dim, dim, dim, ORACLE_BLOCK)
    slots = np.empty((chunk + 1) * band * dim, dtype=np.complex128)
    for l in range(0, dim, chunk):
        for j in range(0, dim, band):
            rows = sums[j : j + band]
            factors = x[l : l + chunk, j : j + band]
            block = slots[: (len(factors) + 1) * rows.size].reshape(-1, *rows.shape)
            np.copyto(block[0], rows)
            np.einsum("lj,lk->ljk", factors, y[l : l + chunk], out=block[1:])
            np.add.reduce(block, axis=0, out=rows)
    return np.ascontiguousarray(sums.T) if transpose else sums


def dagger_oracle(a: ComplexMatrix) -> ComplexMatrix:
    """Conjugate transpose."""
    return ComplexMatrix(a.n, a.entries.conj().T.copy())


# --- file schema -----------------------------------------------------------
#
# Matrix document:   {"n": int, "entries": [[[re, im], ...], ...]}  row major
# Prepared document: the above plus {"b": [re, im], "s_original": f, "c": f}


def matrix_to_obj(m: ComplexMatrix) -> dict:
    pairs = np.ascontiguousarray(m.entries).view(np.float64).reshape(m.dim, m.dim, 2)
    return {"n": m.n, "entries": pairs.tolist()}


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValidationError(
            f"{where} must fit in float64, got an integer of {value.bit_length()} bits"
        ) from None
    if not math.isfinite(number):
        raise ValidationError(f"{where} must be finite, got {value!r}")
    return number


def _pair(value, where: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise ValidationError(f"{where} must be a [re, im] pair")
    return complex(_require_number(value[0], where), _require_number(value[1], where))


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
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
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
            return ComplexMatrix(n, components.view(np.complex128).reshape(dim, dim))
    # a check failed, or a number is of a subclass of int or float: the
    # walk names the first offending field, or reads the entries
    out = np.zeros((dim, dim), dtype=np.complex128)
    for j, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(f"entries[{j}] must be a list of {dim} [re, im] pairs")
        for k, pair in enumerate(row):
            out[j, k] = _pair(pair, f"entries[{j}][{k}]")
    return ComplexMatrix(n, out)


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
        s_original=_require_number(obj["s_original"], "field s_original"),
        c=_require_number(obj["c"], "field c"),
    )
    if pm.b == 0:
        raise MethodUndefinedError(
            "field b is zero: without slack the normalization recovery is undefined"
        )
    pm.validate()
    return pm
