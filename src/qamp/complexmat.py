"""Complex matrices, the slack-scaling transform, and classical product oracles.

Matrices are dense, square, and sized N = 2**n so row and column indices fit
an n-qubit register.  Where the algebra mirrors the real/imaginary label
convention of the quantum encoding, entries are handled through their
components a_jk = a_jk0 + i * a_jk1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, MethodUndefinedError, ParameterError, ValidationError

#: absolute per-entry tolerance when holding a decoded result against an oracle
ORACLE_TOL = 1e-10

#: amplitudes of one component's products in one block of
#: :func:`matmul_oracle`'s sum, a chunk of inner indices by a band of rows,
#: plus the slot for the running sum; a block holds all four components'
#: products and both parts' sums, up to six times this; 2**14 would put an
#: n = 5 run above four of w1's rows, and 2**12 made the n = 9 oracle half
#: as slow again
ORACLE_BLOCK = 1 << 13

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
        if abs(total - 1.0) > NORM_TOL:
            raise ValidationError(f"|b|^2 + weight = {total!r} deviates from 1 beyond {NORM_TOL}")
        s, c = self.s_original, self.c
        if not (c > 0) or not (s >= 0):  # also rejects NaN
            raise ValidationError(f"need c > 0 and s_original >= 0, got c={c!r}, s_original={s!r}")
        _check_scale(s, c, ValidationError)
        # scaling by 1/(s + c) maps weight s to s / (s + c)^2
        unscaled = w * self.scale * self.scale
        if abs(unscaled - s) > NORM_TOL * s:
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
    complex number s + c, through that reciprocal.
    """
    _check_c(c)
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
    (:func:`block_shape`, at most :data:`ORACLE_BLOCK` amplitudes per
    component), chunks of l in order.  Per block, one einsum writes all
    four component products for every (l, j, k) of the block, one addition
    combines them into re's and im's terms, and one reduction along l adds
    those onto the running sums of the band's rows, held in the first slot
    of each part; numpy reduces along that axis one slice after another, so
    in l order.  Each entry therefore rounds exactly as the scalar loop
    does.  (einsum writes a zero product as +0.0, but a sum that starts at
    +0.0 never holds -0.0, and adding either zero to it gives the same
    bits.)
    """
    if a.n != b.n:
        raise DimensionError(f"cannot multiply matrices of widths n={a.n} and n={b.n}")
    return ComplexMatrix(a.n, _matmul(a.entries, b.entries))


def _matmul(
    a: np.ndarray, b: np.ndarray, dagger_a=False, dagger_b=False, transpose=False
) -> np.ndarray:
    """The entries of :func:`matmul_oracle` of ``a`` and ``b``, each taken
    as its conjugate transpose when asked, and of the product's transpose
    when asked, read from the entries' components without building the
    daggered matrices: bit for bit ``matmul_oracle`` of
    :func:`dagger_oracle` and a transpose.

    The factors are stacked so that one einsum writes the four component
    products of a block: x = (a0, a1, a0, a1) against y = (b0, -b1, b1,
    b0).  One addition then makes re's a0*b0 + a1*(-b1) and im's
    a0*b1 + a1*b0, and one reduction along l adds both onto their running
    sums.  Every step is exact or rounds as the scalar loop does: negation
    and conjugation multiply by -1.0, a1*(-b1) is -(a1*b1) and p + (-q) is
    p - q in IEEE arithmetic.  The chunks of l go in order, each over every
    band of rows, so that a chunk of y stays in cache.
    """
    dim = len(a)
    # a's components as contiguous rows, so that row l is column l of the
    # factor; a sign of 1.0 leaves a component as it is, bit for bit
    view_a = a if dagger_a else a.T
    view_b = b.T if dagger_b else b
    sign_a, sign_b = (-1.0 if dagger else 1.0 for dagger in (dagger_a, dagger_b))
    x = np.empty((2, 2, dim, dim))  # (a0, a1) twice
    x[:, 0] = view_a.real
    np.multiply(view_a.imag, sign_a, out=x[:, 1])
    x = x.reshape(4, dim, dim)
    y = np.empty((4, dim, dim))  # (b0, -b1, b1, b0)
    y[0::3] = view_b.real
    np.multiply(view_b.imag, -sign_b, out=y[1])
    np.multiply(view_b.imag, sign_b, out=y[2])
    sums = np.zeros((2, dim, dim))  # re, im
    chunk, band = block_shape(dim, dim, dim, ORACLE_BLOCK)
    summed = np.empty(2 * (chunk + 1) * band * dim)
    products = np.empty(4 * chunk * band * dim)
    for l in range(0, dim, chunk):
        ls = slice(l, l + chunk)
        for j in range(0, dim, band):
            js = slice(j, j + band)
            shape = (min(chunk, dim - l), min(band, dim - j), dim)
            block = summed[: 2 * (shape[0] + 1) * shape[1] * dim].reshape(2, -1, *shape[1:])
            terms = products[: 4 * math.prod(shape)].reshape(4, *shape)
            np.copyto(block[:, 0], sums[:, js])
            np.einsum("plj,plk->pljk", x[:, ls, js], y[:, ls], out=terms)
            # re += a0*b0 + a1*(-b1) and im += a0*b1 + a1*b0, for each l in order
            np.add(terms[0::2], terms[1::2], out=block[:, 1:])
            np.add.reduce(block, axis=1, out=sums[:, js])
    out = np.empty((dim, dim), dtype=np.complex128)
    # set separately: re + 1j * im would turn an imaginary -0.0 into +0.0
    out.real, out.imag = (sums[0].T, sums[1].T) if transpose else sums
    return out


def dagger_oracle(a: ComplexMatrix) -> ComplexMatrix:
    """Conjugate transpose."""
    return ComplexMatrix(a.n, a.entries.conj().T.copy())


# --- file schema -----------------------------------------------------------
#
# Matrix document:   {"n": int, "entries": [[[re, im], ...], ...]}  row major
# Prepared document: the above plus {"b": [re, im], "s_original": f, "c": f}


def matrix_to_obj(m: ComplexMatrix) -> dict:
    return {
        "n": m.n,
        "entries": [[[float(v.real), float(v.imag)] for v in row] for row in m.entries],
    }


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
