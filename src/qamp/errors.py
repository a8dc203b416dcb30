"""Exception types shared across the package, and the argument rules that
raise them.

Every module imports this one, so the rules on an argument's type are
written here once, each with one message:

- :func:`_integer`: an integer, a numpy one included, and never a bool
  ("... must be an integer, not a bool, got ...");
- :func:`_real`: a real number, numpy ones included, never a bool, that
  fits in float64 ("... must be a real number, got ...");
- :func:`_width`: a matrix register width, an integer of at least 1.

``int()`` or ``float()`` alone would floor 2.9 to 2, read "1" as 1 and
take True for 1, and numpy indexes with a bool as with a mask.  The
first two rules take the error class to raise, since their callers raise
three: :class:`DimensionError` for a matrix's width,
:class:`ValidationError` for a document's field and
:class:`ParameterError` for everything else.  Ranges (nonnegative, 0 or 1,
at most ``MAX_SHOTS``, finite) stay with the callers that impose them.
"""

import numpy as np


class QampError(Exception):
    """Base class for all package errors."""


class DimensionError(QampError, ValueError):
    """Shapes or register widths do not line up."""


class ParameterError(QampError, ValueError):
    """A scalar parameter or selector is outside its allowed range."""


class ValidationError(QampError, ValueError):
    """Data violates a structural invariant (finiteness, norm, file schema)."""


class MeasurementError(QampError, RuntimeError):
    """A projective measurement was requested for an outcome of zero weight."""


class MethodUndefinedError(QampError, RuntimeError):
    """The normalization-recovery ratio is undefined for these inputs."""


class EstimateUnavailableError(QampError, RuntimeError):
    """Sampling produced no usable counts for the requested estimate."""


def _integer(value, what: str, error: type = ParameterError) -> int:
    """``value`` as an int once it is checked to be an integer, a numpy one
    included, and not a bool; otherwise ``error`` naming ``what`` and the
    value."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, not a bool, got {value!r}")
    return int(value)


def _real(value, what: str, error: type = ParameterError) -> float:
    """``value`` as a float once it is checked to be a real number, a numpy
    one included, and not a bool; otherwise, or for an integer beyond
    float64, ``error`` naming ``what`` and the value."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # only a Python int overflows
        raise error(f"{what} must fit in float64, got an integer of {value.bit_length()} bits") from None


def _width(n) -> int:
    """``n`` as an int once it is checked to be a matrix register width, an
    integer (:func:`_integer`) of at least 1; otherwise a
    :class:`ParameterError`."""
    n = _integer(n, "matrix register width")
    if n < 1:
        raise ParameterError(f"matrix register width must be at least 1, got {n}")
    return n
