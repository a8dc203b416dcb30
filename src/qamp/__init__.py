"""Amplitude-encoded complex matrices on a dense statevector simulator.

Matrices are stored in the probability amplitudes of a pure state with a
real/imaginary label qubit and a slack amplitude that relaxes the usual
unit-norm constraint on the entries.  On top of that encoding the package
implements conjugate transposition, a matrix-multiplication circuit with
operand manipulations and post-selection, and recovery of the normalization
factor by shot sampling; every decoded result is verified against an
independent classical linear-algebra oracle.

The top level is the run API: the matrices and their documents, the
oracles, the errors, :func:`run_pipeline`, :func:`estimate_g` and the
resource count.  The full-register reference that the tests hold the run
to stays public in the modules that define it: the gate engine in
:mod:`qamp.statevector`, the layout in :mod:`qamp.registers`, the
encoding in :mod:`qamp.encoder`, the manipulations and the conjugation in
:mod:`qamp.conjugator`, and the build, w0..w3 and the conditional
measurement in :mod:`qamp.multiplier`.
"""

__version__ = "0.1.0"

from .complexmat import (
    ComplexMatrix,
    ORACLE_TOL,
    PreparedMatrix,
    dagger_oracle,
    matmul_oracle,
    matrix_from_obj,
    matrix_to_obj,
    prepare,
    prepared_from_obj,
    prepared_to_obj,
)
from .errors import (
    DimensionError,
    EstimateUnavailableError,
    MeasurementError,
    MethodUndefinedError,
    ParameterError,
    QampError,
    ValidationError,
)
from .estimator import GEstimate, estimate_g
from .multiplier import (
    MANIPULATIONS,
    ProductResult,
    ResourceReport,
    oracle_product,
    resource_report,
    run_pipeline,
)

__all__ = [
    "__version__",
    "ComplexMatrix",
    "ORACLE_TOL",
    "PreparedMatrix",
    "dagger_oracle",
    "matmul_oracle",
    "matrix_from_obj",
    "matrix_to_obj",
    "prepare",
    "prepared_from_obj",
    "prepared_to_obj",
    "QampError",
    "DimensionError",
    "ParameterError",
    "ValidationError",
    "MeasurementError",
    "MethodUndefinedError",
    "EstimateUnavailableError",
    "GEstimate",
    "estimate_g",
    "MANIPULATIONS",
    "ProductResult",
    "ResourceReport",
    "oracle_product",
    "resource_report",
    "run_pipeline",
]
