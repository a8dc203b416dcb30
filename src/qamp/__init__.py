"""Amplitude-encoded complex matrices on a dense statevector simulator.

Matrices are stored in the probability amplitudes of a pure state with a
real/imaginary label qubit and a slack amplitude that relaxes the usual
unit-norm constraint on the entries.  On top of that encoding the package
implements conjugate transposition, a matrix-multiplication circuit with
operand manipulations and post-selection, and recovery of the normalization
factor by shot sampling; every decoded result is verified against an
independent classical linear-algebra oracle.
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
from .conjugator import apply_q, hermitian_conjugate
from .encoder import EncodedBlock, decode, encode
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
    apply_w0,
    apply_w1,
    apply_w2,
    apply_w3,
    build_initial,
    conditional_measure,
    oracle_product,
    resource_report,
    run_pipeline,
)
from .registers import RegisterLayout, basis_index, layout_for
from .statevector import (
    GateSpec,
    StateVector,
    apply_gate,
    init_basis,
    project_and_renormalize,
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
    "apply_q",
    "hermitian_conjugate",
    "EncodedBlock",
    "decode",
    "encode",
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
    "apply_w0",
    "apply_w1",
    "apply_w2",
    "apply_w3",
    "build_initial",
    "conditional_measure",
    "oracle_product",
    "resource_report",
    "run_pipeline",
    "RegisterLayout",
    "basis_index",
    "layout_for",
    "GateSpec",
    "StateVector",
    "apply_gate",
    "init_basis",
    "project_and_renormalize",
]
