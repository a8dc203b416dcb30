"""The package's top level is the run API that the README documents."""

from pathlib import Path

import qamp
from qamp import PreparedMatrix, conjugator, encoder, multiplier, registers, statevector

README = Path(__file__).resolve().parent.parent / "README.md"

RUN_API = [
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

#: the full-register reference, public only in the module that defines it
REFERENCE = {
    conjugator: [
        "apply_q",
        "hermitian_conjugate",
        "build_initial",
        "apply_w0",
        "apply_w1",
        "apply_w2",
        "apply_w3",
        "conditional_measure",
    ],
    encoder: ["EncodedBlock", "encode", "decode", "basis_index"],
    registers: ["RegisterLayout", "layout_for"],
    statevector: ["GateSpec", "StateVector", "init_basis", "project_and_renormalize"],
}

#: layers that had no caller of their own and are gone
DELETED = {statevector: "apply_gate", registers: "register_stage", PreparedMatrix: "from_scaled"}


def test_top_level_is_the_documented_run_api():
    assert qamp.__all__ == RUN_API
    readme = README.read_text()
    for name in RUN_API:
        assert hasattr(qamp, name), name
        assert f"`{name}`" in readme, name
    for module, names in REFERENCE.items():
        for name in names:
            assert hasattr(module, name) and not hasattr(qamp, name), name
    for owner, name in DELETED.items():
        assert not hasattr(owner, name) and not hasattr(qamp, name), name


def test_multiplier_forwards_the_replayed_stages():
    # perfbench's replay imports the full-register stages from
    # qamp.multiplier, which looks each up in qamp.conjugator on every
    # access and keeps none of them; any other missing name is refused
    for name in multiplier._FORWARDED:
        assert getattr(multiplier, name) is getattr(conjugator, name), name
        assert name not in vars(multiplier), name
    assert not hasattr(multiplier, "apply_q")
