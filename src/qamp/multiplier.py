"""The multiplication pipeline over the full register.

Starting from the joint state of the two encoded operands, the stages run
in this order:

  w0  contraction CNOTs: each first-operand column qubit toggles the
      matching second-operand row qubit, so terms whose inner indices agree
      land on R2 = 0
  w1  Hadamards over C1 fold the inner-index sum into the C1 = 0 slice
  w2  label algebra on (M1, M2) combines component products into real and
      imaginary parts of complex products, then K2 is relabeled so payload
      terms end at K2 = 0
  w3  both ancillae flip on the payload subspace (all of C1, R2, M2, K2
      in |0>), separating payload from garbage
  conditional measurement keeps the flagged branch and records its weight

Decoding the survivor on (M1, R1, C2, K1) yields the scaled product and
slack divided by a normalization factor; the branch weight recovers that
factor exactly, since payload amplitudes carry a uniform 2**-((n+1)/2)
prefactor going into the measurement.

:func:`flagged_state` is the one place this stage sequence, with the
optional manipulations ahead of w0, is written; :func:`run_pipeline` and
:func:`qamp.estimator.estimate_g` both read their results off its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexmat import ComplexMatrix, PreparedMatrix, dagger_oracle, matmul_oracle
from .conjugator import apply_q
from .encoder import EncodedBlock, decode, joint_amplitudes
from .errors import DimensionError, ParameterError
from .registers import RegisterLayout, layout_for
from .statevector import GateSpec, StateVector, apply_gates, project_and_renormalize

MANIPULATIONS = frozenset({"dagger1", "dagger2", "swap_order"})

#: (manipulation, conjugator stage) in circuit order: the operand exchange
#: first, then the second operand's conjugation, then the first's
MANIPULATION_STAGES = (("swap_order", 3), ("dagger2", 2), ("dagger1", 1))


def _check_manipulations(manipulations) -> frozenset:
    manips = frozenset(manipulations)
    unknown = manips - MANIPULATIONS
    if unknown:
        raise ParameterError(
            f"unknown manipulations {sorted(unknown)}; valid: {sorted(MANIPULATIONS)}"
        )
    return manips


@dataclass
class ProductResult:
    """Decoded output of one pipeline run.

    ``matrix_hat`` and ``b_hat`` are already un-normalized by ``g_exact``;
    multiplying ``matrix_hat`` entries by ``scale_back`` recovers the product
    of the original (unscaled) inputs.  When the operand exchange is active,
    ``matrix_hat`` is the decoded matrix after the documented transpose.
    """

    matrix_hat: ComplexMatrix
    b_hat: complex
    g_exact: float
    branch_probability: float
    oracle_error: float
    scale_back: float


def build_initial(pm1: PreparedMatrix, pm2: PreparedMatrix, layout: RegisterLayout) -> StateVector:
    """Joint state of both encoded operands over the full register.

    Amplitudes are the products of the two encodings' real amplitudes,
    written in one broadcast multiply; ancillae and any control flags start
    in |0>.
    """
    if pm1.n != pm2.n:
        raise DimensionError(f"operand widths differ: n={pm1.n} vs n={pm2.n}")
    if pm1.n != layout.n:
        raise DimensionError(f"layout is sized for n={layout.n}, operands have n={pm1.n}")
    operands = [
        (pm1, EncodedBlock.for_side(layout, "first")),
        (pm2, EncodedBlock.for_side(layout, "second")),
    ]
    return StateVector(layout.total_qubits, joint_amplitudes(layout, operands))


def apply_w0(state: StateVector, layout: RegisterLayout) -> StateVector:
    """Contraction CNOTs: C1 qubit j controls R2 qubit j, for every j."""
    return apply_gates(
        state, [GateSpec.cnot(cq, tq) for cq, tq in zip(layout.qubits("C1"), layout.qubits("R2"))]
    )


def apply_w1(state: StateVector, layout: RegisterLayout) -> StateVector:
    """Hadamard every C1 qubit, summing the contracted index into C1 = 0."""
    return apply_gates(state, [GateSpec.h(q) for q in layout.qubits("C1")])


def apply_w2(state: StateVector, layout: RegisterLayout) -> StateVector:
    """Label algebra combining component products into complex products.

    Controlled on M2 = 1 the M1 amplitudes rotate (|0> -> |1>, |1> -> -|0>),
    then a Hadamard on M2 folds the two columns together: the M2 = 0 slice
    now holds, on M1 = 0, products of real parts minus products of imaginary
    parts, and on M1 = 1 the mixed sums, each scaled by a further 1/sqrt(2).
    Finally K2 flips where K1 = 1, landing all payload terms on K2 = 0.
    """
    m1 = layout.start("M1")
    m2 = layout.start("M2")
    return apply_gates(
        state,
        [
            GateSpec.z(m1, ((m2, 1),)),
            GateSpec.x(m1, ((m2, 1),)),
            GateSpec.h(m2),
            GateSpec.cnot(layout.start("K1"), layout.start("K2")),
        ],
    )


def apply_w3(state: StateVector, layout: RegisterLayout) -> StateVector:
    """Flip both ancillae on the payload subspace.

    One gate with 2(n+1) polarity-0 controls, all of C1, R2, M2 and K2;
    payload and slack terms come out with B = BT = 1, garbage stays at 0.
    Expects B and BT in |0> on the active support.
    """
    controls = tuple(
        (q, 0)
        for q in (
            *layout.qubits("C1"),
            *layout.qubits("R2"),
            layout.start("M2"),
            layout.start("K2"),
        )
    )
    gate = GateSpec.multi_controlled_x((layout.start("B"), layout.start("BT")), controls)
    return apply_gates(state, (gate,))


def conditional_measure(state: StateVector, layout: RegisterLayout) -> tuple[StateVector, float]:
    """Project onto the flagged branch (BT = 1, equivalently B = 1) and
    renormalize; returns the branch's pre-projection weight."""
    return project_and_renormalize(state, layout.start("BT"), 1)


def _transpose(m: ComplexMatrix) -> ComplexMatrix:
    return ComplexMatrix(m.n, m.entries.T.copy())


def oracle_product(pm1: PreparedMatrix, pm2: PreparedMatrix, manipulations=()) -> tuple[ComplexMatrix, complex]:
    """Classical expected (matrix, slack) for a manipulation set.

    The compositions for active operand exchange were frozen from an
    amplitude-level expansion of the circuit (see the brute-force tests):
    the exchange transposes both operands inside their register pairs and
    crosses their label qubits, so a later conjugation stage acts on one
    operand's registers but the other operand's labels.  With the delivered
    matrix transposed per the documented convention this gives:

      exchange alone          -> A2 A1
      exchange + conjugate 1  -> transpose(A1 A2^dagger)
      exchange + conjugate 2  -> transpose(A1^dagger A2)
      exchange + both         -> (A1 A2)^dagger
    """
    manips = _check_manipulations(manipulations)
    d1 = "dagger1" in manips
    d2 = "dagger2" in manips
    a1, a2 = pm1.matrix, pm2.matrix
    b1, b2 = complex(pm1.b), complex(pm2.b)
    if "swap_order" not in manips:
        left = dagger_oracle(a1) if d1 else a1
        right = dagger_oracle(a2) if d2 else a2
        matrix = matmul_oracle(left, right)
        b_hat = (b1.conjugate() if d1 else b1) * (b2.conjugate() if d2 else b2)
    elif d1 and d2:
        matrix = matmul_oracle(dagger_oracle(a2), dagger_oracle(a1))
        b_hat = (b1 * b2).conjugate()
    elif d1:
        matrix = _transpose(matmul_oracle(a1, dagger_oracle(a2)))
        b_hat = b1 * b2.conjugate()
    elif d2:
        matrix = _transpose(matmul_oracle(dagger_oracle(a1), a2))
        b_hat = b1.conjugate() * b2
    else:
        matrix = matmul_oracle(a2, a1)
        b_hat = b1 * b2
    return matrix, b_hat


def flagged_state(
    pm1: PreparedMatrix, pm2: PreparedMatrix, manipulations, layout: RegisterLayout
) -> tuple[StateVector, float]:
    """Run the circuit up to and including the conditional measurement.

    Returns the renormalized flagged state and the branch's pre-projection
    weight.  ``manipulations`` must already be checked.
    """
    state = build_initial(pm1, pm2, layout)
    for name, which in MANIPULATION_STAGES:
        if name in manipulations:
            state = apply_q(state, which, layout)
    for stage in (apply_w0, apply_w1, apply_w2, apply_w3):
        state = stage(state, layout)
    return conditional_measure(state, layout)


def run_pipeline(
    pm1: PreparedMatrix,
    pm2: PreparedMatrix,
    manipulations=(),
    layout: RegisterLayout | None = None,
) -> ProductResult:
    """Run the whole circuit, decode, and verify against the classical oracle.

    Manipulations apply in the order of :data:`MANIPULATION_STAGES`.
    """
    manips = _check_manipulations(manipulations)
    if layout is None:
        layout = layout_for(pm1.n)
    state, branch_probability = flagged_state(pm1, pm2, manips, layout)

    # the flagged branch carries weight G^2 / 2^(n+1)
    g_exact = math.sqrt(branch_probability * float(1 << (layout.n + 1)))
    decoded, b_decoded, _residual = decode(state, EncodedBlock.pipeline_output(layout))
    entries = decoded.entries * g_exact
    if "swap_order" in manips:
        entries = entries.T.copy()
    matrix_hat = ComplexMatrix(layout.n, entries)
    b_hat = b_decoded * g_exact

    expected, _expected_b = oracle_product(pm1, pm2, manips)
    oracle_error = float(np.max(np.abs(matrix_hat.entries - expected.entries)))
    return ProductResult(
        matrix_hat=matrix_hat,
        b_hat=b_hat,
        g_exact=g_exact,
        branch_probability=float(branch_probability),
        oracle_error=oracle_error,
        scale_back=pm1.scale * pm2.scale,
    )


@dataclass(frozen=True)
class ResourceReport:
    """Analytic circuit-size accounting.

    The simulator applies multi-controlled gates directly, so these numbers
    describe the abstract circuit rather than the kernels.  The elementary
    depth of the payload-flagging gate follows a chained-Toffoli model for a
    gate with k controls (2k - 3 layers, plus one CNOT to copy onto the
    second ancilla), which is linear in the control count.
    """

    n: int
    qubits: int
    qubits_with_controls: int
    gate_counts: dict
    w3_control_qubits: int
    w3_elementary_depth: int
    depth_total: int


def resource_report(n: int) -> ResourceReport:
    """Qubit and gate counts for matrices of size 2**n.

    Total depth is dominated by the payload-flagging stage and grows
    linearly in n, i.e. logarithmically in the matrix size: the contraction
    CNOTs and the Hadamard layer each act on disjoint qubits (depth 1), the
    label algebra adds a constant, and each manipulation is at most 2n+1
    disjoint-qubit gates.
    """
    if n < 1:
        raise ParameterError(f"matrix register width must be at least 1, got {n}")
    w3_controls = 2 * (n + 1)
    w3_depth = (2 * w3_controls - 3) + 1
    depth_total = 1 + 1 + 3 + w3_depth
    gate_counts = {
        "w0_cnots": n,
        "w1_hadamards": n,
        "w2_gates": 3,
        "w3_gates": 1,
        "q1_gates": n + 1,
        "q2_gates": n + 1,
        "q3_gates": 2 * n + 1,
    }
    return ResourceReport(
        n=n,
        qubits=4 * n + 6,
        qubits_with_controls=4 * n + 9,
        gate_counts=gate_counts,
        w3_control_qubits=w3_controls,
        w3_elementary_depth=w3_depth,
        depth_total=depth_total,
    )
