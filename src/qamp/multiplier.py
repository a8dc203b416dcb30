"""The multiplication pipeline.

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

Only w3 and the measurement touch the ancillae B and BT, so
:func:`flagged_state` runs the build, the manipulations and w0..w2 on the
working layout, the full layout without the ancillae (4n+4 qubits, a
quarter of the full state), and :func:`flag_and_measure` brings the
ancillae in as it flags and measures.  The stage functions address
subsystems by name and run unchanged on either layout; :func:`apply_w3` and
:func:`conditional_measure` stay as the full-register reference.

Each of w0..w2 runs as one pass over the register view into a new state
rather than gate by gate: w0 is one XOR permutation of R2 by C1, w1 one
contraction of the C1 axis with the Sylvester Hadamard matrix, w2 one sum
or difference per (M2, M1) column written straight to its relabeled K2
slice.  w3 is a single multi-controlled gate of the gate engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexmat import ComplexMatrix, PreparedMatrix, dagger_oracle, matmul_oracle
from .conjugator import apply_q
from .encoder import EncodedBlock, check_memory, decode, joint_amplitudes
from .errors import DimensionError, MeasurementError, ParameterError
from .registers import RegisterLayout, layout_for, register_stage, register_view, select
from .statevector import _SQRT1_2, GateSpec, StateVector, apply_gates, project_and_renormalize

MANIPULATIONS = frozenset({"dagger1", "dagger2", "swap_order"})

#: the post-selection ancillae; only the payload flagging touches them
ANCILLAE = ("B", "BT")

#: subsystems that are all |0> exactly on the payload subspace, in the
#: order of w3's controls
PAYLOAD_ZEROS = ("C1", "R2", "M2", "K2")

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
    """Joint state of both encoded operands over ``layout``.

    Amplitudes are the products of the two encodings' real amplitudes,
    written by :func:`qamp.encoder.joint_amplitudes`; ancillae, if the
    layout has them, and any control flags start in |0>.
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
    """Contraction CNOTs: C1 qubit j controls R2 qubit j, for every j.

    Together they XOR C1 into R2, so each (R2, C1) slice of the output is
    copied from the input slice at R2 xor C1.
    """

    def kernel(src, dst, names):
        axes = (names.index("R2"), names.index("C1"))
        src, dst = np.moveaxis(src, axes, (0, 1)), np.moveaxis(dst, axes, (0, 1))
        for r2 in range(dst.shape[0]):
            for c1 in range(dst.shape[1]):
                dst[r2, c1] = src[r2 ^ c1, c1]

    return register_stage(state, layout, kernel)


def _sylvester(n: int) -> np.ndarray:
    """The 2**n x 2**n Hadamard transform, entries +-2**(-n/2)."""
    h = np.ones((1, 1))
    for _ in range(n):
        h = np.block([[h, h], [h, -h]])
    return h * 2.0 ** (-n / 2)


def apply_w1(state: StateVector, layout: RegisterLayout) -> StateVector:
    """Hadamard every C1 qubit, summing the contracted index into C1 = 0.

    The layer is one contraction of the C1 axis with the Sylvester
    Hadamard matrix, run as a batched matrix product.
    """
    hadamard = _sylvester(layout.n)

    def kernel(src, dst, names):
        axis = names.index("C1")
        shape = (-1, src.shape[axis], math.prod(src.shape[axis + 1 :]))
        np.matmul(hadamard, src.reshape(shape), out=dst.reshape(shape))

    return register_stage(state, layout, kernel)


def apply_w2(state: StateVector, layout: RegisterLayout) -> StateVector:
    """Label algebra combining component products into complex products.

    Controlled on M2 = 1 the M1 amplitudes rotate (|0> -> |1>, |1> -> -|0>),
    then a Hadamard on M2 folds the two columns together: the M2 = 0 slice
    now holds, on M1 = 0, products of real parts minus products of imaginary
    parts, and on M1 = 1 the mixed sums, each scaled by a further 1/sqrt(2).
    Finally K2 flips where K1 = 1, landing all payload terms on K2 = 0.

    Each output (M2, M1) column is one sum or difference of two input
    columns, written straight into its destination with K2 reversed where
    K1 = 1, and the whole output is then scaled once.
    """
    # (M2, M1) out <- (M2, M1) of the two input columns, combined by op
    columns = (
        ((0, 0), np.subtract, (0, 0), (1, 1)),
        ((1, 0), np.add, (0, 0), (1, 1)),
        ((0, 1), np.add, (0, 1), (1, 0)),
        ((1, 1), np.subtract, (0, 1), (1, 0)),
    )

    def kernel(src, dst, names):
        for k1, k2 in ((0, slice(None)), (1, slice(None, None, -1))):
            for (m2, m1), op, (a2, a1), (b2, b1) in columns:
                op(
                    select(src, names, {"K1": k1, "M2": a2, "M1": a1}),
                    select(src, names, {"K1": k1, "M2": b2, "M1": b1}),
                    out=select(dst, names, {"K1": k1, "K2": k2, "M2": m2, "M1": m1}),
                )
        np.multiply(dst, _SQRT1_2, out=dst)

    return register_stage(state, layout, kernel)


def apply_w3(state: StateVector, layout: RegisterLayout) -> StateVector:
    """Flip both ancillae on the payload subspace.

    One gate with 2(n+1) polarity-0 controls, all of C1, R2, M2 and K2;
    payload and slack terms come out with B = BT = 1, garbage stays at 0.
    Expects B and BT in |0> on the active support.
    """
    controls = tuple((q, 0) for name in PAYLOAD_ZEROS for q in layout.qubits(name))
    gate = GateSpec.multi_controlled_x([layout.start(name) for name in ANCILLAE], controls)
    return apply_gates(state, (gate,))


def conditional_measure(state: StateVector, layout: RegisterLayout) -> tuple[StateVector, float]:
    """Project onto the flagged branch (BT = 1, equivalently B = 1) and
    renormalize; returns the branch's pre-projection weight."""
    return project_and_renormalize(state, layout.start("BT"), 1)


def flag_and_measure(state: StateVector, layout: RegisterLayout) -> tuple[StateVector, float]:
    """:func:`apply_w3` followed by :func:`conditional_measure`, from a state
    on the working layout (``layout`` without the ancillae, which are taken
    to be in |0>).

    The flagged branch is the payload slice (C1, R2, M2, K2 all 0) moved to
    B = BT = 1, so it is written into a fresh zero state of ``layout``; its
    weight is read over the BT = 1 half exactly as the measurement reads it,
    and only that slice is renormalized.  The results are bit for bit those
    of the two full-register steps.
    """
    working = layout.without(*ANCILLAE)
    src, src_names = register_view(state.amplitudes, working)
    amps = np.zeros(1 << layout.total_qubits)
    dst, names = register_view(amps, layout)
    payload = {name: 0 for name in PAYLOAD_ZEROS}
    flagged = select(dst, names, {**payload, **{name: 1 for name in ANCILLAE}})
    flagged[...] = select(src, src_names, payload).reshape(flagged.shape)
    out = StateVector(layout.total_qubits, amps)
    bt = layout.start("BT")
    weight = out.probability(bt, 1)
    if weight == 0.0:
        raise MeasurementError(f"outcome 1 on qubit {bt} has zero probability", probability=0.0)
    np.divide(flagged, math.sqrt(weight), out=flagged)
    return out, weight


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

    Returns the renormalized flagged state on ``layout`` and the branch's
    pre-projection weight.  ``manipulations`` must already be checked.
    Everything before the flagging runs on the working layout, ``layout``
    without the ancillae, a quarter of the full state; the memory check is
    still made for the full layout, before anything is allocated.
    """
    check_memory(layout)
    working = layout.without(*ANCILLAE)
    state = build_initial(pm1, pm2, working)
    for name, which in MANIPULATION_STAGES:
        if name in manipulations:
            state = apply_q(state, which, working)
    for stage in (apply_w0, apply_w1, apply_w2):
        state = stage(state, working)
    return flag_and_measure(state, layout)


def run_pipeline(
    pm1: PreparedMatrix,
    pm2: PreparedMatrix,
    manipulations=(),
    layout: RegisterLayout | None = None,
    verify: bool = True,
) -> ProductResult:
    """Run the whole circuit, decode, and verify against the classical oracle.

    Manipulations apply in the order of :data:`MANIPULATION_STAGES`.  With
    ``verify`` false the oracle is not run and ``oracle_error`` is NaN.
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

    oracle_error = math.nan
    if verify:
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

    The simulator runs each stage as one register-level pass and the
    flagging of w3 as one slice copy, so these numbers describe the
    abstract circuit rather than the kernels.  The elementary
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
