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

The run path computes only the backward light cone of the flagged branch:
the same circuit and kernels, evaluated only where an amplitude can still
reach the payload slice (C1, R2, M2 and K2 all 0) that the measurement
keeps.  Only w3 and the measurement touch the ancillae B and BT, so the
register before them is the full layout without the ancillae, repacked in
:data:`KERNEL_ORDER`, a private order that suits the kernels
(:func:`working_layout`): C1 is the outermost axis of the register view and
K2, K1, M2, M1 come next, so w1 is one matrix product over C1 and every
pin of w2 selects whole blocks of the inner registers.  The canonical
layout stays the public qubit convention.  Walking back from the flagged
branch:

- w2 reads only the C1 = R2 = 0 slice of its input,
- w1's C1 = 0 row reads every C1 value, but only at R2 = 0,
- w0 fills (C1 = c, R2 = 0) from the build's (C1 = c, R2 = c).

So a run is:

- The build writes the manipulations and w0, on R2 = 0 only
  (:func:`cone_layout`, 3n+4 qubits, 2**-(n+2) of the full state).  Each
  manipulation is a signed permutation of one operand's encoding, so it
  renames the operands' subsystems and signs a component tensor
  (:func:`qamp.conjugator.apply_q_to_operands`), and the C1 = c slice is
  the first operand's factor at C1 = c times the second's at R2 = c
  (``_build_through_w0``).
- w1 is the C1 = 0 row of its matrix product (``_w1_row``), a state on
  ``cone_layout(layout).without("C1")``, and w2 is one pass over that row.
- :func:`flag_and_measure` copies out just the payload block (M1, R1, C2,
  K1 and any control flags, 2**(2n+2) amplitudes without flags) in the
  canonical order of ``payload_block(layout).layout``; the product and the
  estimator's K1 weight are read from it.

The stage functions address subsystems by name and run unchanged on any
layout.  :func:`build_initial` and :func:`apply_w0`..:func:`apply_w3` on the
whole register, and :func:`conditional_measure`, stay as the full-register
reference, and the run path's block and weight are bit for bit theirs.

As public stages, w0..w2 each run as one pass over the register view into
a new state rather than gate by gate: w0 is one XOR permutation of R2 by
C1, w1 one contraction of the C1 axis with the Sylvester Hadamard matrix,
w2 one sum or difference per (M2, M1) column written straight to its
relabeled K2 slice.  w3 is a single multi-controlled gate of the gate engine.

Before allocating, a run is refused when its :func:`peak_bytes` (two
cone states, the payload block and :data:`RUNTIME_BYTES`) exceed physical
memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexmat import ComplexMatrix, PreparedMatrix, dagger_oracle, matmul_oracle
from .conjugator import apply_q_to_operands
from .encoder import (
    EncodedBlock,
    _components,
    _spread,
    joint_amplitudes,
    read_block,
    require_memory,
)
from .errors import DimensionError, MeasurementError, ParameterError
from .registers import RegisterLayout, layout_for, register_stage, register_view, select
from .statevector import (
    _SQRT1_2,
    GateSpec,
    StateVector,
    _weight,
    apply_gates,
    project_and_renormalize,
)

MANIPULATIONS = frozenset({"dagger1", "dagger2", "swap_order"})

#: the post-selection ancillae; only the payload flagging touches them
ANCILLAE = ("B", "BT")

#: subsystems that are all |0> exactly on the payload subspace, in the
#: order of w3's controls
PAYLOAD_ZEROS = ("C1", "R2", "M2", "K2")

#: (manipulation, conjugator stage) in circuit order: the operand exchange
#: first, then the second operand's conjugation, then the first's
MANIPULATION_STAGES = (("swap_order", 3), ("dagger2", 2), ("dagger1", 1))

#: resident bytes of the process around a run's states: the interpreter,
#: numpy and its BLAS work buffers (36 MB before an n = 5 run on Python
#: 3.11 with numpy 2.4, and a further 0.4 MB during it)
RUNTIME_BYTES = 64 << 20

#: the working register's subsystems from qubit 0 upward: C1 is the
#: outermost axis of its register view, so w1 is one matrix product over
#: it, and K2, K1, M2 and M1 come next, so every pin of w2 selects whole
#: blocks of the registers below them
KERNEL_ORDER = ("C2", "R2", "R1", "M1", "M2", "K1", "K2", "C1")


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


def _operands(pm1: PreparedMatrix, pm2: PreparedMatrix, layout: RegisterLayout, manipulations):
    """The two operands' (component tensor, block) pairs on ``layout``, with
    each manipulation, in :data:`MANIPULATION_STAGES` order, applied by
    :func:`qamp.conjugator.apply_q_to_operands`."""
    manips = _check_manipulations(manipulations)
    if pm1.n != pm2.n:
        raise DimensionError(f"operand widths differ: n={pm1.n} vs n={pm2.n}")
    if pm1.n != layout.n:
        raise DimensionError(f"layout is sized for n={layout.n}, operands have n={pm1.n}")
    operands = [
        (_components(pm1), EncodedBlock.for_side(layout, "first")),
        (_components(pm2), EncodedBlock.for_side(layout, "second")),
    ]
    for name, which in MANIPULATION_STAGES:
        if name in manips:
            operands = apply_q_to_operands(operands, which)
    return operands


def build_initial(
    pm1: PreparedMatrix, pm2: PreparedMatrix, layout: RegisterLayout, manipulations=()
) -> StateVector:
    """Joint state of both encoded operands over ``layout``, with
    ``manipulations`` already applied.

    Amplitudes are the products of the two encodings' real amplitudes,
    written once by :func:`qamp.encoder.joint_amplitudes`; ancillae, if the
    layout has them, and any control flags start in |0>.  Each manipulation,
    in :data:`MANIPULATION_STAGES` order, renames the operands' subsystems
    and signs one operand's components first
    (:func:`qamp.conjugator.apply_q_to_operands`).  The result equals the
    build followed by :func:`qamp.conjugator.apply_q` per manipulation,
    value for value; wherever the build writes an amplitude it is equal bit
    for bit, and elsewhere (ancillae or control flags not |0>) the stage
    chain leaves -0.0 where this leaves +0.0.
    """
    operands = _operands(pm1, pm2, layout, manipulations)
    return StateVector(layout.total_qubits, joint_amplitudes(layout, operands))


def _build_through_w0(
    pm1: PreparedMatrix, pm2: PreparedMatrix, layout: RegisterLayout, manipulations
) -> StateVector:
    """The R2 = 0 slice of :func:`build_initial` followed by :func:`apply_w0`,
    written in one pass and equal to it bit for bit: a state on
    ``layout.without("R2")``.

    On the product state w0 only moves amplitudes: the C1 = c slice takes
    the second operand's factor at R2 xor c, so at R2 = 0 it is the first
    operand's factor at C1 = c times the second's at R2 = c.  C1 is a
    subsystem of the first operand's block and R2 of the second's, whatever
    the manipulations renamed.  Any control flags are |0>.  No memory check
    is made; :func:`flagged_state` makes its own.
    """
    (first, block1), (second, block2) = _operands(pm1, pm2, layout, manipulations)
    qubits = layout.total_qubits - layout.width("R2")
    amps = np.zeros(1 << qubits)
    # the slice seen through the axes of ``layout``, R2 kept at length 1
    names = layout.view_names
    view = amps.reshape([1 if name == "R2" else 1 << layout.width(name) for name in names])
    used = {*block1.registers, *block2.registers}
    out = select(view, names, {name: 0 for name in names if name not in used})
    first = _spread(first, block1.registers, names)
    second = _spread(second, block2.registers, names)
    for c in range(1 << layout.n):
        np.multiply(
            select(first, names, {"C1": c}),
            select(second, names, {"R2": c}),
            out=select(out, names, {"C1": c}),
        )
    return StateVector(qubits, amps)


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


def _w1_row(state: StateVector, layout: RegisterLayout) -> StateVector:
    """The C1 = 0 row of :func:`apply_w1`, bit for bit: a state on
    ``layout.without("C1")``.

    The product takes the first two rows of the Hadamard matrix and keeps
    the first: a one-row product runs as a matrix-vector product, whose
    sums can differ from :func:`apply_w1`'s in the last bit.
    """
    src, names = register_view(state.amplitudes, layout)
    axis = names.index("C1")
    shape = (-1, src.shape[axis], math.prod(src.shape[axis + 1 :]))
    rows = np.matmul(_sylvester(layout.n)[:2], src.reshape(shape))
    row = np.ascontiguousarray(rows[:, 0]).reshape(-1)
    return StateVector(layout.total_qubits - layout.width("C1"), row)


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


def payload_block(layout: RegisterLayout) -> EncodedBlock:
    """Where :func:`flag_and_measure` leaves the product: (M1, R1, C2, K1)
    on ``layout`` without the ancillae and the payload-zero subsystems, a
    layout that keeps any control flags."""
    return EncodedBlock(layout.without(*ANCILLAE, *PAYLOAD_ZEROS), m="M1", r="R1", c="C2", k="K1")


def working_layout(layout: RegisterLayout) -> RegisterLayout:
    """The run path's working register: ``layout`` without the ancillae,
    its subsystems repacked in :data:`KERNEL_ORDER` (any control flags
    above them).  A run never holds all of it: the build addresses the
    operands on it and writes only its :func:`cone_layout` slice."""
    return layout.without(*ANCILLAE).repacked(*KERNEL_ORDER)


def cone_layout(layout: RegisterLayout) -> RegisterLayout:
    """The light cone of the flagged branch at w0's output: the working
    register on R2 = 0, 3n+4 qubits plus any control flags.  w1 writes the
    flagged branch only from its C1 = 0 row, which reads every C1 value but
    only at R2 = 0, and w0 fills that slice from the build."""
    return working_layout(layout).without("R2")


def peak_bytes(layout: RegisterLayout) -> int:
    """Resident bytes of a process at the peak of a run on ``layout``: two
    float64 states on ``cone_layout(layout)``, which bound what a run holds
    at once for every n >= 1 (the build's output beside the two rows of
    w1's product, then those rows beside w2's output), the payload block
    copied out of w2's output, and :data:`RUNTIME_BYTES`."""
    cone, block = cone_layout(layout), payload_block(layout).layout
    return 8 * ((2 << cone.total_qubits) + (1 << block.total_qubits)) + RUNTIME_BYTES


def flag_and_measure(state: StateVector, layout: RegisterLayout) -> tuple[StateVector, float]:
    """:func:`apply_w3` followed by :func:`conditional_measure`, from a state
    on ``cone_layout(layout).without("C1")`` (the ancillae are taken to be
    in |0>, and C1 and R2 in |0> too), kept to the payload block.

    w3 moves the payload slice (C1, R2, M2, K2 all 0) to B = BT = 1 and
    nothing else lands there, so the flagged branch is the input's
    M2 = K2 = 0 slice.  It is copied out as a state on
    ``payload_block(layout).layout``, in that layout's qubit order, then
    weighed and renormalized.  The block is bit for bit the B = BT = 1
    payload slice of the two full-register steps, which leave zeros
    everywhere else, and the weight is bit for bit theirs: both are exactly
    rounded sums of the same nonzero squares.  The input is not mutated.
    """
    block = payload_block(layout).layout
    src, names = register_view(state.amplitudes, cone_layout(layout).without("C1"))
    pinned = [name for name in PAYLOAD_ZEROS if name in names]
    flagged = select(src, names, {name: 0 for name in pinned})
    # the block's axes in its own view order, then the pinned length-1 axes
    axes = [names.index(name) for name in (*block.view_names, *pinned)]
    amps = np.ascontiguousarray(flagged.transpose(axes)).reshape(-1)
    weight = _weight(amps)
    if weight == 0.0:
        bt = layout.start("BT")
        raise MeasurementError(f"outcome 1 on qubit {bt} has zero probability", probability=0.0)
    np.divide(amps, math.sqrt(weight), out=amps)
    return StateVector(block.total_qubits, amps), weight


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

    Returns the renormalized flagged block, a state on
    ``payload_block(layout).layout``, and the branch's pre-projection
    weight.  Only the amplitudes that can reach the flagged branch are
    computed: the build (which writes the manipulations and w0) writes the
    R2 = 0 slice of the working register, :func:`cone_layout`; w1 keeps its
    C1 = 0 row, and w2 runs on that row.  Before anything is allocated the
    run is refused if its :func:`peak_bytes` would not fit in physical
    memory.
    """
    working = working_layout(layout)
    cone = working.without("R2")  # the same as cone_layout(layout)
    require_memory(
        layout,
        peak_bytes(layout),
        f"two cone states of {cone.total_qubits} qubits, the payload block and the runtime",
    )
    state = _build_through_w0(pm1, pm2, working, manipulations)
    state = _w1_row(state, cone)
    state = apply_w2(state, cone.without("C1"))
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
    block, branch_probability = flagged_state(pm1, pm2, manips, layout)

    # the flagged branch carries weight G^2 / 2^(n+1)
    g_exact = math.sqrt(branch_probability * float(1 << (layout.n + 1)))
    decoded, b_decoded = read_block(block, payload_block(layout))
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

    The simulator writes the manipulations and w0 into the build, runs w1
    and w2 only on the amplitudes that reach the flagged branch and the
    flagging of w3 as one copy of the payload block, so these numbers
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
