"""The full-register circuit: the conjugation, the operand manipulations
and the multiplication's stages on the joint register state.

The conjugation primitive swaps a block's row and column registers pairwise
(transposing the encoded matrix) and flips the sign of its imaginary-label
amplitudes (conjugating it); together that is the conjugate transpose.  The
three operand manipulations reuse it: 1 and 2 conjugate-transpose the first
or second operand in place, 3 exchanges the operands' roles by transposing
both register pairs and swapping the two label qubits.  :data:`Q_ACTIONS`
is the one definition of the manipulations.  Which manipulations act is
chosen per run, as classical bits; no qubit of the layout controls them.

The multiplication starts from the joint state of both encoded operands
(:func:`build_initial`), runs the manipulations in
:data:`MANIPULATION_STAGES` order and then w0..w3 (see
:mod:`qamp.multiplier` for what each stage does), and keeps the flagged
branch (:func:`conditional_measure`).  The stage functions address
subsystems by name and run unchanged on any layout.

Each circuit but w1 is its gate list, run through the gate engine
(:func:`qamp.statevector.apply_gates`): a manipulation or the conjugation
is one SWAP per qubit pair of each subsystem pair in :data:`Q_ACTIONS`,
then a Z on the label, if there is one; w0 is the n contraction CNOTs, w2
its four label gates and w3 its one X on both ancillae.  w1 alone is one
pass over the register view, an ordered sum over the C1 axis with the
Sylvester Hadamard matrix's signs, scaled once.  Inputs are never mutated.

This is the reference that the run (:func:`qamp.multiplier.flagged_state`)
and ``qamp conjugate`` are held to, bit for bit, in the tests and in the
benchmark's traced replay.
"""

from __future__ import annotations

import numpy as np

from .complexmat import PreparedMatrix
from .encoder import EncodedBlock, _components, joint_amplitudes, register_view
from .errors import DimensionError, ParameterError, _integer
from .multiplier import _check_widths
from .registers import RegisterLayout
from .statevector import GateSpec, StateVector, apply_gates, project_and_renormalize

#: manipulation -> (subsystem pairs whose values trade places, label whose
#: value-1 half changes sign, or None)
Q_ACTIONS = {
    1: ((("R1", "C1"),), "M1"),
    2: ((("R2", "C2"),), "M2"),
    3: ((("R1", "C1"), ("R2", "C2"), ("M1", "M2")), None),
}

#: the post-selection ancillae; only the payload flagging touches them
ANCILLAE = ("B", "BT")

#: subsystems that are all |0> exactly on the payload subspace, in the
#: order of w3's controls
PAYLOAD_ZEROS = ("C1", "R2", "M2", "K2")

#: (manipulation, conjugator stage) in circuit order: the operand exchange
#: first, then the second operand's conjugation, then the first's
MANIPULATION_STAGES = (("swap_order", 3), ("dagger2", 2), ("dagger1", 1))


def _gates(layout: RegisterLayout, pairs, label: str | None) -> list[GateSpec]:
    """A SWAP per qubit pair of each pair of equally wide subsystems, then a
    Z on ``label``, if one is given."""
    gates = [
        GateSpec.swap(a, b) for x, y in pairs for a, b in zip(layout.qubits(x), layout.qubits(y))
    ]
    if label is not None:
        gates.append(GateSpec.z(layout.start(label)))
    return gates


def hermitian_conjugate(state: StateVector, block: EncodedBlock) -> StateVector:
    """Conjugate-transpose the matrix encoded in ``block``; involutory."""
    layout = block.layout
    if layout.width(block.r) != layout.width(block.c):
        raise DimensionError(
            f"row register {block.r} and column register {block.c} differ in width"
        )
    return apply_gates(state, _gates(layout, ((block.r, block.c),), block.m))


def apply_q(state: StateVector, which: int, layout: RegisterLayout) -> StateVector:
    """Apply operand manipulation 1, 2 or 3, selected by an integer that is
    not a bool.  Each is involutory and norm preserving (a permutation of
    amplitudes with one sign flip)."""
    if _integer(which, "manipulation selector") not in Q_ACTIONS:
        raise ParameterError(f"manipulation selector must be 1, 2 or 3, got {which!r}")
    return apply_gates(state, _gates(layout, *Q_ACTIONS[which]))


def build_initial(pm1: PreparedMatrix, pm2: PreparedMatrix, layout: RegisterLayout) -> StateVector:
    """Joint state of both encoded operands over ``layout``.

    Amplitudes are the products of the two encodings' real amplitudes,
    written once by :func:`qamp.encoder.joint_amplitudes`; ancillae, if the
    layout has them, start in |0>.  The manipulations are :func:`apply_q`
    on this state.
    """
    _check_widths(pm1, pm2)
    if pm1.n != layout.n:
        raise DimensionError(f"layout is sized for n={layout.n}, operands have n={pm1.n}")
    operands = [
        (_components(pm), EncodedBlock.for_side(layout, side))
        for pm, side in ((pm1, "first"), (pm2, "second"))
    ]
    return StateVector(layout.total_qubits, joint_amplitudes(layout, operands))


def apply_w0(state: StateVector, layout: RegisterLayout) -> StateVector:
    """Contraction CNOTs: C1 qubit j controls R2 qubit j, for every j.

    Together they XOR C1 into R2.
    """
    gates = [GateSpec.x(r, ((c, 1),)) for c, r in zip(layout.qubits("C1"), layout.qubits("R2"))]
    return apply_gates(state, gates)


def _sylvester(n: int) -> np.ndarray:
    """The 2**n x 2**n Hadamard transform: entry (j, k) is 2**(-n/2) with
    the sign (-1)**popcount(j & k)."""
    index = np.arange(1 << n)
    both = index[:, None] & index
    parity = np.zeros_like(both)
    for bit in range(n):
        parity ^= both >> bit
    scale = 2.0 ** (-n / 2)
    return np.where(parity & 1, -scale, scale)


def apply_w1(state: StateVector, layout: RegisterLayout) -> StateVector:
    """Hadamard every C1 qubit, summing the contracted index into C1 = 0.

    The layer is one pass over the register view of a new output state; the
    input is not mutated.  It contracts the C1 axis with the Sylvester
    Hadamard matrix H, every entry of which is +-2**(-n/2), as an ordered
    sum, with no matrix product: each output slice C1 = j starts from
    +0.0, adds or subtracts x[c] elementwise over c in order by the sign
    of H[j, c], and is then multiplied once by 2**(-n/2).  Negating is
    exact, so each slice rounds as one sum of its signed terms and one
    product.  Its C1 = 0 slice, all signs +, is therefore the sum the run
    path accumulates, bit for bit, where it reads it: the K1 = K2 = 1
    quarter and the K1 = K2 = 0 corner at R2 = 0
    (:func:`qamp.multiplier._w1_quarter`).
    """
    scale = 2.0 ** (-layout.n / 2)
    amps = np.empty_like(state.amplitudes)
    src, names = register_view(state.amplitudes, layout)
    dst, _ = register_view(amps, layout)
    src, dst = (np.moveaxis(view, names.index("C1"), 0) for view in (src, dst))
    for out, negative in zip(dst, _sylvester(layout.n) < 0):
        out[...] = 0.0
        for x, minus in zip(src, negative):
            (np.subtract if minus else np.add)(out, x, out=out)
        np.multiply(out, scale, out=out)
    return StateVector(state.num_qubits, amps)


def apply_w2(state: StateVector, layout: RegisterLayout) -> StateVector:
    """Label algebra combining component products into complex products.

    Controlled on M2 = 1 the M1 amplitudes rotate (|0> -> |1>, |1> -> -|0>,
    a Z then an X), then a Hadamard on M2 folds the two columns together:
    the M2 = 0 slice now holds, on M1 = 0, products of real parts minus
    products of imaginary parts, and on M1 = 1 the mixed sums, each scaled
    by a further 1/sqrt(2).  Finally a CNOT flips K2 where K1 = 1, landing
    all payload terms on K2 = 0.
    """
    m1, m2 = layout.start("M1"), layout.start("M2")
    gates = (
        GateSpec.z(m1, ((m2, 1),)),
        GateSpec.x(m1, ((m2, 1),)),
        GateSpec.h(m2),
        GateSpec.x(layout.start("K2"), ((layout.start("K1"), 1),)),
    )
    return apply_gates(state, gates)


def apply_w3(state: StateVector, layout: RegisterLayout) -> StateVector:
    """Flip both ancillae on the payload subspace.

    One gate with 2(n+1) polarity-0 controls, all of C1, R2, M2 and K2;
    payload and slack terms come out with B = BT = 1, garbage stays at 0.
    Expects B and BT in |0> on the active support.
    """
    controls = tuple((q, 0) for name in PAYLOAD_ZEROS for q in layout.qubits(name))
    gate = GateSpec.x([layout.start(name) for name in ANCILLAE], controls)
    return apply_gates(state, (gate,))


def conditional_measure(state: StateVector, layout: RegisterLayout) -> tuple[StateVector, float]:
    """Project onto the flagged branch (BT = 1, equivalently B = 1) and
    renormalize; returns the branch's pre-projection weight."""
    return project_and_renormalize(state, layout.start("BT"), 1)
