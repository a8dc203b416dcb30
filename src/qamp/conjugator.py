"""Conjugation and operand-rearrangement circuits.

The conjugation primitive swaps a block's row and column registers pairwise
(transposing the encoded matrix) and flips the sign of its imaginary-label
amplitudes (conjugating it); together that is the conjugate transpose.  The
three operand manipulations reuse it: 1 and 2 conjugate-transpose the first
or second operand in place, 3 exchanges the operands' roles by transposing
both register pairs and swapping the two label qubits.

Each circuit is its gate list, run through the gate engine
(:func:`qamp.statevector.apply_gates`): one SWAP per qubit pair of each
subsystem pair in :data:`Q_ACTIONS`, then a Z on the label, if there is
one.  Inputs are never mutated.

:data:`Q_ACTIONS` is the one definition of the manipulations.  The run path
(:func:`qamp.multiplier.run_pipeline`) holds no state for :func:`apply_q`
to act on; what it needs of these actions is whether each operand ends
transposed and whether it ends conjugated
(:func:`qamp.multiplier._orientation`).  Nor does the CLI's ``conjugate``
run :func:`hermitian_conjugate`: it reads the same bits straight off the
operand's prepared entries, one C-ordered ``np.conjugate`` of their
transposed view, exact as the SWAPs and the Z are, and scales it back.
These circuits stay as the full-register reference that the tests check
both against.  Which manipulations act is chosen per run, as classical
bits; no qubit of the layout controls them.
"""

from __future__ import annotations

from .encoder import EncodedBlock
from .errors import DimensionError, ParameterError, _integer
from .registers import RegisterLayout
from .statevector import GateSpec, StateVector, apply_gates

#: manipulation -> (subsystem pairs whose values trade places, label whose
#: value-1 half changes sign, or None)
Q_ACTIONS = {
    1: ((("R1", "C1"),), "M1"),
    2: ((("R2", "C2"),), "M2"),
    3: ((("R1", "C1"), ("R2", "C2"), ("M1", "M2")), None),
}


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
