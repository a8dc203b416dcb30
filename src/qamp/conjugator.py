"""Conjugation and operand-rearrangement circuits.

The conjugation primitive swaps a block's row and column registers pairwise
(transposing the encoded matrix) and flips the sign of its imaginary-label
amplitudes (conjugating it); together that is the conjugate transpose.  The
three operand manipulations reuse it: 1 and 2 conjugate-transpose the first
or second operand in place, 3 exchanges the operands' roles by transposing
both register pairs and swapping the two label qubits.

Each stage copies the state once and applies its gates to the copy in
place; inputs are never mutated.
"""

from __future__ import annotations

from .encoder import EncodedBlock
from .errors import DimensionError, ParameterError
from .registers import RegisterLayout
from .statevector import GateSpec, StateVector, apply_gates


def _conjugate_gates(layout: RegisterLayout, m: str, r: str, c: str, controls=()) -> list[GateSpec]:
    gates = [GateSpec.swap(a, b, controls) for a, b in zip(layout.qubits(r), layout.qubits(c))]
    gates.append(GateSpec.z(layout.start(m), controls))
    return gates


def hermitian_conjugate(state: StateVector, block: EncodedBlock) -> StateVector:
    """Conjugate-transpose the matrix encoded in ``block``; involutory."""
    layout = block.layout
    if layout.width(block.r) != layout.width(block.c):
        raise DimensionError(
            f"row register {block.r} and column register {block.c} differ in width"
        )
    return apply_gates(state, _conjugate_gates(layout, block.m, block.r, block.c))


def _q_gates(which: int, layout: RegisterLayout, controls=()) -> list[GateSpec]:
    if which == 1:
        return _conjugate_gates(layout, "M1", "R1", "C1", controls)
    if which == 2:
        return _conjugate_gates(layout, "M2", "R2", "C2", controls)
    if which == 3:
        gates = [
            GateSpec.swap(a, b, controls)
            for a, b in zip(layout.qubits("R1"), layout.qubits("C1"))
        ]
        gates += [
            GateSpec.swap(a, b, controls)
            for a, b in zip(layout.qubits("R2"), layout.qubits("C2"))
        ]
        gates.append(GateSpec.swap(layout.start("M1"), layout.start("M2"), controls))
        return gates
    raise ParameterError(f"manipulation selector must be 1, 2 or 3, got {which!r}")


def apply_q(state: StateVector, which: int, layout: RegisterLayout) -> StateVector:
    """Apply operand manipulation 1, 2 or 3.  Each is involutory and norm
    preserving (gates are SWAPs and one sign flip)."""
    return apply_gates(state, _q_gates(which, layout))


def apply_q_controlled(state: StateVector, which: int, layout: RegisterLayout) -> StateVector:
    """Like :func:`apply_q` but active only where the matching control flag
    qubit is |1>; flags starting in a basis state are left unchanged."""
    if which not in (1, 2, 3):
        raise ParameterError(f"manipulation selector must be 1, 2 or 3, got {which!r}")
    if not layout.control_flags_present:
        raise ParameterError("layout has no manipulation control flags")
    controls = ((layout.start(f"Q{which}"), 1),)
    return apply_gates(state, _q_gates(which, layout, controls))
