"""Conjugation and operand-rearrangement circuits.

The conjugation primitive swaps a block's row and column registers pairwise
(transposing the encoded matrix) and flips the sign of its imaginary-label
amplitudes (conjugating it); together that is the conjugate transpose.  The
three operand manipulations reuse it: 1 and 2 conjugate-transpose the first
or second operand in place, 3 exchanges the operands' roles by transposing
both register pairs and swapping the two label qubits.

Each circuit is a signed permutation of subsystem values
(:data:`Q_ACTIONS`), so each stage is one transposed copy of the register
view into a new state, in which the exchanged subsystems trade axes; the
conjugation then negates the label = 1 half of the copy.  Inputs are never
mutated.

:data:`Q_ACTIONS` is the one definition of the manipulations.  The run path
(:func:`qamp.multiplier.run_pipeline`) holds no state for :func:`apply_q`
to act on; what it needs of these actions is whether each operand ends
transposed and whether it ends conjugated
(:func:`qamp.multiplier._orientation`).
"""

from __future__ import annotations

import numpy as np

from .encoder import EncodedBlock
from .errors import DimensionError, ParameterError
from .registers import RegisterLayout, register_stage, select
from .statevector import StateVector, _negate

#: manipulation -> (subsystem pairs whose values trade places, label whose
#: value-1 half changes sign, or None)
Q_ACTIONS = {
    1: ((("R1", "C1"),), "M1"),
    2: ((("R2", "C2"),), "M2"),
    3: ((("R1", "C1"), ("R2", "C2"), ("M1", "M2")), None),
}


def _q_action(which: int):
    if which not in (1, 2, 3):
        raise ParameterError(f"manipulation selector must be 1, 2 or 3, got {which!r}")
    return Q_ACTIONS[which]


def _exchanged_axes(names: tuple[str, ...], *pairs: tuple[str, str]) -> list[int]:
    """Axis permutation of the register view that trades each pair of
    subsystems' axes."""
    perm = list(range(len(names)))
    for a, b in pairs:
        i, j = names.index(a), names.index(b)
        perm[i], perm[j] = j, i
    return perm


def _permutation_kernel(pairs, label: str | None):
    """Kernel trading each pair of subsystems' values and negating
    ``label`` = 1, if a label is given."""

    def kernel(src, dst, names):
        np.copyto(dst, src.transpose(_exchanged_axes(names, *pairs)))
        if label is None:
            return
        imag = select(dst, names, {label: 1})
        # negate one value of the innermost axis at a time: each part is then
        # a single long strided run instead of many runs of that axis's length
        for i in range(imag.shape[-1]):
            _negate(imag[..., i])

    return kernel


def hermitian_conjugate(state: StateVector, block: EncodedBlock) -> StateVector:
    """Conjugate-transpose the matrix encoded in ``block``; involutory."""
    layout = block.layout
    if layout.width(block.r) != layout.width(block.c):
        raise DimensionError(
            f"row register {block.r} and column register {block.c} differ in width"
        )
    return register_stage(state, layout, _permutation_kernel(((block.r, block.c),), block.m))


def apply_q(state: StateVector, which: int, layout: RegisterLayout) -> StateVector:
    """Apply operand manipulation 1, 2 or 3.  Each is involutory and norm
    preserving (a permutation of amplitudes with one sign flip)."""
    return register_stage(state, layout, _permutation_kernel(*_q_action(which)))


def apply_q_controlled(state: StateVector, which: int, layout: RegisterLayout) -> StateVector:
    """Like :func:`apply_q` but active only where the matching control flag
    qubit is |1>; flags starting in a basis state are left unchanged."""
    kernel = _permutation_kernel(*_q_action(which))
    if not layout.control_flags_present:
        raise ParameterError("layout has no manipulation control flags")
    return register_stage(state, layout, kernel, control=f"Q{which}")
