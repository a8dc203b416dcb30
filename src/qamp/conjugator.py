"""Conjugation and operand-rearrangement circuits.

The conjugation primitive swaps a block's row and column registers pairwise
(transposing the encoded matrix) and flips the sign of its imaginary-label
amplitudes (conjugating it); together that is the conjugate transpose.  The
three operand manipulations reuse it: 1 and 2 conjugate-transpose the first
or second operand in place, 3 exchanges the operands' roles by transposing
both register pairs and swapping the two label qubits.

Each circuit is a signed permutation of subsystem values, so each stage is
one transposed copy of the register view into a new state, in which the
exchanged subsystems trade axes; the conjugation then negates the label = 1
half of the copy.  Inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

from .encoder import EncodedBlock
from .errors import DimensionError, ParameterError
from .registers import RegisterLayout, register_stage, select
from .statevector import StateVector


def _exchanged_axes(names: list[str], *pairs: tuple[str, str]) -> list[int]:
    """Axis permutation of the register view that trades each pair of
    subsystems' axes."""
    perm = list(range(len(names)))
    for a, b in pairs:
        i, j = names.index(a), names.index(b)
        perm[i], perm[j] = j, i
    return perm


def _conjugate_kernel(m: str, r: str, c: str):
    """Kernel exchanging registers ``r`` and ``c`` and negating label ``m`` = 1."""

    def kernel(src, dst, names):
        np.copyto(dst, src.transpose(_exchanged_axes(names, (r, c))))
        imag = select(dst, names, {m: 1})
        # negate one value of the innermost axis at a time: each part is then
        # a single long strided run instead of many runs of that axis's length
        for i in range(imag.shape[-1]):
            np.negative(imag[..., i], out=imag[..., i])

    return kernel


def _exchange_kernel(src, dst, names):
    """Kernel of manipulation 3: both register pairs and the labels trade places."""
    perm = _exchanged_axes(names, ("R1", "C1"), ("R2", "C2"), ("M1", "M2"))
    np.copyto(dst, src.transpose(perm))


def _q_kernel(which: int):
    if which == 1:
        return _conjugate_kernel("M1", "R1", "C1")
    if which == 2:
        return _conjugate_kernel("M2", "R2", "C2")
    if which == 3:
        return _exchange_kernel
    raise ParameterError(f"manipulation selector must be 1, 2 or 3, got {which!r}")


def hermitian_conjugate(state: StateVector, block: EncodedBlock) -> StateVector:
    """Conjugate-transpose the matrix encoded in ``block``; involutory."""
    layout = block.layout
    if layout.width(block.r) != layout.width(block.c):
        raise DimensionError(
            f"row register {block.r} and column register {block.c} differ in width"
        )
    return register_stage(state, layout, _conjugate_kernel(block.m, block.r, block.c))


def apply_q(state: StateVector, which: int, layout: RegisterLayout) -> StateVector:
    """Apply operand manipulation 1, 2 or 3.  Each is involutory and norm
    preserving (a permutation of amplitudes with one sign flip)."""
    return register_stage(state, layout, _q_kernel(which))


def apply_q_controlled(state: StateVector, which: int, layout: RegisterLayout) -> StateVector:
    """Like :func:`apply_q` but active only where the matching control flag
    qubit is |1>; flags starting in a basis state are left unchanged."""
    kernel = _q_kernel(which)
    if not layout.control_flags_present:
        raise ParameterError("layout has no manipulation control flags")
    return register_stage(state, layout, kernel, control=f"Q{which}")
