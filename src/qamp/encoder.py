"""Amplitude encoding of a prepared matrix and its inverse readout.

A prepared matrix (scaled entries plus slack b) occupies four subsystems: an
n-qubit row register R, an n-qubit column register C, the one-qubit
real/imaginary label M, and the one-qubit slack flag K.  Components are
placed directly:

    amplitude(M=m, R=j, C=k, K=1) = component m of entry (j, k)
    amplitude(M=m, R=0, C=0, K=0) = component m of b

with every other amplitude zero, so all amplitudes are real and their
squares sum to one.  State preparation is direct amplitude assignment; no
gate-level preparation circuit is synthesized.

Amplitudes are written and read through the register view of
:mod:`qamp.registers`, so each encoding is a small (K, R, C, M) component
tensor placed into a slice of it.  :func:`joint_amplitudes` writes a
product of such tensors in one pass, whatever blocks they sit on; the
full-register build (:func:`qamp.multiplier.build_initial`) hands it both
operands' tensors on their own blocks.  Reading back is split the same
way: :func:`read_block` reads the component tensor of a block,
:func:`residual` weighs everything outside the encoding support, and
:func:`decode` does both.  The pipeline's run path
places nothing in a register view and reads nothing out of one: it takes
each operand's amplitudes straight from its entries and slack
(:func:`qamp.multiplier._entry_factors`, which checks the norm as
:func:`_components` does, through :func:`_check_norm`), and its result,
the flagged payload, is a component tensor already.

:func:`check_memory` refuses a layout whose stages cannot fit in physical
memory, and :func:`joint_amplitudes` calls it before allocating;
:func:`require_memory` is the comparison behind it, which the run path also
makes for its own, smaller peak before its first allocation.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from .complexmat import ComplexMatrix, PreparedMatrix
from .errors import DimensionError, ParameterError, ValidationError
from .registers import RegisterLayout, register_view, select
from .statevector import StateVector, _weight

#: encode refuses states whose squared norm strays further than this from 1
ENCODE_NORM_TOL = 1e-10


@dataclass(frozen=True)
class EncodedBlock:
    """Where one encoded matrix lives inside a layout.

    ``fixed`` pins non-block subsystems to known basis values (after the
    conditional measurement both ancillae sit in |1>, control flags keep
    their input value); any subsystem not mentioned is expected in |0>.
    """

    layout: RegisterLayout
    m: str
    r: str
    c: str
    k: str
    fixed: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        for name in (self.m, self.r, self.c, self.k, *(n for n, _ in self.fixed)):
            self.layout.qubits(name)  # raises on unknown subsystem

    @classmethod
    def for_side(cls, layout: RegisterLayout, side: str) -> "EncodedBlock":
        if side == "first":
            return cls(layout, m="M1", r="R1", c="C1", k="K1")
        if side == "second":
            return cls(layout, m="M2", r="R2", c="C2", k="K2")
        raise ParameterError(f"side must be 'first' or 'second', got {side!r}")

    @classmethod
    def pipeline_output(cls, layout: RegisterLayout, extra_fixed=()) -> "EncodedBlock":
        """Block holding a decoded product: rows from the first operand,
        columns from the second, both ancillae post-selected to |1>."""
        fixed = (("B", 1), ("BT", 1)) + tuple(extra_fixed)
        return cls(layout, m="M1", r="R1", c="C2", k="K1", fixed=fixed)

    @property
    def registers(self) -> tuple[str, str, str, str]:
        """The block's subsystems in component-tensor order (K, R, C, M)."""
        return (self.k, self.r, self.c, self.m)


def _components(pm: PreparedMatrix) -> np.ndarray:
    """Real amplitudes of one encoded matrix, indexed [K, R, C, M]."""
    dim = pm.matrix.dim
    tensor = np.zeros((2, dim, dim, 2))
    tensor[1, :, :, 0] = pm.matrix.entries.real
    tensor[1, :, :, 1] = pm.matrix.entries.imag
    tensor[0, 0, 0] = (pm.b.real, pm.b.imag)
    _check_norm(float(np.sum(tensor**2)))
    return tensor


def _check_norm(squares: float) -> None:
    """Raise :class:`ValidationError` when an encoded state's squared norm
    ``squares`` strays from 1 by more than :data:`ENCODE_NORM_TOL`, or is
    NaN."""
    defect = abs(squares - 1.0)
    if not defect <= ENCODE_NORM_TOL:  # also refuses NaN
        raise ValidationError(f"encoded state norm defect {defect:.3e} exceeds {ENCODE_NORM_TOL}")


def _spread(tensor: np.ndarray, registers, names: tuple[str, ...]) -> np.ndarray:
    """``tensor`` (one axis per entry of ``registers``) transposed into the
    register view's axis order, with length-1 axes for every other subsystem."""
    order = sorted(range(len(registers)), key=lambda i: names.index(registers[i]))
    shape = [tensor.shape[registers.index(n)] if n in registers else 1 for n in names]
    return tensor.transpose(order).reshape(shape)


def physical_memory_bytes() -> int:
    """Physical memory of this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def require_memory(layout: RegisterLayout, needed: int, what: str) -> None:
    """Raise :class:`ParameterError`, naming the bytes, when ``needed`` bytes
    for ``what`` would not fit in physical memory."""
    available = physical_memory_bytes()
    if needed > available:
        raise ParameterError(
            f"n={layout.n} needs {needed} bytes for {what}, "
            f"more than the {available} bytes of physical memory"
        )


def check_memory(layout: RegisterLayout) -> None:
    """Raise :class:`ParameterError` when two float64 states of ``layout``,
    what a stage on it holds (its input and its output), would not fit in
    physical memory."""
    needed = 2 * 8 * (1 << layout.total_qubits)
    require_memory(layout, needed, f"2 states of {layout.total_qubits} qubits")


def joint_amplitudes(layout: RegisterLayout, operands) -> np.ndarray:
    """Float64 amplitudes of the product state of one or two (component
    tensor, block) pairs on disjoint blocks, each tensor indexed [K, R, C, M]
    as :func:`_components` returns it; every other subsystem is |0>.

    Runs :func:`check_memory` on ``layout`` before allocating.  A pair is
    multiplied once per pair of label values: with both labels pinned the
    innermost runs are the long register axes rather than the two-element
    label axes.
    """
    check_memory(layout)
    amps = np.zeros(1 << layout.total_qubits)
    view, names = register_view(amps, layout)
    used = {name for _tensor, block in operands for name in block.registers}
    out = select(view, names, {name: 0 for name in names if name not in used})
    placed = [_spread(tensor, block.registers, names) for tensor, block in operands]
    if len(placed) == 1:
        out[...] = placed[0]
        return amps
    first, second = placed
    (_t1, block1), (_t2, block2) = operands
    for m1, m2 in itertools.product((0, 1), repeat=2):
        np.multiply(
            select(first, names, {block1.m: m1}),
            select(second, names, {block2.m: m2}),
            out=select(out, names, {block1.m: m1, block2.m: m2}),
        )
    return amps


def encode(pm: PreparedMatrix, side: str, layout: RegisterLayout) -> StateVector:
    """Write a prepared matrix into a fresh real statevector on one side's
    subsystems; every other qubit stays in |0>."""
    block = EncodedBlock.for_side(layout, side)
    if pm.n != layout.n:
        raise DimensionError(f"matrix width n={pm.n} does not fit layout n={layout.n}")
    return StateVector(layout.total_qubits, joint_amplitudes(layout, [(_components(pm), block)]))


def _pins(registers, fixed, names: tuple[str, ...]) -> dict:
    """Value of every subsystem of ``names`` outside a block's
    ``registers``: its ``fixed`` value, else 0."""
    pins = {name: 0 for name in names if name not in registers}
    pins.update(fixed)
    return pins


def _block_axes(layout: RegisterLayout, registers, fixed) -> tuple[tuple, list[int]]:
    """The index of the register view that pins every subsystem outside a
    block on ``layout`` (the block's ``registers`` in (K, R, C, M) order and
    its ``fixed`` values), and the axis order that puts the block's
    subsystems first, in that order."""
    names = layout.view_names
    pins = _pins(registers, fixed, names)
    index = tuple(slice(pins[name], pins[name] + 1) if name in pins else slice(None) for name in names)
    block_axes = [names.index(name) for name in registers]
    return index, block_axes + [i for i in range(len(names)) if i not in block_axes]


def _inside(amps: np.ndarray, block: EncodedBlock) -> np.ndarray:
    """The block's component tensor in the amplitudes ``amps`` of a state on
    the block's layout, indexed [K, R, C, M], as a view.  The index and axis
    order are derived once per layout and block (:func:`_block_axes`)."""
    dim = 1 << block.layout.n
    view, _names = register_view(amps, block.layout)
    index, order = block.layout.kept(_block_axes, block.registers, block.fixed)
    return view[index].transpose(order).reshape(2, dim, dim, 2)


def read_block(state: StateVector, block: EncodedBlock) -> tuple[ComplexMatrix, complex]:
    """Read (matrix, slack) out of the block's component tensor, with every
    other subsystem at its pinned value."""
    inside = _inside(state.amplitudes, block)
    dim = inside.shape[1]
    entries = np.empty((dim, dim), dtype=np.complex128)
    entries.real = inside[1, :, :, 0]
    entries.imag = inside[1, :, :, 1]
    b = complex(inside[0, 0, 0, 0], inside[0, 0, 0, 1])
    return ComplexMatrix(block.layout.n, entries), b


def residual(state: StateVector, block: EncodedBlock) -> float:
    """Total squared weight of ``state`` outside the block's encoding support."""
    layout = block.layout
    view, names = register_view(state.amplitudes, layout)
    # weight off the block's slice, as disjoint parts: the subsystems pinned
    # so far match, the next one does not
    total = 0.0
    matched = {}
    for name, value in _pins(block.registers, block.fixed, names).items():
        for other in (slice(0, value), slice(value + 1, 1 << layout.width(name))):
            if other.start < other.stop:
                total += _weight(select(view, names, {**matched, name: other}))
        matched[name] = value
    inside = _inside(state.amplitudes, block)
    support = np.zeros(inside.shape, dtype=bool)
    support[1] = True
    support[0, 0, 0] = True
    return total + _weight(inside[~support])


def decode(state: StateVector, block: EncodedBlock) -> tuple[ComplexMatrix, complex, float]:
    """Read (matrix, slack) back out of a statevector, with its
    :func:`residual`.

    The residual is reported rather than enforced so pipeline tests can
    assert that garbage really was removed.
    """
    matrix, b = read_block(state, block)
    return matrix, b, residual(state, block)
