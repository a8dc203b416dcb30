"""Named register layout: subsystem names mapped to qubit index ranges.

Circuit code addresses subsystems by name only; the concrete qubit order is
a private convention.  Per operand there is an n-qubit row register (R) and
column register (C), a one-qubit real/imaginary label (M) and a one-qubit
slack flag (K); B and BT are the two post-selection ancillae and Q1..Q3 the
optional manipulation-control flags.

The register view is the state reshaped to one axis per subsystem, most
significant subsystem first.  Encoding, decoding and every fused circuit
stage address amplitudes through it, so each is a small number of slice
operations on that view rather than one pass per gate.  A layout with some
subsystems removed (:meth:`RegisterLayout.without`) holds the states on
which those subsystems are |0>, such as the operand register that
``qamp conjugate`` runs on.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import DimensionError, ParameterError, ValidationError
from .statevector import StateVector

#: canonical allocation order, from qubit 0 upward
CANONICAL_ORDER = ("M1", "M2", "R1", "C1", "R2", "C2", "K1", "K2", "B", "BT")
CONTROL_FLAGS = ("Q1", "Q2", "Q3")


@dataclass(frozen=True)
class RegisterLayout:
    """Immutable name-to-qubit-range map for matrices of size 2**n.

    Layouts are shared: :func:`layout_for` returns one instance per
    argument pair, and each instance keeps what is derived from it
    (:meth:`kept`), such as the layouts of :meth:`without`, so a process
    derives each once.  ``slices`` is therefore read-only.
    """

    n: int
    slices: Mapping[str, range]
    control_flags_present: bool
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "slices", MappingProxyType(dict(self.slices)))

    @cached_property
    def total_qubits(self) -> int:
        return sum(len(r) for r in self.slices.values())

    def qubits(self, name: str) -> range:
        try:
            return self.slices[name]
        except KeyError:
            raise ParameterError(f"unknown subsystem {name!r}") from None

    def start(self, name: str) -> int:
        return self.qubits(name).start

    def width(self, name: str) -> int:
        return len(self.qubits(name))

    @cached_property
    def view_names(self) -> tuple[str, ...]:
        """Subsystem names in register-view axis order, most significant first."""
        return tuple(sorted(self.slices, key=self.start, reverse=True))

    @cached_property
    def view_shape(self) -> tuple[int, ...]:
        """Axis lengths of the register view, in :attr:`view_names` order."""
        return tuple(1 << self.width(name) for name in self.view_names)

    def kept(self, derive, *args):
        """``derive(self, *args)``, computed on the first call with these
        arguments and then kept on this instance: for values that depend
        only on the layout and ``args``, which must be hashable."""
        key = (derive, args)
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = derive(self, *args)
            return value

    def without(self, *names: str) -> "RegisterLayout":
        """This layout with the named subsystems removed and the rest packed
        down in the same order, so a state on it is this layout's state
        restricted to those subsystems in |0>.  An unknown or repeated name
        raises :class:`ParameterError`.  Built on first use, then kept on
        this instance."""
        return self.kept(_without, *names)

    def summary(self) -> dict:
        """Plain structure for reports: name -> [first, last] qubit, plus totals."""
        return {
            "n": self.n,
            "total_qubits": self.total_qubits,
            "subsystems": {name: [r.start, r.stop - 1] for name, r in self.slices.items()},
        }


def _without(layout: RegisterLayout, *names: str) -> RegisterLayout:
    for name in names:
        layout.qubits(name)  # raises on unknown subsystem
    if len(set(names)) != len(names):
        raise ParameterError(f"subsystems named twice in {names}")
    slices = {}
    cursor = 0
    for name in layout.view_names[::-1]:
        if name not in names:
            slices[name] = range(cursor, cursor + layout.width(name))
            cursor += layout.width(name)
    return RegisterLayout(
        n=layout.n, slices=slices, control_flags_present=layout.control_flags_present
    )


def layout_for(n: int, with_controls: bool = False) -> RegisterLayout:
    """Canonical layout: 4n+6 qubits, plus 3 when control flags are
    requested.  Repeated calls with equal arguments, however they are
    passed, return the same (immutable) instance."""
    return _layout_for(operator.index(n), bool(with_controls))


@lru_cache(maxsize=64)
def _layout_for(n: int, with_controls: bool) -> RegisterLayout:
    if n < 1:
        raise ParameterError(f"matrix register width must be at least 1, got {n}")
    widths = {name: (n if name in ("R1", "C1", "R2", "C2") else 1) for name in CANONICAL_ORDER}
    names = list(CANONICAL_ORDER)
    if with_controls:
        names += list(CONTROL_FLAGS)
        widths.update({flag: 1 for flag in CONTROL_FLAGS})
    slices = {}
    cursor = 0
    for name in names:
        slices[name] = range(cursor, cursor + widths[name])
        cursor += widths[name]
    return RegisterLayout(n=n, slices=slices, control_flags_present=with_controls)


def basis_index(layout: RegisterLayout, assignment: Mapping[str, int]) -> int:
    """Amplitude index for a per-subsystem assignment; unnamed subsystems are 0.

    Values are little-endian within each slice.
    """
    index = 0
    for name, value in assignment.items():
        r = layout.qubits(name)
        v = int(value)
        if not 0 <= v < (1 << len(r)):
            raise ValidationError(f"value {value} overflows subsystem {name} of width {len(r)}")
        index |= v << r.start
    return index


def register_view(amps: np.ndarray, layout: RegisterLayout) -> tuple[np.ndarray, tuple[str, ...]]:
    """``amps`` reshaped to one axis per subsystem, and the subsystem names
    in axis order (most significant first)."""
    if amps.shape != (1 << layout.total_qubits,):
        raise DimensionError(
            f"state of {amps.size} amplitudes does not fit a {layout.total_qubits}-qubit layout"
        )
    return amps.reshape(layout.view_shape), layout.view_names


def select(view: np.ndarray, names: tuple[str, ...], pins: Mapping) -> np.ndarray:
    """Subview with each pinned subsystem restricted to a value (kept as a
    length-1 axis) or a slice of values."""
    index = []
    for name in names:
        pin = pins.get(name, slice(None))
        index.append(pin if isinstance(pin, slice) else slice(pin, pin + 1))
    return view[tuple(index)]


def register_stage(
    state: StateVector, layout: RegisterLayout, kernel, control: str | None = None
) -> StateVector:
    """Run one circuit stage as a single pass over the register view.

    ``kernel(src, dst, names)`` must write every amplitude of the view
    ``dst`` from the view ``src``; both have one axis per entry of ``names``.
    With a ``control`` flag the kernel sees only the flag = 1 slice and the
    flag = 0 slice is copied unchanged.  The output is a new float64
    statevector and the input is never mutated; the stage itself makes no
    temporary.
    """
    out = np.empty_like(state.amplitudes)
    src, names = register_view(state.amplitudes, layout)
    dst, _ = register_view(out, layout)
    if control is not None:
        np.copyto(select(dst, names, {control: 0}), select(src, names, {control: 0}))
        src, dst = select(src, names, {control: 1}), select(dst, names, {control: 1})
    kernel(src, dst, names)
    return StateVector(state.num_qubits, out)
