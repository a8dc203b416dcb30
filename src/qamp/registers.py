"""Named register layout: subsystem names mapped to qubit index ranges.

Circuit code addresses subsystems by name only; the concrete qubit order is
a private convention.  Per operand there is an n-qubit row register (R) and
column register (C), a one-qubit real/imaginary label (M) and a one-qubit
slack flag (K); B and BT are the two post-selection ancillae.  There is
one layout per n, 4n + 6 qubits.

A layout with some subsystems removed (:meth:`RegisterLayout.without`)
holds the states on which those subsystems are |0>, such as the operand
register of the full-register reference for ``qamp conjugate``.  The
register view of a state on a layout (:func:`qamp.encoder.register_view`)
has one axis per subsystem, in :attr:`RegisterLayout.view_names` order.

``qamp multiply`` reports a layout's :meth:`RegisterLayout.summary` as its
``"layout"`` field, and a run names its measured qubit through
:func:`layout_for` when the branch has zero weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping

from .errors import ParameterError, _width

#: canonical allocation order, from qubit 0 upward
CANONICAL_ORDER = ("M1", "M2", "R1", "C1", "R2", "C2", "K1", "K2", "B", "BT")


@dataclass(frozen=True)
class RegisterLayout:
    """Immutable name-to-qubit-range map for matrices of size 2**n.

    Layouts are shared: :func:`layout_for` returns one instance per n, so
    ``slices`` is read-only.
    """

    n: int
    slices: Mapping[str, range]

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

    def without(self, *names: str) -> "RegisterLayout":
        """This layout with the named subsystems removed and the rest packed
        down in the same order, so a state on it is this layout's state
        restricted to those subsystems in |0>.  An unknown or repeated name
        raises :class:`ParameterError`."""
        for name in names:
            self.qubits(name)  # raises on unknown subsystem
        if len(set(names)) != len(names):
            raise ParameterError(f"subsystems named twice in {names}")
        kept = (name for name in self.view_names[::-1] if name not in names)
        return RegisterLayout(n=self.n, slices=_packed((name, self.width(name)) for name in kept))

    def summary(self) -> dict:
        """Plain structure for reports: name -> [first, last] qubit, plus totals."""
        return {
            "n": self.n,
            "total_qubits": self.total_qubits,
            "subsystems": {name: [r.start, r.stop - 1] for name, r in self.slices.items()},
        }


def _packed(widths) -> dict:
    """Consecutive qubit ranges from qubit 0 up, one per (name, width) pair
    of ``widths``, in order."""
    slices = {}
    cursor = 0
    for name, width in widths:
        slices[name] = range(cursor, cursor + width)
        cursor += width
    return slices


def layout_for(n: int) -> RegisterLayout:
    """Canonical layout: 4n+6 qubits.  Repeated calls with an equal n,
    however it is passed, return the same (immutable) instance.  ``n``
    must be a matrix register width (:func:`qamp.errors._width`)."""
    return _layout_for(_width(n))


@lru_cache(maxsize=64)
def _layout_for(n: int) -> RegisterLayout:
    widths = ((name, n if name in ("R1", "C1", "R2", "C2") else 1) for name in CANONICAL_ORDER)
    return RegisterLayout(n=n, slices=_packed(widths))
