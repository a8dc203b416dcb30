"""Dense statevector engine with in-place register-view gate kernels.

Convention: qubit 0 is the least significant bit of the amplitude index, so
the basis state |q_{Q-1} ... q_1 q_0> sits at index sum(q_i << i).

Gates carry an explicit control list with per-control polarity; polarity-0
controls fire on |0>, which is how the pipeline projects onto an all-zero
subspace without extra NOT gates.

Every gate here is real, and the matrix encoding puts real and imaginary
parts on separate basis states, so every amplitude is real: states hold
float64 amplitudes only, and complex input is refused rather than having
its imaginary part dropped.  A real circuit maps a complex state as its
real and imaginary parts, so such a state runs as two real states.

Kernels reshape the amplitudes to one length-2 axis per qubit and update
strided views in place: controls pin their axis to the control polarity,
X and SWAP exchange two slices, Z negates one, H combines two.  No index
array or bit mask is built.  Public entry points never mutate their input:
:func:`apply_gates` copies the state once and then runs a whole gate
sequence on the copy.

Weights (:meth:`StateVector.probability`, :func:`project_and_renormalize`
and the residual of :func:`qamp.encoder.decode`) are exactly rounded sums
of the nonzero squares (:func:`qamp.multiplier._weight`), so a branch
weighs the same, bit for bit, whether it is read off a full-register state
or off the (re, im) pairs that a run holds.

The full-register circuit (:mod:`qamp.conjugator`) runs on this engine:
the manipulations, the conjugation, w0, w2 and w3 are gate lists handed to
:func:`apply_gates`; only the build and w1 write the register view
directly.  A gate holds at most half a state beside the one it updates:
H's ``a0 + a1``, or the slice that an X or SWAP exchanges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MeasurementError, ParameterError, ValidationError, _integer
from .multiplier import _SQRT1_2, _weight

GATE_KINDS = ("X", "Z", "H", "SWAP")


def _check_qubit(num_qubits: int, qubit: int) -> None:
    if not 0 <= _integer(qubit, "qubit") < num_qubits:
        raise DimensionError(f"qubit {qubit} out of range for a {num_qubits}-qubit state")


def _check_outcome(outcome: int) -> None:
    if _integer(outcome, "outcome") not in (0, 1):
        raise ParameterError(f"outcome must be 0 or 1, got {outcome}")


def _pinned(amps: np.ndarray, num_qubits: int, pins) -> np.ndarray:
    """Writable view of the amplitudes whose qubits match every (qubit, bit)
    pin.  Pinned axes keep length 1, so the view is an array even when every
    qubit is pinned."""
    index = [slice(None)] * num_qubits
    for qubit, bit in pins:
        # axis 0 of the C-ordered reshape is the most significant qubit
        index[num_qubits - 1 - qubit] = slice(bit, bit + 1)
    return amps.reshape((2,) * num_qubits)[tuple(index)]


def _negate(view: np.ndarray) -> None:
    """Negate a view in place.  Multiplying by -1.0 gives the same bits as
    ``np.negative``, which on numpy 2.4.6 (seen on an AVX-512 CPU) writes
    wrong values through an output stride of 64 bytes."""
    np.multiply(view, -1.0, out=view)


def _exchange(a: np.ndarray, b: np.ndarray) -> None:
    held = a.copy()
    a[...] = b
    b[...] = held


@dataclass
class StateVector:
    """Real amplitudes over the 2**num_qubits basis states.

    ``num_qubits`` is an integer, not a bool.  A float64 array is kept as
    given; other real input is converted to float64, and complex or
    non-finite input raises :class:`ValidationError`.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.num_qubits = _integer(self.num_qubits, "qubit count")
        arr = self.amplitudes
        if np.iscomplexobj(arr):
            raise ValidationError(
                "amplitudes must be real; run a complex state as its real and imaginary parts"
            )
        arr = np.asarray(arr, dtype=np.float64)
        if self.num_qubits < 0 or arr.shape != (1 << self.num_qubits,):
            raise DimensionError(
                f"expected {1 << max(self.num_qubits, 0)} amplitudes for "
                f"{self.num_qubits} qubits, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValidationError("amplitudes must be finite")
        self.amplitudes = arr

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probability(self, qubit: int, outcome: int) -> float:
        """Exact marginal probability of reading ``qubit`` as ``outcome``."""
        _check_qubit(self.num_qubits, qubit)
        _check_outcome(outcome)
        return _weight(_pinned(self.amplitudes, self.num_qubits, ((qubit, outcome),)))

    def copy(self) -> "StateVector":
        """A copy of this state, holding a copy of its amplitudes, which
        the constructor has already checked, so they are not checked
        again."""
        state = object.__new__(StateVector)
        state.num_qubits, state.amplitudes = self.num_qubits, self.amplitudes.copy()
        return state


@dataclass(frozen=True)
class GateSpec:
    """One gate: a kind, target qubits, and (qubit, polarity) controls.

    Z and H take one target and SWAP exactly two; X takes one or more and
    flips every target, so a CNOT is an X with one control and the payload
    flag an X on both ancillae.  Any gate fires only where all its controls
    match their polarity.  Qubits and polarities are integers, numpy ones
    included, and never bools.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        targets = tuple(_integer(t, "gate qubit") for t in self.targets)
        controls = tuple((_integer(q, "gate qubit"), _integer(p, "control polarity")) for q, p in self.controls)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "controls", controls)
        if self.kind not in GATE_KINDS:
            raise ParameterError(f"unknown gate kind {self.kind!r}")
        if self.kind == "SWAP":
            if len(self.targets) != 2:
                raise ValidationError("SWAP takes exactly two targets")
        elif self.kind == "X":
            if not self.targets:
                raise ValidationError("X needs at least one target")
        elif len(self.targets) != 1:
            raise ValidationError(f"{self.kind} takes exactly one target")
        touched = list(self.targets) + [q for q, _ in self.controls]
        if len(set(touched)) != len(touched):
            raise ValidationError(
                f"gate qubits overlap: targets={self.targets} controls={self.controls}"
            )
        if any(q < 0 for q in touched):
            raise ValidationError("qubit indices must be nonnegative")
        if any(p not in (0, 1) for _, p in self.controls):
            raise ValidationError("control polarity must be 0 or 1")

    @classmethod
    def x(cls, targets, controls=()) -> "GateSpec":
        """X on one target qubit, or on each of a sequence of them."""
        return cls("X", tuple(np.ravel(targets)), tuple(controls))

    @classmethod
    def z(cls, target: int, controls=()) -> "GateSpec":
        return cls("Z", (target,), tuple(controls))

    @classmethod
    def h(cls, target: int, controls=()) -> "GateSpec":
        return cls("H", (target,), tuple(controls))

    @classmethod
    def swap(cls, a: int, b: int, controls=()) -> "GateSpec":
        return cls("SWAP", (a, b), tuple(controls))


def init_basis(num_qubits: int, basis_index: int) -> StateVector:
    """Real state with amplitude 1 on a single basis index; the qubit count
    and the index are integers, not bools."""
    num_qubits = _integer(num_qubits, "qubit count")
    basis_index = _integer(basis_index, "basis index")
    if num_qubits < 0:
        raise DimensionError(f"qubit count must be nonnegative, got {num_qubits}")
    dim = 1 << num_qubits
    if not 0 <= basis_index < dim:
        raise ParameterError(f"basis index {basis_index} out of range for {num_qubits} qubits")
    amps = np.zeros(dim)
    amps[basis_index] = 1.0
    return StateVector(num_qubits, amps)


def _apply_in_place(amps: np.ndarray, num_qubits: int, gate: GateSpec) -> None:
    """Apply one gate to ``amps``, touching only the amplitudes whose control
    bits match every polarity."""
    for t in gate.targets:
        _check_qubit(num_qubits, t)
    for cq, _ in gate.controls:
        _check_qubit(num_qubits, cq)

    def part(*pins):
        return _pinned(amps, num_qubits, gate.controls + pins)

    if gate.kind == "X":
        # flipping several targets is one slice exchange per target
        for t in gate.targets:
            _exchange(part((t, 0)), part((t, 1)))
    elif gate.kind == "Z":
        _negate(part((gate.targets[0], 1)))
    elif gate.kind == "H":
        t = gate.targets[0]
        a0, a1 = part((t, 0)), part((t, 1))
        total = a0 + a1
        np.subtract(a0, a1, out=a1)
        np.multiply(a1, _SQRT1_2, out=a1)
        np.multiply(total, _SQRT1_2, out=a0)
    else:  # SWAP: exchange the slices where the two target bits differ
        a, b = gate.targets
        _exchange(part((a, 0), (b, 1)), part((a, 1), (b, 0)))


def apply_gates(state: StateVector, gates) -> StateVector:
    """Apply a gate sequence, returning a new statevector.

    The input is copied once and every gate then updates the copy in place,
    so the input is never mutated.
    """
    out = state.copy()
    for gate in gates:
        _apply_in_place(out.amplitudes, out.num_qubits, gate)
    return out


def project_and_renormalize(
    state: StateVector, qubit: int, outcome: int
) -> tuple[StateVector, float]:
    """Collapse ``qubit`` onto ``outcome``.

    Returns the renormalized survivor and the pre-projection weight of the
    selected outcome subspace.
    """
    _check_qubit(state.num_qubits, qubit)
    _check_outcome(outcome)
    pin = ((qubit, outcome),)
    kept = _pinned(state.amplitudes, state.num_qubits, pin)
    prob = _weight(kept)
    if prob == 0.0:
        raise MeasurementError(f"outcome {outcome} on qubit {qubit} has zero probability")
    amps = np.zeros_like(state.amplitudes)
    np.divide(kept, math.sqrt(prob), out=_pinned(amps, state.num_qubits, pin))
    return StateVector(state.num_qubits, amps), prob
