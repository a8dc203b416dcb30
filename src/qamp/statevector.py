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
of the nonzero squares, so a branch weighs the same, bit for bit, whether
it is read off a full-register state or off the payload tensor alone.

This gate engine is the general-purpose API and the reference the circuit
stages are tested against.  The pipeline itself holds no register state:
it computes the K1 = K2 quarters of w1's C1 = R2 = 0 row straight from the
two operands' entries and slack and writes w2's flagged output from them
into the payload, a [K1, R1, C2, M1] component tensor
(:func:`qamp.multiplier.flag_and_measure`), whose weight is
:func:`_weight`'s; the multi-controlled w3 goes through :func:`apply_gates`
only in the full-register reference :func:`qamp.multiplier.apply_w3`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MeasurementError, ParameterError, ValidationError

_SQRT1_2 = 1.0 / math.sqrt(2.0)

#: squares handed to ``math.fsum`` at a time by :func:`_weight`
_FSUM_CHUNK = 1 << 16

GATE_KINDS = ("X", "Z", "H", "SWAP", "CNOT", "MULTI_CONTROLLED")


def _check_qubit(num_qubits: int, qubit: int) -> None:
    if not 0 <= qubit < num_qubits:
        raise DimensionError(f"qubit {qubit} out of range for a {num_qubits}-qubit state")


def _check_outcome(outcome: int) -> None:
    if outcome not in (0, 1):
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


def _weight(view: np.ndarray) -> float:
    """Exactly rounded sum of squares over a view: ``math.fsum`` of the
    squares of its nonzero amplitudes.  The result depends neither on the
    order of the amplitudes nor on how many zeros the view carries, so a
    subspace weighs the same, bit for bit, in every state that holds it.
    The squares reach ``math.fsum`` a chunk at a time, so a dense view never
    becomes one Python float per amplitude at once."""
    squares = view[view != 0]  # a copy, squared in place
    np.multiply(squares, squares, out=squares)
    chunks = (squares[i : i + _FSUM_CHUNK].tolist() for i in range(0, squares.size, _FSUM_CHUNK))
    return math.fsum(itertools.chain.from_iterable(chunks))


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

    A float64 array is kept as given; other real input is converted to
    float64, and complex input raises :class:`ValidationError`.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
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
        self.amplitudes = arr

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probability(self, qubit: int, outcome: int) -> float:
        """Exact marginal probability of reading ``qubit`` as ``outcome``."""
        _check_qubit(self.num_qubits, qubit)
        _check_outcome(outcome)
        return _weight(_pinned(self.amplitudes, self.num_qubits, ((qubit, outcome),)))

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())


@dataclass(frozen=True)
class GateSpec:
    """One gate: a kind, target qubits, and (qubit, polarity) controls.

    X, Z and H take one target; SWAP exactly two; CNOT is an X with a single
    positive control; MULTI_CONTROLLED applies X to every target when all
    controls match their polarity.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        object.__setattr__(self, "controls", tuple((int(q), int(p)) for q, p in self.controls))
        if self.kind not in GATE_KINDS:
            raise ParameterError(f"unknown gate kind {self.kind!r}")
        if self.kind == "SWAP":
            if len(self.targets) != 2:
                raise ValidationError("SWAP takes exactly two targets")
        elif self.kind in ("X", "Z", "H", "CNOT"):
            if len(self.targets) != 1:
                raise ValidationError(f"{self.kind} takes exactly one target")
        elif not self.targets:
            raise ValidationError("MULTI_CONTROLLED needs at least one target")
        if self.kind == "CNOT" and len(self.controls) != 1:
            raise ValidationError("CNOT takes exactly one control")
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
    def x(cls, target: int, controls=()) -> "GateSpec":
        return cls("X", (target,), tuple(controls))

    @classmethod
    def z(cls, target: int, controls=()) -> "GateSpec":
        return cls("Z", (target,), tuple(controls))

    @classmethod
    def h(cls, target: int, controls=()) -> "GateSpec":
        return cls("H", (target,), tuple(controls))

    @classmethod
    def swap(cls, a: int, b: int, controls=()) -> "GateSpec":
        return cls("SWAP", (a, b), tuple(controls))

    @classmethod
    def cnot(cls, control: int, target: int) -> "GateSpec":
        return cls("CNOT", (target,), ((control, 1),))

    @classmethod
    def multi_controlled_x(cls, targets, controls) -> "GateSpec":
        return cls("MULTI_CONTROLLED", tuple(targets), tuple(controls))


def init_basis(num_qubits: int, basis_index: int) -> StateVector:
    """Real state with amplitude 1 on a single basis index."""
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

    if gate.kind in ("X", "CNOT", "MULTI_CONTROLLED"):
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


def apply_gate(state: StateVector, gate: GateSpec) -> StateVector:
    """Apply one gate, returning a new statevector; the input is unchanged."""
    return apply_gates(state, (gate,))


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
        raise MeasurementError(
            f"outcome {outcome} on qubit {qubit} has zero probability", probability=0.0
        )
    amps = np.zeros_like(state.amplitudes)
    np.divide(kept, math.sqrt(prob), out=_pinned(amps, state.num_qubits, pin))
    return StateVector(state.num_qubits, amps), prob
