"""Every register-level stage against the gate sequence it stands for.

The gate sequences are written out here from the circuit definitions and
run through the general gate engine (``apply_gates``), which is itself held
to dense unitaries in ``test_statevector.py``.  The states are random dense
vectors, not encodings, so every amplitude of the view is exercised.  The
permutation, sign and label stages must agree bit for bit; W1 sums its
Hadamard layer in a different order and must agree to 1e-15.  At n = 1 each
stage is also held to its brute-force unitary.
"""

import numpy as np
import pytest

from qamp import (
    EncodedBlock,
    GateSpec,
    StateVector,
    apply_q,
    apply_q_controlled,
    apply_w0,
    apply_w1,
    apply_w2,
    apply_w3,
    hermitian_conjugate,
    layout_for,
)
from qamp.statevector import apply_gates
from bruteforce import bf_q, bf_w0, bf_w1, bf_w2, bf_w3

W1_TOL = 1e-15


def conjugate_gates(layout, m, r, c, controls=()):
    gates = [GateSpec.swap(a, b, controls) for a, b in zip(layout.qubits(r), layout.qubits(c))]
    return gates + [GateSpec.z(layout.start(m), controls)]


def q_gates(layout, which, controls=()):
    if which == 1:
        return conjugate_gates(layout, "M1", "R1", "C1", controls)
    if which == 2:
        return conjugate_gates(layout, "M2", "R2", "C2", controls)
    pairs = [
        *zip(layout.qubits("R1"), layout.qubits("C1")),
        *zip(layout.qubits("R2"), layout.qubits("C2")),
        (layout.start("M1"), layout.start("M2")),
    ]
    return [GateSpec.swap(a, b, controls) for a, b in pairs]


def w_gates(layout, stage):
    if stage == "w0":
        return [GateSpec.cnot(c, r) for c, r in zip(layout.qubits("C1"), layout.qubits("R2"))]
    if stage == "w1":
        return [GateSpec.h(q) for q in layout.qubits("C1")]
    m1, m2 = layout.start("M1"), layout.start("M2")
    if stage == "w2":
        return [
            GateSpec.z(m1, ((m2, 1),)),
            GateSpec.x(m1, ((m2, 1),)),
            GateSpec.h(m2),
            GateSpec.cnot(layout.start("K1"), layout.start("K2")),
        ]
    zeros = (*layout.qubits("C1"), *layout.qubits("R2"), m2, layout.start("K2"))
    flags = (layout.start("B"), layout.start("BT"))
    return [GateSpec.multi_controlled_x(flags, [(q, 0) for q in zeros])]


def stages(layout):
    """(name, fused stage, gate sequence) for every stage the layout has."""
    out = [(f"q{w}", lambda s, w=w: apply_q(s, w, layout), q_gates(layout, w)) for w in (1, 2, 3)]
    for side in ("first", "second"):
        block = EncodedBlock.for_side(layout, side)
        out.append(
            (
                f"conjugate_{side}",
                lambda s, block=block: hermitian_conjugate(s, block),
                conjugate_gates(layout, block.m, block.r, block.c),
            )
        )
    if layout.control_flags_present:
        for w in (1, 2, 3):
            gates = q_gates(layout, w, ((layout.start(f"Q{w}"), 1),))
            out.append((f"q{w}_controlled", lambda s, w=w: apply_q_controlled(s, w, layout), gates))
    for name, fn in (("w0", apply_w0), ("w1", apply_w1), ("w2", apply_w2), ("w3", apply_w3)):
        out.append((name, lambda s, fn=fn: fn(s, layout), w_gates(layout, name)))
    return out


def random_state(rng, num_qubits, dtype):
    amps = rng.normal(size=1 << num_qubits)
    if dtype is np.complex128:
        amps = amps + 1j * rng.normal(size=1 << num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["float64", "complex128"])
@pytest.mark.parametrize("with_controls", [False, True], ids=["plain", "flags"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fused_stage_matches_its_gates(n, with_controls, dtype):
    layout = layout_for(n, with_controls=with_controls)
    rng = np.random.default_rng(1000 * n + with_controls)
    state = random_state(rng, layout.total_qubits, dtype)
    before = state.amplitudes.copy()
    for name, fused, gates in stages(layout):
        got = fused(state).amplitudes
        want = apply_gates(state, gates).amplitudes
        assert got.dtype == want.dtype == dtype, name
        if name == "w1":
            assert np.max(np.abs(got - want)) <= W1_TOL, name
        else:
            assert got.tobytes() == want.tobytes(), name
    assert state.amplitudes.tobytes() == before.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["float64", "complex128"])
def test_fused_stages_match_bruteforce_unitaries_n1(dtype):
    layout = layout_for(1)
    state = random_state(np.random.default_rng(7), layout.total_qubits, dtype)
    unitaries = {
        "q1": bf_q(1, 1),
        "q2": bf_q(1, 2),
        "q3": bf_q(1, 3),
        "conjugate_first": bf_q(1, 1),
        "conjugate_second": bf_q(1, 2),
        "w0": bf_w0(1),
        "w1": bf_w1(1),
        "w2": bf_w2(1),
        "w3": bf_w3(1),
    }
    names = [name for name, _fused, _gates in stages(layout)]
    assert sorted(names) == sorted(unitaries)
    for name, fused, _gates in stages(layout):
        got = fused(state).amplitudes
        assert np.max(np.abs(got - unitaries[name] @ state.amplitudes)) < 1e-15, name
