"""Every register-level stage against the gate sequence it stands for.

The gate sequences are written out here from the circuit definitions and
run through the general gate engine (``apply_gates``), which is itself held
to dense unitaries in ``test_statevector.py``.  The states are random dense
vectors, not encodings, so every amplitude of the view is exercised.  The
permutation, sign and label stages must agree bit for bit; W1 sums its
Hadamard layer in a different order and must agree to 1e-15.  At n = 1 each
stage is also held to its brute-force unitary.  The run path's w1 row
(the C1 = 0 row of w1 on the R2 = 0 slice) is held bit for bit to that
slice of w1 on the whole working register.  The flagging step, which
starts from that row and keeps only the payload block, is held bit for
bit to the payload slice of w3 followed by the conditional measurement on
the full register; its input is drawn on the run path's kernel-ordered
row and embedded by name for the reference.  States are float64 only; a
complex128 draw runs as its real and imaginary parts.
"""

import numpy as np
import pytest

from qamp import (
    EncodedBlock,
    GateSpec,
    MeasurementError,
    StateVector,
    apply_q,
    apply_q_controlled,
    apply_w0,
    apply_w1,
    apply_w2,
    apply_w3,
    conditional_measure,
    hermitian_conjugate,
    layout_for,
)
from qamp.multiplier import (
    PAYLOAD_ZEROS,
    _sylvester,
    _w1_row,
    cone_layout,
    flag_and_measure,
    payload_block,
    working_layout,
)
from qamp.registers import register_view, select
from qamp.statevector import apply_gates
from bruteforce import bf_q, bf_w0, bf_w1, bf_w2, bf_w3
from support import join_parts, pinned, real_parts, reorder, sylvester_block

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


def random_states(rng, num_qubits, dtype):
    """One random unit-norm draw of ``dtype``, as the real states it runs as."""
    amps = rng.normal(size=1 << num_qubits)
    if dtype is np.complex128:
        amps = amps + 1j * rng.normal(size=1 << num_qubits)
    return [StateVector(num_qubits, part) for part in real_parts(amps / np.linalg.norm(amps))]


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["float64", "complex128"])
@pytest.mark.parametrize("with_controls", [False, True], ids=["plain", "flags"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fused_stage_matches_its_gates(n, with_controls, dtype):
    layout = layout_for(n, with_controls=with_controls)
    rng = np.random.default_rng(1000 * n + with_controls)
    for state in random_states(rng, layout.total_qubits, dtype):
        before = state.amplitudes.copy()
        for name, fused, gates in stages(layout):
            got = fused(state).amplitudes
            want = apply_gates(state, gates).amplitudes
            assert got.dtype == want.dtype == np.float64, name
            if name == "w1":
                assert np.max(np.abs(got - want)) <= W1_TOL, name
            else:
                assert got.tobytes() == want.tobytes(), name
        assert state.amplitudes.tobytes() == before.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["float64", "complex128"])
def test_fused_stages_match_bruteforce_unitaries_n1(dtype):
    layout = layout_for(1)
    states = random_states(np.random.default_rng(7), layout.total_qubits, dtype)
    amps = join_parts([state.amplitudes for state in states])
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
        got = join_parts([fused(state).amplitudes for state in states])
        assert np.max(np.abs(got - unitaries[name] @ amps)) < 1e-15, name


@pytest.mark.parametrize("with_controls", [False, True], ids=["plain", "flags"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_order_stages_match_the_canonical_order(n, with_controls):
    # w1 and w2 on the run path's kernel-ordered working register against
    # the same stage on the canonical working register, byte for byte once
    # the axes are reordered by name
    layout = layout_for(n, with_controls=with_controls)
    working, canonical = working_layout(layout), layout.without("B", "BT")
    rng = np.random.default_rng(3000 * n + with_controls)
    (state,) = random_states(rng, working.total_qubits, np.float64)
    amps = reorder(state.amplitudes, working, canonical)
    on_canonical = StateVector(canonical.total_qubits, amps)
    for stage in (apply_w1, apply_w2):
        got = stage(state, working).amplitudes
        want = stage(on_canonical, canonical).amplitudes
        assert got.tobytes() == reorder(want, canonical, working).tobytes(), stage.__name__


@pytest.mark.parametrize(
    "n, with_controls",
    [(n, False) for n in (1, 2, 3, 4)] + [(n, True) for n in (1, 2, 3)],
    ids=["1-plain", "2-plain", "3-plain", "4-plain", "1-flags", "2-flags", "3-flags"],
)
def test_w1_row_is_the_c1_zero_row_of_w1(n, with_controls):
    # the run path's w1 reads only the R2 = 0 slice and keeps only C1 = 0;
    # odd and even n both, since a one-row (matrix-vector) product differs
    # from w1's in the last bit at some n of each
    layout = layout_for(n, with_controls=with_controls)
    working, cone = working_layout(layout), cone_layout(layout)
    rng = np.random.default_rng(4000 * n + with_controls)
    (state,) = random_states(rng, working.total_qubits, np.float64)
    want = pinned(apply_w1(state, working).amplitudes, working, {"C1": 0, "R2": 0})
    r2_zero = StateVector(cone.total_qubits, pinned(state.amplitudes, working, {"R2": 0}))
    got = _w1_row(r2_zero, cone)
    assert got.num_qubits == cone.without("C1").total_qubits
    assert got.amplitudes.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_sylvester_is_the_block_construction(n):
    # every entry is exactly +-2**(-n/2), with the recursive construction's
    # signs; w1 multiplies by the matrix and the run path's w1 row by its
    # first two rows
    want = sylvester_block(n)
    assert _sylvester(n).tobytes() == want.tobytes()


def embed_at_ancillae_zero(row_amps, layout):
    """The full-layout state equal to ``row_amps``, a state on
    ``cone_layout(layout).without("C1")``, where B = BT = C1 = R2 = 0 and
    zero elsewhere.  Once placed on the working register and reordered to
    the canonical qubit order it is placed by index arithmetic: B and BT are
    adjacent qubits, so a canonical working index is a full index with those
    two bits cut out."""
    working = working_layout(layout)
    working_amps = np.zeros(1 << working.total_qubits, dtype=row_amps.dtype)
    view, names = register_view(working_amps, working)
    row = select(view, names, {"C1": 0, "R2": 0})
    row[...] = row_amps.reshape(row.shape)
    working_amps = reorder(working_amps, working, layout.without("B", "BT"))
    b = layout.start("B")
    assert layout.start("BT") == b + 1
    full = np.arange(1 << layout.total_qubits)
    kept = full[(full >> b) & 3 == 0]
    working_index = (kept & ((1 << b) - 1)) | ((kept >> (b + 2)) << b)
    amps = np.zeros(full.size, dtype=working_amps.dtype)
    amps[kept] = working_amps[working_index]
    return StateVector(layout.total_qubits, amps)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["float64", "complex128"])
@pytest.mark.parametrize("with_controls", [False, True], ids=["plain", "flags"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_flag_and_measure_is_w3_then_measure(n, with_controls, dtype):
    layout = layout_for(n, with_controls=with_controls)
    row = cone_layout(layout).without("C1")
    rng = np.random.default_rng(2000 * n + with_controls)
    for state in random_states(rng, row.total_qubits, dtype):
        before = state.amplitudes.copy()
        got, got_weight = flag_and_measure(state, layout)
        full = embed_at_ancillae_zero(state.amplitudes, layout)
        want, want_weight = conditional_measure(apply_w3(full, layout), layout)
        assert got.num_qubits == payload_block(layout).layout.total_qubits
        assert got.amplitudes.dtype == want.amplitudes.dtype == np.float64
        # the block is the reference's B = BT = 1 payload slice, in the
        # slice's own C order, and the reference holds nothing else
        rest = want.amplitudes.copy()
        view, names = register_view(rest, layout)
        pins = {**{name: 0 for name in PAYLOAD_ZEROS}, "B": 1, "BT": 1}
        flagged = select(view, names, pins)
        assert got.amplitudes.tobytes() == np.ascontiguousarray(flagged).tobytes()
        flagged[...] = 0.0
        assert not np.any(rest)
        assert np.array([got_weight]).tobytes() == np.array([want_weight]).tobytes()
        assert state.amplitudes.tobytes() == before.tobytes()


@pytest.mark.parametrize("with_controls", [False, True], ids=["plain", "flags"])
def test_flag_and_measure_zero_branch_is_an_error(with_controls):
    # weight only off the payload subspace (M2 = 1): nothing gets flagged
    layout = layout_for(2, with_controls=with_controls)
    row = cone_layout(layout).without("C1")
    amps = np.zeros(1 << row.total_qubits)
    amps[1 << row.start("M2")] = 1.0
    with pytest.raises(MeasurementError) as got:
        flag_and_measure(StateVector(row.total_qubits, amps), layout)
    with pytest.raises(MeasurementError) as want:
        conditional_measure(apply_w3(embed_at_ancillae_zero(amps, layout), layout), layout)
    assert str(got.value) == str(want.value)
    assert got.value.probability == want.value.probability == 0.0
