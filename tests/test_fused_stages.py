"""Every register-level stage against the gate sequence it stands for.

The gate sequences are written out here from the circuit definitions and
run through the general gate engine (``apply_gates``), which is itself held
to dense unitaries in ``test_statevector.py``.  The states are random dense
vectors, not encodings, so every amplitude of the view is exercised.  The
permutation, sign and label stages must agree bit for bit; W1 sums its
Hadamard layer in a different order and must agree to 1e-15.  At n = 1 each
stage is also held to its brute-force unitary.  The run path computes only
the K1 = K2 diagonal of w1's row; it is held bit for bit to those slices
of the C1 = R2 = 0 slice of w1 after w0 on the build followed by Q3, Q2
and Q1 as the manipulations ask, with and without control flags and with
its block cap brought down to each block boundary.  The flagging step, which runs w2 from that diagonal and keeps
only the payload tensor, is held bit for bit to the payload slice of w2, w3
and the conditional measurement on the full register; its input is the
diagonal of a random row, and the reference gets the whole row, embedded
by name.  States are float64 only; a complex128 draw runs as its real and
imaginary parts.
"""

import itertools

import numpy as np
import pytest

from qamp import (
    ComplexMatrix,
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
    multiplier,
    prepare,
)
from qamp.multiplier import (
    MANIPULATIONS,
    PAYLOAD_ZEROS,
    _sylvester,
    _w1_diagonal,
    flag_and_measure,
)
from qamp.encoder import _inside
from qamp.registers import CONTROL_FLAGS, register_view, select
from qamp.statevector import apply_gates
from bruteforce import bf_q, bf_w0, bf_w1, bf_w2, bf_w3
from support import (
    BLOCK_CAPS,
    block_cap,
    join_parts,
    manipulated_build,
    mixed_entries,
    pinned,
    random_prepared,
    real_parts,
    sylvester_block,
)

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


def diagonal_names(manips):
    """The subsystems on axes 1 to 4 of :func:`_w1_diagonal`'s diagonal:
    R1, the first operand's label, C2 and the second's label, which the
    operand exchange crosses."""
    crossed = "swap_order" in manips
    return ("R1", "M2" if crossed else "M1", "C2", "M1" if crossed else "M2")


@pytest.mark.parametrize(
    "n, with_controls",
    [(n, False) for n in (1, 2, 3, 4)] + [(n, True) for n in (1, 2, 3)],
    ids=["1-plain", "2-plain", "3-plain", "4-plain", "1-flags", "2-flags", "3-flags"],
)
def test_w1_row_is_the_c1_zero_row_of_w1(n, with_controls):
    # the run path sums the K1 = K2 diagonal of w1's C1 = 0 row over the
    # R2 = 0 slice straight from the operand tensors; odd and even n both,
    # since the Hadamard scale is a power of two only at even n.  The
    # reference stages still take control flags: they start in |0> and no
    # stage here touches them, so the row is the flags-zero slice and the
    # rest stays zero
    layout = layout_for(n, with_controls=with_controls)
    working = layout.without("B", "BT")
    flags = {name: 0 for name in CONTROL_FLAGS if with_controls}
    quarter_layout = working.without("C1", "R2", "K1", "K2", *flags)
    rng = np.random.default_rng(4000 * n + with_controls)
    pm1 = random_prepared(rng, n, complex_b=True)
    pm2 = random_prepared(rng, n, complex_b=True)
    for r in range(4):
        for manips in itertools.combinations(sorted(MANIPULATIONS), r):
            state = manipulated_build(pm1, pm2, working, manips)
            state = apply_w1(apply_w0(state, working), working)
            if flags:
                rest = state.amplitudes.copy()
                view, view_names = register_view(rest, working)
                select(view, view_names, flags)[...] = 0.0
                assert not np.any(rest), manips
            diagonal = _w1_diagonal(pm1, pm2, manips)
            names = diagonal_names(manips)
            for k in (0, 1):
                want = pinned(state.amplitudes, working, {"C1": 0, "R2": 0, "K1": k, "K2": k, **flags})
                got = diagonal[k].transpose([names.index(name) for name in quarter_layout.view_names])
                assert np.ascontiguousarray(got).tobytes() == want.tobytes(), (manips, k)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_w1_row_is_blocked_bit_for_bit(n, monkeypatch):
    # the K1 = K2 = 1 quarter of the row, (2 dim) x (2 dim), is summed a
    # block at a time, and at n <= 4 the default block holds all of it;
    # with the cap brought down the blocks split the c range and the rows
    # as they do from n = 5 on, and the diagonal must not move.  Operand
    # components mix +-0.0 with magnitudes of either sign
    layout = layout_for(n)
    working = layout.without("B", "BT")
    quarter_layout = working.without("C1", "R2", "K1", "K2")
    dim = 1 << n
    caps = {case: block_cap(case, dim, 2 * dim, 2 * dim) for case in BLOCK_CAPS}
    rng = np.random.default_rng(4100 + n)
    pm1, pm2 = (
        prepare(ComplexMatrix(n, mixed_entries(rng, n)), 0.75, b_phase=phase) for phase in (None, 2.0)
    )
    for r in range(4):
        for manips in itertools.combinations(sorted(MANIPULATIONS), r):
            state = manipulated_build(pm1, pm2, working, manips)
            state = apply_w1(apply_w0(state, working), working)
            want = b"".join(
                pinned(state.amplitudes, working, {"C1": 0, "R2": 0, "K1": k, "K2": k}).tobytes()
                for k in (0, 1)
            )
            for case, cap in caps.items():
                monkeypatch.setattr(multiplier, "BLOCK", cap)
                diagonal = _w1_diagonal(pm1, pm2, manips)
                names = diagonal_names(manips)
                order = [0] + [1 + names.index(name) for name in quarter_layout.view_names]
                got = diagonal.transpose(order)
                assert np.ascontiguousarray(got).tobytes() == want, (manips, case)


@pytest.mark.parametrize("n", range(1, 9))
def test_sylvester_is_the_block_construction(n):
    # every entry is exactly +-2**(-n/2), with the recursive construction's
    # signs; w1 sums with it and the run path's w1 row with its first row
    want = sylvester_block(n)
    assert _sylvester(n).tobytes() == want.tobytes()


#: the row's axis names without and with the operand exchange, which
#: crosses the labels of the two operands
ROW_NAMES = {
    "plain": ("K1", "R1", "M1", "K2", "C2", "M2"),
    "crossed": ("K1", "R1", "M2", "K2", "C2", "M1"),
}


def embed_row(row, names, layout):
    """The full-layout state equal to ``row`` (axes named by ``names``)
    where C1, R2, B and BT are 0, and zero elsewhere."""
    amps = np.zeros(1 << layout.total_qubits, dtype=row.dtype)
    view, view_names = register_view(amps, layout)
    pins = {"C1": 0, "R2": 0, "B": 0, "BT": 0}
    kept = [name for name in view_names if name not in pins]
    view[tuple(pins.get(name, slice(None)) for name in view_names)] = row.transpose(
        [names.index(name) for name in kept]
    )
    return StateVector(layout.total_qubits, amps)


def diagonal_of(row, names):
    """The K1 = K2 diagonal of ``row`` (axes named by ``names``, K1 and K2
    at positions 0 and 3) as :func:`_w1_diagonal` returns it: indexed
    [k, R1, first label, C2, second label]."""
    assert (names[0], names[3]) == ("K1", "K2")
    return np.stack([row[k, :, :, k] for k in (0, 1)])


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["float64", "complex128"])
@pytest.mark.parametrize("labels", ["plain", "crossed"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_flag_and_measure_is_w3_then_measure(n, labels, dtype):
    # the flagging step sees only the row's K1 = K2 diagonal, the reference
    # the whole random row: what lies off the diagonal never reaches the
    # flagged branch, and the labels' order, crossed or not, does not matter
    layout = layout_for(n)
    names = ROW_NAMES[labels]
    rng = np.random.default_rng(2000 * n + (labels == "crossed"))
    for state in random_states(rng, 2 * n + 4, dtype):
        row = state.amplitudes.reshape(2, 1 << n, 2, 2, 1 << n, 2)
        diagonal = diagonal_of(row, names)
        before = diagonal.copy()
        got, got_weight = flag_and_measure(diagonal, layout)
        full = embed_row(row, names, layout)
        want, want_weight = conditional_measure(apply_w3(apply_w2(full, layout), layout), layout)
        assert got.shape == (2, 1 << n, 1 << n, 2)
        assert got.dtype == want.amplitudes.dtype == np.float64
        # the tensor is the reference's B = BT = 1 payload slice, indexed
        # [K1, R1, C2, M1], and the reference holds nothing else
        wanted = _inside(want.amplitudes, EncodedBlock.pipeline_output(layout))
        assert got.tobytes() == wanted.tobytes()
        rest = want.amplitudes.copy()
        view, view_names = register_view(rest, layout)
        pins = {**{name: 0 for name in PAYLOAD_ZEROS}, "B": 1, "BT": 1}
        select(view, view_names, pins)[...] = 0.0
        assert not np.any(rest)
        assert np.array([got_weight]).tobytes() == np.array([want_weight]).tobytes()
        assert diagonal.tobytes() == before.tobytes()


@pytest.mark.parametrize("labels", ["plain", "crossed"])
def test_flag_and_measure_zero_branch_is_an_error(labels):
    # weight only off the payload subspace: at M2 = 1 with K2 != K1, which
    # w2 keeps there and the diagonal does not hold, or on the diagonal at
    # (M2, M1) = (0, 0) and (1, 1), which w2's difference cancels
    layout = layout_for(2)
    names = ROW_NAMES[labels]
    off = {"K1": 1, "K2": 0, "M2": 1, "M1": 0, "R1": 0, "C2": 0}
    cancelled = [
        {"K1": 1, "K2": 1, "M2": m, "M1": m, "R1": 2, "C2": 3} for m in (0, 1)
    ]
    for placed in ([off], cancelled):
        row = np.zeros((2, 4, 2, 2, 4, 2))
        for pins in placed:
            row[tuple(pins[name] for name in names)] = 1.0
        with pytest.raises(MeasurementError) as got:
            flag_and_measure(diagonal_of(row, names), layout)
        full = embed_row(row, names, layout)
        with pytest.raises(MeasurementError) as want:
            conditional_measure(apply_w3(apply_w2(full, layout), layout), layout)
        assert str(got.value) == str(want.value)
        assert got.value.probability == want.value.probability == 0.0
