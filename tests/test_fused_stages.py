"""Every full-register stage against the gate sequence it stands for.

The gate sequences are written out here from the circuit definitions, not
imported from the package, and run through the general gate engine
(``apply_gates``), which is itself held to dense unitaries in
``test_statevector.py``.  Q1..Q3, the conjugation, w0, w2 and w3 run their
own gate lists through that engine, so these tests hold the package's lists
to the ones written here, bit for bit.  w1 is the one stage still fused
into a pass over the register view: it sums its Hadamard layer in a
different order and must agree to 1e-15.  The states are random dense
vectors, not encodings, so every amplitude is exercised.  At n = 1 each
stage is also held to its brute-force unitary.  The run path computes only
the K1 = K2 = 1 quarter of w1's row and the K1 = K2 = 0 quarter's 2 x 2
corner; the quarter is held bit for bit to that slice of the C1 = R2 = 0
slice of w1 after w0 on the build followed by Q3, Q2 and Q1 as the
manipulations ask, and the K1 = K2 = 0 slice to the corner and +0.0
everywhere else, and the quarter's one einsum must add every amplitude's
terms in c order (the order canary).  The flagging step, which runs w2
from the quarter and the corner and keeps only the flagged branch, the
product's entries and the slack, is held bit for bit to the payload slice
of w2, w3 and the conditional measurement on the full register; its input
is a random row whose K1 = K2 = 0 diagonal is zero outside its corner, and
the reference gets the whole row, embedded by name.  States are float64
only; a complex128 draw runs as its real and imaginary parts.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from qamp import ComplexMatrix, MeasurementError, prepare
from qamp.conjugator import (
    PAYLOAD_ZEROS,
    _sylvester,
    apply_q,
    apply_w0,
    apply_w1,
    apply_w2,
    apply_w3,
    conditional_measure,
    hermitian_conjugate,
)
from qamp.multiplier import (
    MANIPULATIONS,
    _operand_factors,
    _orientation,
    _w1_quarter,
    flag_and_measure,
)
from qamp.encoder import EncodedBlock, _inside, register_view, select
from qamp.registers import layout_for
from qamp.statevector import GateSpec, StateVector, apply_gates
from bruteforce import bf_q, bf_w0, bf_w1, bf_w2, bf_w3
from support import (
    ORDER_CANARY,
    join_parts,
    manipulated_build,
    mixed_entries,
    pinned,
    prepared_from_tilde,
    random_prepared,
    real_parts,
    sylvester_block,
)

W1_TOL = 1e-15


def plain(n):
    # case ids name the plain layout, as they have since layouts could also
    # carry control flags; only the plain one is left
    return f"{n}-plain"


def conjugate_gates(layout, m, r, c):
    gates = [GateSpec.swap(a, b) for a, b in zip(layout.qubits(r), layout.qubits(c))]
    return gates + [GateSpec.z(layout.start(m))]


def q_gates(layout, which):
    if which == 1:
        return conjugate_gates(layout, "M1", "R1", "C1")
    if which == 2:
        return conjugate_gates(layout, "M2", "R2", "C2")
    pairs = [
        *zip(layout.qubits("R1"), layout.qubits("C1")),
        *zip(layout.qubits("R2"), layout.qubits("C2")),
        (layout.start("M1"), layout.start("M2")),
    ]
    return [GateSpec.swap(a, b) for a, b in pairs]


def w_gates(layout, stage):
    if stage == "w0":
        return [GateSpec.x(r, ((c, 1),)) for c, r in zip(layout.qubits("C1"), layout.qubits("R2"))]
    if stage == "w1":
        return [GateSpec.h(q) for q in layout.qubits("C1")]
    m1, m2 = layout.start("M1"), layout.start("M2")
    if stage == "w2":
        return [
            GateSpec.z(m1, ((m2, 1),)),
            GateSpec.x(m1, ((m2, 1),)),
            GateSpec.h(m2),
            GateSpec.x(layout.start("K2"), ((layout.start("K1"), 1),)),
        ]
    zeros = (*layout.qubits("C1"), *layout.qubits("R2"), m2, layout.start("K2"))
    flags = (layout.start("B"), layout.start("BT"))
    return [GateSpec.x(flags, [(q, 0) for q in zeros])]


def stages(layout):
    """(name, package stage, gate sequence written here) for every stage."""
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
@pytest.mark.parametrize("n", [1, 2, 3], ids=plain)
def test_fused_stage_matches_its_gates(n, dtype):
    layout = layout_for(n)
    rng = np.random.default_rng(1000 * n)
    for state in random_states(rng, layout.total_qubits, dtype):
        before = state.amplitudes.copy()
        for name, stage, gates in stages(layout):
            got = stage(state).amplitudes
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
    names = [name for name, _stage, _gates in stages(layout)]
    assert sorted(names) == sorted(unitaries)
    for name, stage, _gates in stages(layout):
        got = join_parts([stage(state).amplitudes for state in states])
        assert np.max(np.abs(got - unitaries[name] @ amps)) < 1e-15, name


def diagonal_names(manips):
    """The subsystems on the axes of :func:`_w1_quarter`'s quarter: R1,
    the first operand's label, C2 and the second's label, which the
    operand exchange crosses."""
    crossed = "swap_order" in manips
    return ("R1", "M2" if crossed else "M1", "C2", "M1" if crossed else "M2")


def w1_diagonal(pm1, pm2, manips):
    """The K1 = K2 diagonal of w1's row from :func:`_w1_quarter`, indexed
    [k, R1, first label, C2, second label]: the quarter at k = 1, and at
    k = 0 the corner at R1 = C2 = 0 and +0.0 everywhere else."""
    quarter, corner = _w1_quarter(pm1, pm2, manips)
    assert all(type(amplitude) is float for amplitude in corner)
    diagonal = np.zeros((2, *quarter.shape))
    diagonal[0, 0, :, 0, :] = np.reshape(corner, (2, 2))
    diagonal[1] = quarter
    return diagonal


@pytest.mark.parametrize("n", [1, 2, 3, 4], ids=plain)
def test_w1_row_is_the_c1_zero_row_of_w1(n):
    # the run path sums the K1 = K2 = 1 quarter of w1's C1 = 0 row over the
    # R2 = 0 slice straight from the operand tensors, and the reference's
    # K1 = K2 = 0 quarter must be its corner and +0.0 elsewhere; odd and
    # even n both, since the Hadamard scale is a power of two only at even n
    working = layout_for(n).without("B", "BT")
    quarter_layout = working.without("C1", "R2", "K1", "K2")
    rng = np.random.default_rng(4000 * n)
    pm1 = random_prepared(rng, n, complex_b=True)
    pm2 = random_prepared(rng, n, complex_b=True)
    for r in range(4):
        for manips in itertools.combinations(sorted(MANIPULATIONS), r):
            state = manipulated_build(pm1, pm2, working, manips)
            state = apply_w1(apply_w0(state, working), working)
            diagonal = w1_diagonal(pm1, pm2, manips)
            names = diagonal_names(manips)
            for k in (0, 1):
                want = pinned(state.amplitudes, working, {"C1": 0, "R2": 0, "K1": k, "K2": k})
                got = diagonal[k].transpose([names.index(name) for name in quarter_layout.view_names])
                assert np.ascontiguousarray(got).tobytes() == want.tobytes(), (manips, k)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_w1_row_is_bit_for_bit_on_signed_zeros(n):
    # operand components mix +-0.0 with magnitudes of either sign, so the
    # quarter and the corner must keep the sum's +0.0 start where every
    # term is a zero
    layout = layout_for(n)
    working = layout.without("B", "BT")
    quarter_layout = working.without("C1", "R2", "K1", "K2")
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
            diagonal = w1_diagonal(pm1, pm2, manips)
            names = diagonal_names(manips)
            order = [0] + [1 + names.index(name) for name in quarter_layout.view_names]
            got = diagonal.transpose(order)
            assert np.ascontiguousarray(got).tobytes() == want, manips


@pytest.mark.parametrize("n", [2, 3, 9])
def test_w1_sums_in_c_order(n):
    # the K1 = K2 = 1 quarter is one two-operand einsum, which must add each
    # amplitude's unscaled terms in c order from +0.0 and round every
    # product, followed by one multiply by the scale, as apply_w1 does.
    # With both labels real, amplitude (R1, C2) = (0, 0) sums the canary's
    # terms, 0 in c order only; (1, 1) sums q * q and then its negation, 0
    # unless the second product is fused with the addition; (2, 2) sums 1
    # and 6 (times 2**-6), whose sum scaled once rounds otherwise than the
    # two terms scaled one by one at odd n, where the scale 2**(-n/2) is no
    # power of two.  n = 3 checks that on an eight-term row, n = 9 on a
    # long one
    dim = 1 << n
    scale = 2.0 ** (-n / 2)
    q = 1.0 + 2.0**-30
    a1 = np.zeros((dim, dim), dtype=np.complex128)
    a2 = np.zeros((dim, dim), dtype=np.complex128)
    a1[0, :4] = ORDER_CANARY * 2.0**-60
    a1[1, :2] = q * 2.0**-40, -q * 2.0**-40
    a1[2, :2] = 2.0**-4, 6 * 2.0**-4
    a2[:4, 0] = a2[:2, 2] = 0.25
    a2[:2, 1] = 0.25 * q
    quarter = _w1_quarter(prepared_from_tilde(a1), prepared_from_tilde(a2), ())[0][:, 0, :, 0]
    for r in (0, 1, 2):
        terms = [a1[r, c].real * a2[c, r].real for c in range(dim)]
        total = 0.0
        for term in terms:
            total += term
        want = total * scale
        got = quarter[r, r]
        assert got.tobytes() == np.float64(want).tobytes(), f"numpy {np.__version__}: {got!r} at {r}"
        if r == 2:
            assert want != total  # the scale is applied
            each = 0.0
            for term in terms:
                each += term * scale
            assert (each != want) == bool(n % 2)  # and is applied once, after the sum
        else:
            assert want == 0.0
    # a fused -q * q + fl(q * q) is the rounding error of q * q
    assert Fraction(q * q) != Fraction(q) ** 2


@pytest.mark.parametrize("n", [2, 3, 9])
def test_w1_sums_in_c_order_in_bands(n, monkeypatch):
    # the same canary with the quarter summed two rows at a time, so that a
    # band boundary falls between its rows 1 and 2: every band must still
    # sum all of c, in c order
    monkeypatch.setattr("qamp.multiplier._W1_BAND_BYTES", 2 * 8 * (2 << n))
    test_w1_sums_in_c_order(n)


@pytest.mark.parametrize("n", [2, 4])
def test_w1_quarters_keep_the_per_term_bits_at_even_n(n):
    # at even n the scale is a power of two, so scaling w1's sum once gives
    # the bits of scaling each term as it is added: the quarters equal the
    # three-operand einsum with the scale as its third operand, and the
    # corner the slack pairs' product times the scale plus +0.0
    rng = np.random.default_rng(4200 + n)
    pm1, pm2 = (random_prepared(rng, n, complex_b=True) for _ in range(2))
    scale = 2.0 ** (-n / 2)
    for r in range(4):
        for manips in itertools.combinations(sorted(MANIPULATIONS), r):
            (slack1, first), (slack2, second) = (
                _operand_factors(pm, *bits) for pm, bits in zip((pm1, pm2), _orientation(pm1, pm2, manips))
            )
            corner = np.asarray(slack1)[:, None] * np.asarray(slack2) * scale + 0.0
            quarter = np.einsum("cr,cs,->rs", first, second, scale)
            got_quarter, got_corner = _w1_quarter(pm1, pm2, manips)
            assert got_quarter.tobytes() == quarter.tobytes(), manips
            assert np.array(got_corner).tobytes() == corner.tobytes(), manips


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


def quarter_and_corner(row, names):
    """The K1 = K2 diagonal of ``row`` (axes named by ``names``, K1 and K2
    at positions 0 and 3) as :func:`_w1_quarter` returns it: the
    K1 = K2 = 1 quarter, indexed [R1, first label, C2, second label], and
    the four floats of the K1 = K2 = 0 quarter's corner at R1 = C2 = 0."""
    assert (names[0], names[3]) == ("K1", "K2")
    return row[1, :, :, 1], tuple(row[0, 0, :, 0, 0, :].ravel().tolist())


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["float64", "complex128"])
@pytest.mark.parametrize("labels", ["plain", "crossed"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_flag_and_measure_is_w3_then_measure(n, labels, dtype):
    # the flagging step sees only the row's K1 = K2 = 1 quarter and the
    # K1 = K2 = 0 corner, the reference the whole random row with the rest
    # of its K1 = K2 = 0 quarter zeroed, as a run leaves it: what lies off
    # the diagonal never reaches the flagged branch, and the labels' order,
    # crossed or not, does not matter
    layout = layout_for(n)
    dim = 1 << n
    names = ROW_NAMES[labels]
    rng = np.random.default_rng(2000 * n + (labels == "crossed"))
    for state in random_states(rng, 2 * n + 4, dtype):
        row = state.amplitudes.reshape(2, dim, 2, 2, dim, 2)
        corner = row[0, 0, :, 0, 0, :].copy()
        row[0, :, :, 0] = 0.0
        row[0, 0, :, 0, 0, :] = corner
        quarter, corner = quarter_and_corner(row, names)
        before = quarter.copy()
        product, slack, got_weight = flag_and_measure(quarter, corner)
        full = embed_row(row, names, layout)
        want, want_weight = conditional_measure(apply_w3(apply_w2(full, layout), layout), layout)
        assert product.shape == (dim, dim) and product.dtype == np.complex128
        assert type(slack) is complex
        assert want.amplitudes.dtype == np.float64
        # the reference's B = BT = 1 payload slice, indexed [K1, R1, C2,
        # M1], holds the product's entries at K1 = 1, the slack at K1 = 0
        # and R1 = C2 = 0 and +0.0 elsewhere, and the reference holds
        # nothing else
        got = np.zeros((2, dim, dim, 2))
        got[1] = product.view(np.float64).reshape(dim, dim, 2)
        got[0, 0, 0] = slack.real, slack.imag
        wanted = _inside(want.amplitudes, EncodedBlock.pipeline_output(layout))
        assert got.tobytes() == wanted.tobytes()
        rest = want.amplitudes.copy()
        view, view_names = register_view(rest, layout)
        pins = {**{name: 0 for name in PAYLOAD_ZEROS}, "B": 1, "BT": 1}
        select(view, view_names, pins)[...] = 0.0
        assert not np.any(rest)
        assert np.array([got_weight]).tobytes() == np.array([want_weight]).tobytes()
        assert quarter.tobytes() == before.tobytes()


@pytest.mark.parametrize("labels", ["plain", "crossed"])
def test_flag_and_measure_zero_branch_is_an_error(labels):
    # weight only off the payload subspace: at M2 = 1 with K2 != K1, which
    # w2 keeps there and neither the quarter nor the corner holds, or in
    # the quarter at (M2, M1) = (0, 0) and (1, 1), which w2's difference
    # cancels
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
            flag_and_measure(*quarter_and_corner(row, names))
        full = embed_row(row, names, layout)
        with pytest.raises(MeasurementError) as want:
            conditional_measure(apply_w3(apply_w2(full, layout), layout), layout)
        assert str(got.value) == str(want.value)
