import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qamp import (
    DimensionError,
    EncodedBlock,
    GateSpec,
    MeasurementError,
    ParameterError,
    StateVector,
    ValidationError,
    apply_gate,
    apply_q,
    apply_w0,
    apply_w1,
    apply_w2,
    apply_w3,
    build_initial,
    conditional_measure,
    encode,
    hermitian_conjugate,
    init_basis,
    layout_for,
    project_and_renormalize,
    run_pipeline,
)
from qamp import statevector
from bruteforce import gate_unitary
from support import join_parts, random_prepared, real_parts

SQ2 = 1.0 / math.sqrt(2.0)


def random_state(rng, num_qubits):
    amps = rng.normal(size=1 << num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def random_gate(rng, num_qubits):
    kind = rng.choice(["X", "Z", "H", "SWAP", "CNOT", "MULTI_CONTROLLED"])
    order = list(rng.permutation(num_qubits))
    if kind == "SWAP":
        targets, rest = order[:2], order[2:]
    elif kind == "MULTI_CONTROLLED":
        t = int(rng.integers(1, max(2, num_qubits - 1)))
        targets, rest = order[:t], order[t:]
    else:
        targets, rest = order[:1], order[1:]
    if kind == "CNOT":
        controls = [(rest[0], 1)]
    else:
        n_controls = int(rng.integers(0, len(rest) + 1))
        controls = [(q, int(rng.integers(0, 2))) for q in rest[:n_controls]]
    return GateSpec(kind, tuple(int(t) for t in targets), tuple(controls))


class TestInitBasis:
    def test_single_qubit_zero(self):
        sv = init_basis(1, 0)
        assert np.array_equal(sv.amplitudes, [1, 0])

    def test_two_qubit_three(self):
        sv = init_basis(2, 3)
        assert np.array_equal(sv.amplitudes, [0, 0, 0, 1])

    def test_bit_order_convention(self):
        # |101>: qubit 0 = 1, qubit 1 = 0, qubit 2 = 1
        sv = init_basis(3, 5)
        assert sv.amplitudes[5] == 1.0
        assert np.sum(np.abs(sv.amplitudes)) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            init_basis(2, 4)


class TestGateSpec:
    def test_swap_needs_two_targets(self):
        with pytest.raises(ValidationError):
            GateSpec("SWAP", (0,))

    def test_overlapping_targets_and_controls(self):
        with pytest.raises(ValidationError):
            GateSpec("X", (0,), ((0, 1),))

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            GateSpec("Y", (0,))

    def test_bad_polarity(self):
        with pytest.raises(ValidationError):
            GateSpec("X", (0,), ((1, 2),))


class TestApplyGate:
    def test_hadamard_on_zero(self):
        out = apply_gate(init_basis(1, 0), GateSpec.h(0))
        assert np.allclose(out.amplitudes, [SQ2, SQ2], atol=1e-15)

    def test_x_on_qubit_zero(self):
        out = apply_gate(init_basis(2, 0), GateSpec.x(0))
        assert np.array_equal(out.amplitudes, [0, 1, 0, 0])

    def test_multi_controlled_zero_polarity(self):
        gate = GateSpec.multi_controlled_x((0,), ((1, 0), (2, 0)))
        flipped = apply_gate(init_basis(3, 0b000), gate)
        assert flipped.amplitudes[0b001] == 1.0
        unchanged = apply_gate(init_basis(3, 0b010), gate)
        assert unchanged.amplitudes[0b010] == 1.0

    def test_multi_controlled_matches_dense_oracle(self):
        # brute-force 8x8 matrix build and dense matrix-vector multiply
        rng = np.random.default_rng(7)
        gate = GateSpec.multi_controlled_x((0,), ((1, 0), (2, 0)))
        u = gate_unitary(gate, 3)
        for _ in range(5):
            sv = random_state(rng, 3)
            assert np.allclose(
                apply_gate(sv, gate).amplitudes, u @ sv.amplitudes, atol=1e-12
            )

    def test_out_of_range_qubit(self):
        with pytest.raises(DimensionError):
            apply_gate(init_basis(1, 0), GateSpec.x(3))

    def test_input_not_mutated(self):
        sv = init_basis(1, 0)
        before = sv.amplitudes.copy()
        apply_gate(sv, GateSpec.h(0))
        assert np.array_equal(sv.amplitudes, before)

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6])
    def test_random_gates_match_dense_oracle(self, num_qubits):
        rng = np.random.default_rng(100 + num_qubits)
        for _ in range(20):
            gate = random_gate(rng, num_qubits)
            sv = random_state(rng, num_qubits)
            expected = gate_unitary(gate, num_qubits) @ sv.amplitudes
            assert np.allclose(apply_gate(sv, gate).amplitudes, expected, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            sv = random_state(rng, 4)
            out = apply_gate(sv, random_gate(rng, 4))
            assert abs(out.norm() - 1.0) < 1e-12

    def test_involutions(self):
        rng = np.random.default_rng(29)
        gates = [
            GateSpec.x(1),
            GateSpec.z(2),
            GateSpec.h(0),
            GateSpec.swap(0, 3),
            GateSpec.cnot(2, 1),
            GateSpec.multi_controlled_x((0, 1), ((2, 0), (3, 1))),
        ]
        for gate in gates:
            sv = random_state(rng, 4)
            twice = apply_gate(apply_gate(sv, gate), gate)
            assert np.allclose(twice.amplitudes, sv.amplitudes, atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_norm_preservation_property(self, seed):
        rng = np.random.default_rng(seed)
        sv = random_state(rng, 3)
        out = apply_gate(sv, random_gate(rng, 3))
        assert abs(out.norm() - 1.0) < 1e-12


class TestRealKernels:
    """The float64 path: every circuit gate is real, so real states stay real."""

    KINDS = [
        GateSpec.x(1),
        GateSpec.z(2, ((0, 1),)),
        GateSpec.h(0),
        GateSpec.h(3, ((1, 0),)),
        GateSpec.swap(0, 3),
        GateSpec.swap(1, 2, ((0, 1),)),
        GateSpec.cnot(2, 1),
        GateSpec.multi_controlled_x((0, 1), ((2, 0), (3, 1))),
    ]

    def test_state_is_float64_and_complex_input_is_refused(self):
        assert init_basis(2, 1).amplitudes.dtype == np.float64
        kept = np.array([0.6, 0.8])
        assert StateVector(1, kept).amplitudes is kept
        assert StateVector(1, [0.6, 0.8]).amplitudes.dtype == np.float64
        assert StateVector(1, np.array([1, 0])).amplitudes.dtype == np.float64
        assert StateVector(1, np.array([1, 0], dtype=np.float32)).amplitudes.dtype == np.float64
        for amps in ([0.6, 0.8j], np.array([0.6, 0.8j]), np.array([0.6, 0.8], dtype=complex)):
            with pytest.raises(ValidationError, match="real"):
                StateVector(1, amps)

    @pytest.mark.parametrize("gate", KINDS, ids=lambda g: g.kind)
    def test_every_gate_kind_keeps_float64(self, gate):
        sv = random_state(np.random.default_rng(5), 4)
        out = apply_gate(sv, gate)
        assert out.amplitudes.dtype == np.float64
        assert np.allclose(out.amplitudes, gate_unitary(gate, 4) @ sv.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("lowest_free", [1, 2, 3, 4, 5])
    def test_z_through_every_stride(self, lowest_free):
        # controls on qubits 1 .. lowest_free - 1 leave the negated slice a
        # stride of 2**lowest_free amplitudes (eight is 64 bytes)
        gate = GateSpec.z(0, [(q, 1) for q in range(1, lowest_free)])
        sv = random_state(np.random.default_rng(13), 6)
        out = apply_gate(sv, gate).amplitudes
        want = sv.amplitudes.copy()
        hit = (np.arange(64) & ((1 << lowest_free) - 1)) == (1 << lowest_free) - 1
        want[hit] = -want[hit]
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize(
        "gate,num_qubits",
        [
            (GateSpec.h(0), 1),
            (GateSpec.x(0), 1),
            (GateSpec.z(0), 1),
            (GateSpec.swap(0, 1), 2),
            (GateSpec.h(1, ((0, 1),)), 2),
            (GateSpec.multi_controlled_x((2,), ((0, 1), (1, 0))), 3),
            (GateSpec.multi_controlled_x((0, 2), ((1, 1),)), 3),
        ],
        ids=lambda v: getattr(v, "kind", v),
    )
    def test_gate_covering_every_qubit(self, gate, num_qubits, dtype):
        # a complex state goes through a real gate as its two real parts
        rng = np.random.default_rng(17)
        amps = rng.normal(size=1 << num_qubits).astype(dtype)
        if dtype is np.complex128:
            amps = amps + 1j * rng.normal(size=1 << num_qubits)
        outs = [apply_gate(StateVector(num_qubits, part), gate).amplitudes for part in real_parts(amps)]
        assert all(out.dtype == np.float64 for out in outs)
        assert np.allclose(join_parts(outs), gate_unitary(gate, num_qubits) @ amps, atol=1e-12)

    def test_pipeline_stages_keep_float64_and_leave_input_alone(self):
        rng = np.random.default_rng(41)
        layout = layout_for(1)
        pm1, pm2 = random_prepared(rng, 1, complex_b=True), random_prepared(rng, 1, complex_b=True)
        block = EncodedBlock.for_side(layout, "second")
        stages = [
            lambda s: hermitian_conjugate(s, block),
            *(lambda s, w=w: apply_q(s, w, layout) for w in (1, 2, 3)),
            *(lambda s, f=f: f(s, layout) for f in (apply_w0, apply_w1, apply_w2, apply_w3)),
            lambda s: conditional_measure(s, layout)[0],
        ]
        assert encode(pm1, "first", layout).amplitudes.dtype == np.float64
        state = build_initial(pm1, pm2, layout)
        for stage in stages:
            before = state.amplitudes.copy()
            out = stage(state)
            assert out.amplitudes.dtype == np.float64
            assert out.amplitudes is not state.amplitudes
            assert np.array_equal(state.amplitudes, before)
            state = out

    def test_no_module_level_array_cache(self):
        rng = np.random.default_rng(43)
        run_pipeline(random_prepared(rng, 2), random_prepared(rng, 2), {"dagger1", "swap_order"})
        for name, value in vars(statevector).items():
            held = value.values() if isinstance(value, dict) else [value]
            assert not any(isinstance(v, np.ndarray) for v in held), name


class TestProjection:
    def test_plus_state(self):
        sv = StateVector(1, [SQ2, SQ2])
        out, prob = project_and_renormalize(sv, 0, 1)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(out.amplitudes, [0, 1], atol=1e-12)

    def test_zero_weight_outcome(self):
        with pytest.raises(MeasurementError) as err:
            project_and_renormalize(init_basis(1, 0), 0, 1)
        assert err.value.probability == 0.0

    def test_probability_is_subspace_weight_and_outcomes_sum_to_one(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            sv = random_state(rng, 4)
            q = int(rng.integers(0, 4))
            p1 = sv.probability(q, 1)
            p0 = sv.probability(q, 0)
            assert p0 + p1 == pytest.approx(1.0, abs=1e-12)
            _, got = project_and_renormalize(sv, q, 1)
            hand = sum(
                abs(a) ** 2 for i, a in enumerate(sv.amplitudes) if (i >> q) & 1
            )
            assert got == pytest.approx(hand, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_subnormal=True),
            min_size=1,
            max_size=16,
        ),
        zeros=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_probability_is_exactly_rounded(self, values, zeros, seed):
        # the weight is math.fsum of the squares, bit for bit, whatever the
        # order of the amplitudes and however many zeros surround them
        want = math.fsum(v * v for v in values)
        num_qubits = max(len(values) - 1, 0).bit_length()
        amps = np.zeros(1 << num_qubits)
        amps[: len(values)] = values
        # the weight of the whole state, read as the outcome-1 branch of a
        # new top qubit
        got = StateVector(num_qubits + 1, np.concatenate([np.zeros_like(amps), amps]))
        assert np.array([got.probability(num_qubits, 1)]).tobytes() == np.array([want]).tobytes()
        rng = np.random.default_rng(seed)
        wide = np.zeros(amps.size << zeros)
        wide[rng.choice(wide.size, size=amps.size, replace=False)] = rng.permutation(amps)
        moved = StateVector(num_qubits + zeros + 1, np.concatenate([np.zeros_like(wide), wide]))
        top = num_qubits + zeros
        assert np.array([moved.probability(top, 1)]).tobytes() == np.array([want]).tobytes()
        if want:
            _, prob = project_and_renormalize(moved, top, 1)
            assert np.array([prob]).tobytes() == np.array([want]).tobytes()
