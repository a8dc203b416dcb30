import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qamp import DimensionError, MeasurementError, ParameterError, ValidationError, run_pipeline
from qamp.encoder import EncodedBlock, encode
from qamp.statevector import GateSpec, StateVector, apply_gates, init_basis, project_and_renormalize
from qamp.conjugator import apply_q, hermitian_conjugate
from qamp.multiplier import (
    apply_w0,
    apply_w1,
    apply_w2,
    apply_w3,
    build_initial,
    conditional_measure,
)
from qamp.registers import layout_for
from qamp import statevector
from bruteforce import gate_unitary
from support import join_parts, random_prepared, real_parts

SQ2 = 1.0 / math.sqrt(2.0)


def random_state(rng, num_qubits):
    amps = rng.normal(size=1 << num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def random_gate(rng, num_qubits):
    kind = rng.choice(["X", "Z", "H", "SWAP"])
    order = list(rng.permutation(num_qubits))
    if kind == "SWAP":
        targets, rest = order[:2], order[2:]
    elif kind == "X":
        t = int(rng.integers(1, max(2, num_qubits - 1)))
        targets, rest = order[:t], order[t:]
    else:
        targets, rest = order[:1], order[1:]
    n_controls = int(rng.integers(0, len(rest) + 1))
    controls = [(q, int(rng.integers(0, 2))) for q in rest[:n_controls]]
    return GateSpec(kind, tuple(int(t) for t in targets), tuple(controls))


def gate_id(value):
    """A parameter's id: a gate's kind, with an X that has one target and
    one control named CNOT and one with more named MULTI_CONTROLLED."""
    if not isinstance(value, GateSpec) or value.kind != "X" or not value.controls:
        return getattr(value, "kind", value)
    if len(value.targets) == len(value.controls) == 1:
        return "CNOT"
    return "MULTI_CONTROLLED"


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

    def test_negative_qubit_count(self):
        with pytest.raises(DimensionError, match="^qubit count must be nonnegative, got -1$"):
            init_basis(-1, 0)

    @pytest.mark.parametrize(
        "num_qubits,index,what",
        [
            (2, True, "basis index"),
            (2, np.True_, "basis index"),
            (2, 1.0, "basis index"),
            (2.0, 0, "qubit count"),
            (True, 0, "qubit count"),
        ],
        ids=["bool-index", "numpy-bool-index", "float-index", "float-count", "bool-count"],
    )
    def test_count_and_index_must_be_integers_not_bools(self, num_qubits, index, what):
        # numpy indexes with a bool as with a mask, so init_basis(2, True)
        # would set all four amplitudes, a state of norm 2
        with pytest.raises(ParameterError, match=f"^{what} must be an integer, not a bool, got "):
            init_basis(num_qubits, index)
        assert init_basis(np.int64(2), np.int64(3)).amplitudes.tolist() == [0, 0, 0, 1]


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

    def test_x_takes_one_or_more_targets_and_no_other_kind_does(self):
        assert GateSpec.x((0, 2), ((1, 0),)) == GateSpec("X", (0, 2), ((1, 0),))
        assert GateSpec.x(1).targets == (1,)
        with pytest.raises(ValidationError, match="X needs at least one target"):
            GateSpec("X", ())
        for kind in ("Z", "H"):
            with pytest.raises(ValidationError, match=f"{kind} takes exactly one target"):
                GateSpec(kind, (0, 1))
        for kind in ("CNOT", "MULTI_CONTROLLED"):
            with pytest.raises(ParameterError, match="unknown gate kind"):
                GateSpec(kind, (0,), ((1, 1),))

    def test_bad_polarity(self):
        with pytest.raises(ValidationError):
            GateSpec("X", (0,), ((1, 2),))

    @pytest.mark.parametrize(
        "build,what,value",
        [
            (lambda: GateSpec.h(2.9), "gate qubit", "2.9"),
            (lambda: GateSpec.x(True), "gate qubit", "True"),
            (lambda: GateSpec("X", (1.5,), ((True, 1),)), "gate qubit", "1.5"),
            (lambda: GateSpec.z(0, ((np.True_, 1),)), "gate qubit", "True"),
            (lambda: GateSpec.x(0, ((1, True),)), "control polarity", "True"),
            (lambda: GateSpec.swap(0, 1, ((2, 1.0),)), "control polarity", "1.0"),
        ],
        ids=["float-target", "bool-target", "float-target-bool-control", "numpy-bool-control",
             "bool-polarity", "float-polarity"],
    )
    def test_qubits_and_polarities_must_be_integers_not_bools(self, build, what, value):
        # int() would floor 2.9 to qubit 2 and take True for qubit 1
        with pytest.raises(ParameterError, match=f"^{what} must be an integer, not a bool, got .*{value}"):
            build()

    def test_numpy_integers_are_taken_as_ints(self):
        gate = GateSpec("H", (np.int64(1),), ((np.int32(0), np.int8(1)),))
        assert gate == GateSpec.h(1, ((0, 1),))
        assert {type(v) for v in (*gate.targets, *gate.controls[0])} == {int}
        assert GateSpec.x(np.arange(2)).targets == (0, 1)


class TestApplyGate:
    def test_hadamard_on_zero(self):
        out = apply_gates(init_basis(1, 0), (GateSpec.h(0),))
        assert np.allclose(out.amplitudes, [SQ2, SQ2], atol=1e-15)

    def test_x_on_qubit_zero(self):
        out = apply_gates(init_basis(2, 0), (GateSpec.x(0),))
        assert np.array_equal(out.amplitudes, [0, 1, 0, 0])

    def test_multi_controlled_zero_polarity(self):
        gate = GateSpec.x((0,), ((1, 0), (2, 0)))
        flipped = apply_gates(init_basis(3, 0b000), (gate,))
        assert flipped.amplitudes[0b001] == 1.0
        unchanged = apply_gates(init_basis(3, 0b010), (gate,))
        assert unchanged.amplitudes[0b010] == 1.0

    def test_multi_controlled_matches_dense_oracle(self):
        # brute-force 8x8 matrix build and dense matrix-vector multiply
        rng = np.random.default_rng(7)
        gate = GateSpec.x((0,), ((1, 0), (2, 0)))
        u = gate_unitary(gate, 3)
        for _ in range(5):
            sv = random_state(rng, 3)
            assert np.allclose(
                apply_gates(sv, (gate,)).amplitudes, u @ sv.amplitudes, atol=1e-12
            )

    def test_out_of_range_qubit(self):
        with pytest.raises(DimensionError):
            apply_gates(init_basis(1, 0), (GateSpec.x(3),))

    def test_input_not_mutated(self):
        sv = init_basis(1, 0)
        before = sv.amplitudes.copy()
        apply_gates(sv, (GateSpec.h(0),))
        assert np.array_equal(sv.amplitudes, before)

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6])
    def test_random_gates_match_dense_oracle(self, num_qubits):
        rng = np.random.default_rng(100 + num_qubits)
        for _ in range(20):
            gate = random_gate(rng, num_qubits)
            sv = random_state(rng, num_qubits)
            expected = gate_unitary(gate, num_qubits) @ sv.amplitudes
            assert np.allclose(apply_gates(sv, (gate,)).amplitudes, expected, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            sv = random_state(rng, 4)
            out = apply_gates(sv, (random_gate(rng, 4),))
            assert abs(out.norm() - 1.0) < 1e-12

    def test_involutions(self):
        rng = np.random.default_rng(29)
        gates = [
            GateSpec.x(1),
            GateSpec.z(2),
            GateSpec.h(0),
            GateSpec.swap(0, 3),
            GateSpec.x(1, ((2, 1),)),
            GateSpec.x((0, 1), ((2, 0), (3, 1))),
        ]
        for gate in gates:
            sv = random_state(rng, 4)
            twice = apply_gates(apply_gates(sv, (gate,)), (gate,))
            assert np.allclose(twice.amplitudes, sv.amplitudes, atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_norm_preservation_property(self, seed):
        rng = np.random.default_rng(seed)
        sv = random_state(rng, 3)
        out = apply_gates(sv, (random_gate(rng, 3),))
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
        GateSpec.x(1, ((2, 1),)),
        GateSpec.x((0, 1), ((2, 0), (3, 1))),
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_amplitudes_are_refused(self, value):
        # a NaN or infinite amplitude would read as a NaN probability, or a
        # NaN state after a projection, with at most a RuntimeWarning
        for amps in ([value, 0.5, 0.5, 0.0], np.array([0.5, 0.5, 0.0, value])):
            with pytest.raises(ValidationError, match=r"^amplitudes must be finite$"):
                StateVector(2, amps)

    @pytest.mark.parametrize("num_qubits", [True, np.True_, 1.0], ids=["bool", "numpy-bool", "float"])
    def test_qubit_count_must_be_an_integer_not_a_bool(self, num_qubits):
        with pytest.raises(ParameterError, match="^qubit count must be an integer, not a bool, got "):
            StateVector(num_qubits, [1.0, 0.0])
        assert type(StateVector(np.int64(1), [1.0, 0.0]).num_qubits) is int

    def test_amplitude_count_must_match_the_qubits(self):
        with pytest.raises(DimensionError, match=r"^expected 4 amplitudes for 2 qubits, got shape \(2,\)$"):
            StateVector(2, [0.6, 0.8])

    @pytest.mark.parametrize("gate", KINDS, ids=gate_id)
    def test_every_gate_kind_keeps_float64(self, gate):
        sv = random_state(np.random.default_rng(5), 4)
        out = apply_gates(sv, (gate,))
        assert out.amplitudes.dtype == np.float64
        assert np.allclose(out.amplitudes, gate_unitary(gate, 4) @ sv.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("lowest_free", [1, 2, 3, 4, 5])
    def test_z_through_every_stride(self, lowest_free):
        # controls on qubits 1 .. lowest_free - 1 leave the negated slice a
        # stride of 2**lowest_free amplitudes (eight is 64 bytes)
        gate = GateSpec.z(0, [(q, 1) for q in range(1, lowest_free)])
        sv = random_state(np.random.default_rng(13), 6)
        out = apply_gates(sv, (gate,)).amplitudes
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
            (GateSpec.x((2,), ((0, 1), (1, 0))), 3),
            (GateSpec.x((0, 2), ((1, 1),)), 3),
        ],
        ids=gate_id,
    )
    def test_gate_covering_every_qubit(self, gate, num_qubits, dtype):
        # a complex state goes through a real gate as its two real parts
        rng = np.random.default_rng(17)
        amps = rng.normal(size=1 << num_qubits).astype(dtype)
        if dtype is np.complex128:
            amps = amps + 1j * rng.normal(size=1 << num_qubits)
        outs = [apply_gates(StateVector(num_qubits, part), (gate,)).amplitudes for part in real_parts(amps)]
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

    def test_outcome_must_be_zero_or_one(self):
        with pytest.raises(ParameterError, match="^outcome must be 0 or 1, got 2$"):
            project_and_renormalize(StateVector(1, [SQ2, SQ2]), 0, 2)

    @pytest.mark.parametrize("outcome", [True, np.True_, 1.0, 0.5], ids=["bool", "numpy-bool", "float", "half"])
    def test_outcome_must_be_an_integer_not_a_bool(self, outcome):
        sv = StateVector(1, [SQ2, SQ2])
        with pytest.raises(ParameterError, match="^outcome must be an integer, not a bool"):
            project_and_renormalize(sv, 0, outcome)
        with pytest.raises(ParameterError, match="^outcome must be an integer, not a bool"):
            sv.probability(0, outcome)

    @pytest.mark.parametrize("qubit", [True, 1.0], ids=["bool", "float"])
    def test_qubit_must_be_an_integer_not_a_bool(self, qubit):
        sv = StateVector(2, [0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ParameterError, match="^qubit must be an integer, not a bool"):
            project_and_renormalize(sv, qubit, 1)
        with pytest.raises(ParameterError, match="^qubit must be an integer, not a bool"):
            sv.probability(qubit, 1)

    def test_zero_weight_outcome(self):
        with pytest.raises(MeasurementError):
            project_and_renormalize(init_basis(1, 0), 0, 1)

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

    @pytest.mark.parametrize("k", [10, 12, 14, 16])
    def test_dense_weight_is_exact_within_nine_eighths_of_a_view(self, k):
        # a dense view's weight is math.fsum of the squares, bit for bit,
        # and it holds no Python float per amplitude: beside the nonzero
        # mask (an eighth of the view) and the copy of the squares (one
        # view) only 8 KiB is allowed
        view = np.random.default_rng(71).normal(size=1 << k)
        want = math.fsum(v * v for v in view.tolist())
        tracemalloc.start()
        try:
            got = statevector._weight(view)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array([got]).tobytes() == np.array([want]).tobytes()
        assert peak <= 1.125 * view.nbytes + 8192, (peak, view.nbytes)
