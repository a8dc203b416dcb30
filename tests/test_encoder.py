import math
import tracemalloc

import numpy as np
import pytest

from qamp import (
    DimensionError,
    ParameterError,
    PreparedMatrix,
    ComplexMatrix,
    ValidationError,
    run_pipeline,
)
from qamp.statevector import StateVector
from qamp.conjugator import (
    apply_q,
    hermitian_conjugate,
    apply_w0,
    apply_w1,
    apply_w2,
    apply_w3,
    build_initial,
    conditional_measure,
)
from qamp.registers import layout_for
from qamp import multiplier
from qamp.encoder import EncodedBlock, basis_index, decode, encode, read_block
from support import prepared_from_tilde, random_prepared


class TestEncode:
    def test_single_real_entry_amplitudes(self):
        layout = layout_for(1)
        pm = prepared_from_tilde([[0.5, 0], [0, 0]])  # b = sqrt(0.75)
        sv = encode(pm, "first", layout)
        assert sv.amplitudes[basis_index(layout, {"K1": 1})] == 0.5
        assert sv.amplitudes[0] == pytest.approx(math.sqrt(0.75), abs=1e-15)
        nonzero = np.nonzero(sv.amplitudes)[0]
        assert set(nonzero) == {0, basis_index(layout, {"K1": 1})}

    def test_single_imaginary_entry_lands_on_label_one(self):
        layout = layout_for(1)
        pm = prepared_from_tilde([[0, 0.5j], [0, 0]])
        sv = encode(pm, "first", layout)
        idx = basis_index(layout, {"M1": 1, "C1": 1, "K1": 1})
        assert sv.amplitudes[idx] == 0.5
        # real component of that entry is zero, so label 0 carries nothing
        assert sv.amplitudes[basis_index(layout, {"C1": 1, "K1": 1})] == 0.0

    def test_second_side_uses_its_own_subsystems(self):
        layout = layout_for(1)
        pm = prepared_from_tilde([[0.5, 0], [0, 0]])
        sv = encode(pm, "second", layout)
        assert sv.amplitudes[basis_index(layout, {"K2": 1})] == 0.5

    def test_unit_norm_for_random_inputs(self):
        rng = np.random.default_rng(73)
        for n in (1, 2, 3):
            layout = layout_for(n)
            for _ in range(5):
                pm = random_prepared(rng, n, complex_b=bool(rng.integers(0, 2)))
                sv = encode(pm, "first", layout)
                assert abs(sv.norm() - 1.0) < 1e-12

    def test_norm_defect_rejected(self):
        layout = layout_for(1)
        bad = PreparedMatrix(ComplexMatrix(1, [[0.5, 0], [0, 0]]), 0.1, 0.25, 0.75)
        with pytest.raises(ValidationError):
            encode(bad, "first", layout)

    def test_width_mismatch(self):
        pm = prepared_from_tilde([[0.5, 0], [0, 0]])
        with pytest.raises(DimensionError):
            encode(pm, "first", layout_for(2))

    def test_bad_side(self):
        pm = prepared_from_tilde([[0.5, 0], [0, 0]])
        with pytest.raises(ParameterError):
            encode(pm, "third", layout_for(1))

    def test_single_nonzero_entry_single_payload_amplitude(self):
        layout = layout_for(1)
        for tilde in ([[0.5, 0], [0, 0]], [[0, 0.5j], [0, 0]]):
            pm = prepared_from_tilde(tilde)
            sv = encode(pm, "first", layout)
            k_bit = 1 << layout.start("K1")
            payload = [i for i in np.nonzero(sv.amplitudes)[0] if i & k_bit]
            assert len(payload) == 1


class TestDecode:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(79)
        for n in (1, 2):
            layout = layout_for(n)
            block = EncodedBlock.for_side(layout, "first")
            for _ in range(10):
                pm = random_prepared(rng, n, complex_b=True)
                matrix, b, residual = decode(encode(pm, "first", layout), block)
                assert np.array_equal(matrix.entries, pm.matrix.entries)
                assert b == pm.b
                assert residual == 0.0

    def test_round_trip_close_tolerance(self):
        rng = np.random.default_rng(83)
        layout = layout_for(2)
        block = EncodedBlock.for_side(layout, "first")
        for _ in range(20):
            pm = random_prepared(rng, 2)
            matrix, b, residual = decode(encode(pm, "first", layout), block)
            assert np.max(np.abs(matrix.entries - pm.matrix.entries)) < 1e-14
            assert abs(b - pm.b) < 1e-14
            assert residual < 1e-14

    def test_stray_amplitude_reported_as_residual(self):
        layout = layout_for(1)
        block = EncodedBlock.for_side(layout, "first")
        pm = prepared_from_tilde([[0.5, 0], [0, 0]])
        sv = encode(pm, "first", layout)
        # R1 = 1 with K1 = 0 is outside the encoding support
        stray = basis_index(layout, {"R1": 1})
        amps = sv.amplitudes.copy()
        amps[stray] = 0.1
        _, _, residual = decode(StateVector(layout.total_qubits, amps), block)
        assert residual == pytest.approx(0.01, abs=1e-15)

    def test_fixed_values_shift_the_support(self):
        layout = layout_for(1)
        pm = prepared_from_tilde([[0.5, 0], [0, 0]])
        sv = encode(pm, "first", layout)
        # move the whole state into the B = BT = 1 slice
        shift = basis_index(layout, {"B": 1, "BT": 1})
        amps = np.zeros_like(sv.amplitudes)
        amps[np.nonzero(sv.amplitudes)[0] | shift] = sv.amplitudes[np.nonzero(sv.amplitudes)[0]]
        moved = StateVector(layout.total_qubits, amps)
        block = EncodedBlock(layout, m="M1", r="R1", c="C1", k="K1", fixed=(("B", 1), ("BT", 1)))
        matrix, b, residual = decode(moved, block)
        assert np.array_equal(matrix.entries, pm.matrix.entries)
        assert b == pm.b
        assert residual == 0.0

    def test_state_of_another_size_rejected(self):
        layout = layout_for(1)
        state = encode(prepared_from_tilde([[0.5, 0.25j], [0, -0.125]]), "first", layout)
        half = StateVector(layout.total_qubits - 1, state.amplitudes[::2])
        with pytest.raises(DimensionError):
            read_block(half, EncodedBlock.for_side(layout, "first"))

    def test_unknown_block_name_rejected(self):
        with pytest.raises(ParameterError):
            EncodedBlock(layout_for(1), m="M9", r="R1", c="C1", k="K1")


class TestMemoryPreflight:
    # n = 5: a run is allowed three quarters of w1's row, 2**12 float64
    # amplitudes each (the two operands' entries, the K1 = K2 = 1 quarter,
    # and the flagged branch and its squares, half a quarter each), the
    # weight's nonzero mask of an eighth of the branch, and the 64 MiB
    # runtime allowance; a quarter (32 KiB) is well above what raising the
    # refusal allocates
    QUARTER = 8 * (1 << 12)
    NEEDED = 3 * QUARTER + QUARTER // 16 + (64 << 20)

    def test_refuses_before_allocating(self, monkeypatch):
        monkeypatch.setattr(multiplier, "physical_memory_bytes", lambda: self.NEEDED - 1)
        pm = random_prepared(np.random.default_rng(5), 5)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=f"needs {self.NEEDED} bytes"):
                run_pipeline(pm, pm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.QUARTER

    def test_runs_when_the_peak_just_fits(self, monkeypatch):
        monkeypatch.setattr(multiplier, "physical_memory_bytes", lambda: self.NEEDED)
        pm = random_prepared(np.random.default_rng(5), 5)
        assert run_pipeline(pm, pm).oracle_error < 1e-10


class TestStageMemoryCheck:
    # check_memory allows a full-register stage 5/2 float64 states of its
    # layout (input, output and the half-state temporary of one gate) and
    # the 64 MiB runtime allowance
    @staticmethod
    def needed(layout):
        return 5 * 4 * (1 << layout.total_qubits) + (64 << 20)

    @staticmethod
    def traced_peak(stage, *args):
        tracemalloc.start()
        try:
            stage(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", [3, 4])
    def test_reference_stages_peak_within_the_check(self, n):
        layout = layout_for(n)
        rng = np.random.default_rng(300 + n)
        pm1, pm2 = random_prepared(rng, n, complex_b=True), random_prepared(rng, n, complex_b=True)
        # a dense input, so every gate moves and every weight squares all
        # of its slice
        amps = rng.normal(size=1 << layout.total_qubits)
        state = StateVector(layout.total_qubits, amps / np.linalg.norm(amps))
        stages = {
            "build": lambda: build_initial(pm1, pm2, layout),
            **{f"q{w}": lambda w=w: apply_q(state, w, layout) for w in (1, 2, 3)},
            **{
                f"conjugate_{side}": lambda side=side: hermitian_conjugate(
                    state, EncodedBlock.for_side(layout, side)
                )
                for side in ("first", "second")
            },
            **{
                name: lambda fn=fn: fn(state, layout)
                for name, fn in (("w0", apply_w0), ("w1", apply_w1), ("w2", apply_w2), ("w3", apply_w3))
            },
            "measure": lambda: conditional_measure(state, layout),
        }
        for name, stage in stages.items():
            held = self.traced_peak(stage) + (0 if name == "build" else state.amplitudes.nbytes)
            assert held <= self.needed(layout), name

    def test_build_refused_before_allocating(self, monkeypatch):
        layout = layout_for(2)
        needed = self.needed(layout)
        rng = np.random.default_rng(311)
        pm1, pm2 = random_prepared(rng, 2), random_prepared(rng, 2)
        monkeypatch.setattr(multiplier, "physical_memory_bytes", lambda: needed - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=f"needs {needed} bytes"):
                build_initial(pm1, pm2, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a state of 2**14 float64 amplitudes is 128 KiB
        assert peak < 8 << layout.total_qubits
        monkeypatch.setattr(multiplier, "physical_memory_bytes", lambda: needed)
        assert build_initial(pm1, pm2, layout).num_qubits == layout.total_qubits
