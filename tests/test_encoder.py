import math
import tracemalloc

import numpy as np
import pytest

from qamp import (
    DimensionError,
    EncodedBlock,
    ParameterError,
    PreparedMatrix,
    RegisterLayout,
    StateVector,
    ComplexMatrix,
    ValidationError,
    basis_index,
    decode,
    encode,
    layout_for,
    run_pipeline,
)
from qamp import encoder
from qamp.encoder import read_block
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

    def test_block_index_is_derived_once_per_layout_and_block(self, monkeypatch):
        # read_block keeps its index and axis order on the layout: a fresh
        # layout derives them once per block, later reads only look them up
        calls = []

        def counting(*args):
            calls.append(args[1:])
            return block_axes(*args)

        pm = prepared_from_tilde([[0.5, 0.25j], [0, -0.125]])
        shared = layout_for(1)
        want, want_b, _ = decode(encode(pm, "first", shared), EncodedBlock.for_side(shared, "first"))
        block_axes = encoder._block_axes
        monkeypatch.setattr(encoder, "_block_axes", counting)
        layout = RegisterLayout(n=1, slices=shared.slices, control_flags_present=False)
        state = encode(pm, "first", layout)
        blocks = (EncodedBlock.for_side(layout, "first"), EncodedBlock.pipeline_output(layout))
        for _ in range(3):
            for block in blocks:
                got, b = read_block(state, block)
                if block.fixed:  # nothing sits at B = BT = 1
                    assert not np.any(got.entries) and b == 0
                else:
                    assert got.entries.tobytes() == want.entries.tobytes() and b == want_b
        assert calls == [(block.registers, block.fixed) for block in blocks]
        with pytest.raises(DimensionError):
            read_block(StateVector(layout.total_qubits - 1, state.amplitudes[::2]), blocks[0])

    def test_unknown_block_name_rejected(self):
        with pytest.raises(ParameterError):
            EncodedBlock(layout_for(1), m="M9", r="R1", c="C1", k="K1")


class TestMemoryPreflight:
    # n = 5: a run is allowed five quarters of w1's row, 2**12 float64
    # amplitudes each (the K1 = K2 quarters, the payload block and its
    # squares, the two operands' entries), a block of 2**15 terms for the
    # row and six of 2**13 for the oracle, and the 64 MiB runtime allowance;
    # a quarter (32 KiB) is well above what raising the refusal allocates
    QUARTER = 8 * (1 << 12)
    NEEDED = 5 * QUARTER + 8 * (1 << 15) + 6 * 8 * (1 << 13) + (64 << 20)

    def test_refuses_before_allocating(self, monkeypatch):
        monkeypatch.setattr(encoder, "physical_memory_bytes", lambda: self.NEEDED - 1)
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
        monkeypatch.setattr(encoder, "physical_memory_bytes", lambda: self.NEEDED)
        pm = random_prepared(np.random.default_rng(5), 5)
        assert run_pipeline(pm, pm).oracle_error < 1e-10
