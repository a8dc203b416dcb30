import numpy as np
import pytest

from qamp import (
    EncodedBlock,
    ParameterError,
    apply_q,
    dagger_oracle,
    decode,
    encode,
    hermitian_conjugate,
    layout_for,
    matmul_oracle,
    run_pipeline,
)
from qamp.statevector import StateVector
from support import prepared_from_tilde, random_prepared


def random_full_state(rng, layout):
    dim = 1 << layout.total_qubits
    amps = rng.normal(size=dim)
    return StateVector(layout.total_qubits, amps / np.linalg.norm(amps))


class TestHermitianConjugate:
    def test_imaginary_entry_example(self):
        layout = layout_for(1)
        block = EncodedBlock.for_side(layout, "first")
        pm = prepared_from_tilde([[0, 0.5j], [0, 0]])
        out = hermitian_conjugate(encode(pm, "first", layout), block)
        matrix, b, residual = decode(out, block)
        assert np.allclose(matrix.entries, [[0, 0], [-0.5j, 0]], atol=1e-15)
        assert residual < 1e-15
        assert b == pytest.approx(pm.b, abs=1e-15)

    def test_real_diagonal_fixed_point(self):
        layout = layout_for(1)
        block = EncodedBlock.for_side(layout, "first")
        pm = prepared_from_tilde([[0.4, 0], [0, 0.3]])
        matrix, _, _ = decode(hermitian_conjugate(encode(pm, "first", layout), block), block)
        assert np.array_equal(matrix.entries, pm.matrix.entries)

    def test_involution_on_encoded_states(self):
        rng = np.random.default_rng(89)
        layout = layout_for(2)
        block = EncodedBlock.for_side(layout, "first")
        for _ in range(10):
            sv = encode(random_prepared(rng, 2, complex_b=True), "first", layout)
            twice = hermitian_conjugate(hermitian_conjugate(sv, block), block)
            assert np.allclose(twice.amplitudes, sv.amplitudes, atol=1e-12)

    def test_involution_on_arbitrary_states(self):
        # not just encoded ones
        rng = np.random.default_rng(97)
        layout = layout_for(1)
        block = EncodedBlock.for_side(layout, "second")
        for _ in range(10):
            sv = random_full_state(rng, layout)
            twice = hermitian_conjugate(hermitian_conjugate(sv, block), block)
            assert np.allclose(twice.amplitudes, sv.amplitudes, atol=1e-12)
            assert abs(hermitian_conjugate(sv, block).norm() - 1.0) < 1e-12

    def test_decodes_to_dagger_for_random_inputs(self):
        rng = np.random.default_rng(101)
        for n in (1, 2):
            layout = layout_for(n)
            block = EncodedBlock.for_side(layout, "first")
            for _ in range(10):
                pm = random_prepared(rng, n, complex_b=True)
                out = hermitian_conjugate(encode(pm, "first", layout), block)
                matrix, b, _ = decode(out, block)
                expected = dagger_oracle(pm.matrix)
                assert np.max(np.abs(matrix.entries - expected.entries)) < 1e-12
                assert abs(b - pm.b.conjugate()) < 1e-12


class TestApplyQ:
    def test_invalid_selector(self):
        layout = layout_for(1)
        sv = encode(prepared_from_tilde([[0.5, 0], [0, 0]]), "first", layout)
        with pytest.raises(ParameterError):
            apply_q(sv, 4, layout)

    def test_involution_and_norm(self):
        rng = np.random.default_rng(103)
        layout = layout_for(1)
        for which in (1, 2, 3):
            sv = random_full_state(rng, layout)
            out = apply_q(sv, which, layout)
            assert abs(out.norm() - 1.0) < 1e-12
            again = apply_q(out, which, layout)
            assert np.allclose(again.amplitudes, sv.amplitudes, atol=1e-12)

    def test_q1_pipeline_against_oracle(self):
        rng = np.random.default_rng(107)
        pm1 = random_prepared(rng, 1, complex_b=True)
        pm2 = random_prepared(rng, 1, complex_b=True)
        res = run_pipeline(pm1, pm2, {"dagger1"})
        expected = matmul_oracle(dagger_oracle(pm1.matrix), pm2.matrix)
        assert np.max(np.abs(res.matrix_hat.entries - expected.entries)) < 1e-10

    def test_q2_pipeline_against_oracle(self):
        rng = np.random.default_rng(109)
        pm1 = random_prepared(rng, 1, complex_b=True)
        pm2 = random_prepared(rng, 1, complex_b=True)
        res = run_pipeline(pm1, pm2, {"dagger2"})
        expected = matmul_oracle(pm1.matrix, dagger_oracle(pm2.matrix))
        assert np.max(np.abs(res.matrix_hat.entries - expected.entries)) < 1e-10

    def test_q3_pipeline_transpose_convention(self):
        # raw decode yields the transpose of (second * first); the pipeline
        # applies the documented transpose and delivers second * first
        rng = np.random.default_rng(113)
        pm1 = random_prepared(rng, 1, complex_b=True)
        pm2 = random_prepared(rng, 1, complex_b=True)
        res = run_pipeline(pm1, pm2, {"swap_order"})
        expected = matmul_oracle(pm2.matrix, pm1.matrix)
        assert np.max(np.abs(res.matrix_hat.entries - expected.entries)) < 1e-10
