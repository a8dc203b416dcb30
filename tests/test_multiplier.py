import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qamp import (
    ComplexMatrix,
    DimensionError,
    EncodedBlock,
    MeasurementError,
    ParameterError,
    ValidationError,
    apply_q,
    apply_w0,
    apply_w1,
    apply_w2,
    apply_w3,
    basis_index,
    build_initial,
    conditional_measure,
    dagger_oracle,
    decode,
    estimate_g,
    init_basis,
    layout_for,
    matmul_oracle,
    oracle_product,
    prepare,
    resource_report,
    run_pipeline,
)
from qamp import conjugator, encoder, estimator, multiplier, registers, statevector
from qamp.multiplier import flagged_state
from qamp.registers import RegisterLayout
from qamp.encoder import _components, joint_amplitudes
from support import manipulated_build, mixed_entries, prepared_from_tilde, random_prepared
from bruteforce import (
    bf_initial_state,
    bf_pipeline_matrices,
    bf_q,
    bf_run,
)

ALL_SUBSETS = [
    frozenset(sub)
    for r in range(4)
    for sub in itertools.combinations(("dagger1", "dagger2", "swap_order"), r)
]


def desk_pair():
    pm = prepared_from_tilde([[0.5, 0], [0, 0.5]])  # b = sqrt(0.5)
    return pm, pm


def oriented_build(pm1, pm2, layout, manips):
    """The joint state on ``layout`` of the operands as the run reads them
    after ``manips`` (multiplier._orientation): each operand's component
    tensor, its label = 1 half negated where it is conjugated, on a block
    whose column register is the summed one (C1 for the first operand, R2
    for the second) where it is read transposed, and whose label is the
    other operand's where the operand exchange crosses the labels."""
    labels = ("M2", "M1") if "swap_order" in manips else ("M1", "M2")
    operands = []
    for pm, (transposed, conjugated), (summed, other), label, k in zip(
        (pm1, pm2),
        multiplier._orientation(pm1, pm2, manips),
        (("C1", "R1"), ("R2", "C2")),
        labels,
        ("K1", "K2"),
    ):
        tensor = _components(pm)
        if conjugated:
            tensor[..., 1] *= -1.0
        r, c = (other, summed) if transposed else (summed, other)
        operands.append((tensor, EncodedBlock(layout, m=label, r=r, c=c, k=k)))
    return joint_amplitudes(layout, operands)


def classical_g(pm1, pm2):
    product = matmul_oracle(pm1.matrix, pm2.matrix)
    return math.sqrt(abs(pm1.b * pm2.b) ** 2 + product.weight())


class TestBuildInitial:
    def test_both_zero_matrices(self):
        zero = prepared_from_tilde(np.zeros((2, 2)))
        layout = layout_for(1)
        sv = build_initial(zero, zero, layout)
        assert sv.amplitudes[0] == 1.0
        assert np.count_nonzero(sv.amplitudes) == 1

    def test_desk_amplitudes(self):
        pm1, pm2 = desk_pair()
        layout = layout_for(1)
        sv = build_initial(pm1, pm2, layout)
        both_k = basis_index(layout, {"K1": 1, "K2": 1})
        assert sv.amplitudes[both_k] == pytest.approx(0.25, abs=1e-15)
        assert sv.amplitudes[0] == pytest.approx(0.5, abs=1e-15)

    def test_unit_norm(self):
        rng = np.random.default_rng(149)
        layout = layout_for(2)
        sv = build_initial(random_prepared(rng, 2), random_prepared(rng, 2), layout)
        assert abs(sv.norm() - 1.0) < 1e-12

    def test_matches_bruteforce_product(self):
        rng = np.random.default_rng(151)
        pm1 = random_prepared(rng, 1, complex_b=True)
        pm2 = random_prepared(rng, 1, complex_b=True)
        sv = build_initial(pm1, pm2, layout_for(1))
        assert np.allclose(sv.amplitudes, bf_initial_state(pm1, pm2, 1), atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2])
    def test_working_layout_is_exactly_the_bruteforce_quarter(self, n):
        # each amplitude is one product of two components, so the build on
        # the ancilla-free layout equals the B = BT = 0 quarter exactly (up
        # to the sign of zeros, which the brute force leaves unwritten)
        rng = np.random.default_rng(153 + n)
        pm1 = random_prepared(rng, n, complex_b=True)
        pm2 = random_prepared(rng, n, complex_b=True)
        working = layout_for(n).without("B", "BT")
        sv = build_initial(pm1, pm2, working)
        full = bf_initial_state(pm1, pm2, n)
        quarter = 1 << working.total_qubits
        assert np.array_equal(sv.amplitudes, full[:quarter].real)
        assert not np.any(full[:quarter].imag) and not np.any(full[quarter:])

    @pytest.mark.parametrize("with_controls", [False, True], ids=["plain", "flags"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_folds_the_manipulations(self, n, with_controls):
        # the build of the operands as the run reads them (oriented_build)
        # against the plain build followed by Q3, Q2 and Q1 on the working
        # layout: equal in value, and in bits wherever the build writes;
        # with control flags the stage chain negates the zeros of the
        # flag != 0 slices, which the build leaves at +0.0
        rng = np.random.default_rng(157 + n)
        pm1 = random_prepared(rng, n, complex_b=True)
        pm2 = random_prepared(rng, n, complex_b=True)
        layout = layout_for(n, with_controls=with_controls).without("B", "BT")
        index = np.arange(1 << layout.total_qubits)
        written = np.ones(index.size, dtype=bool)
        if with_controls:
            for flag in ("Q1", "Q2", "Q3"):
                written &= (index >> layout.start(flag)) & 1 == 0
        for manips in ALL_SUBSETS:
            folded = oriented_build(pm1, pm2, layout, manips)
            chain = manipulated_build(pm1, pm2, layout, manips).amplitudes
            assert np.array_equal(folded, chain), sorted(manips)
            assert folded[written].tobytes() == chain[written].tobytes(), sorted(manips)
            assert not np.any(folded[~written])

    def test_fold_matches_bruteforce_n1(self):
        rng = np.random.default_rng(156)
        pm1 = random_prepared(rng, 1, complex_b=True)
        pm2 = random_prepared(rng, 1, complex_b=True)
        for manips in ALL_SUBSETS:
            folded = oriented_build(pm1, pm2, layout_for(1), manips)
            want = bf_initial_state(pm1, pm2, 1)
            for which, name in ((3, "swap_order"), (2, "dagger2"), (1, "dagger1")):
                if name in manips:
                    want = bf_q(1, which) @ want
            assert not np.any(want.imag)
            assert np.array_equal(folded, want.real), sorted(manips)

    def test_width_mismatch(self):
        rng = np.random.default_rng(157)
        with pytest.raises(DimensionError):
            build_initial(random_prepared(rng, 1), random_prepared(rng, 2), layout_for(1))
        with pytest.raises(DimensionError):
            build_initial(random_prepared(rng, 1), random_prepared(rng, 1), layout_for(2))


class TestManipulatedBlocks:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_slack_slab_is_zero_off_the_corner(self, n):
        # _w1_diagonal sums over c only where K1 = K2 = 1: that needs each
        # operand's K axis to stay its own K whatever the manipulations
        # trade, and its K = 0 slab to be zero everywhere but R = C = 0,
        # on the state after the manipulations
        layout = layout_for(n).without("B", "BT")
        rng = np.random.default_rng(176 + n)
        pm1, pm2 = (
            prepare(ComplexMatrix(n, mixed_entries(rng, n)), 0.75, b_phase=phase)
            for phase in (None, 2.0)
        )
        for manips in ALL_SUBSETS:
            state = manipulated_build(pm1, pm2, layout, manips)
            for k, r, c in (("K1", "R1", "C1"), ("K2", "R2", "C2")):
                view, names = registers.register_view(state.amplitudes.copy(), layout)
                corner = registers.select(view, names, {k: 0, r: 0, c: 0})
                assert np.any(corner), (sorted(manips), k)
                corner[...] = 0.0
                assert not np.any(registers.select(view, names, {k: 0})), (sorted(manips), k)


class TestEntryFactors:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_are_the_operand_tensors_bit_for_bit(self, n):
        # the run's factors, copied from the entries, against the state
        # after the manipulations, with each operand's summed register, the
        # other register and its label in that order: every product of a
        # K = 1 slab or a slack pair (at R = C = 0) of the first operand
        # with one of the second is that state's amplitude, bit for bit,
        # and the state is zero elsewhere on the K = 0 slabs
        layout = layout_for(n).without("B", "BT")
        dim = 1 << n
        rng = np.random.default_rng(190 + n)
        pm1, pm2 = (
            prepare(ComplexMatrix(n, mixed_entries(rng, n)), 0.75, b_phase=phase)
            for phase in (None, 2.0)
        )
        for manips in ALL_SUBSETS:
            (slack1, first), (slack2, second) = multiplier._entry_factors(pm1, pm2, manips)
            for matrix in (first, second):
                assert matrix.shape == (dim, 2 * dim) and matrix.dtype == np.float64
            state = manipulated_build(pm1, pm2, layout, manips).amplitudes
            view, names = registers.register_view(state, layout)
            label1, label2 = ("M2", "M1") if "swap_order" in manips else ("M1", "M2")
            order = ("K1", "C1", "R1", label1, "K2", "R2", "C2", label2)
            amps = view.transpose([names.index(name) for name in order])
            amps = amps.reshape(2, dim, 2 * dim, 2, dim, 2 * dim)
            for k1, k2, f1, f2 in (
                (1, 1, first, second),
                (1, 0, first, slack2[None]),
                (0, 1, slack1[None], second),
                (0, 0, slack1[None], slack2[None]),
            ):
                got = np.multiply.outer(f1, f2)
                (r1, c1), (r2, c2) = f1.shape, f2.shape
                want = np.ascontiguousarray(amps[k1, :r1, :c1, k2, :r2, :c2])
                assert got.tobytes() == want.tobytes(), (sorted(manips), k1, k2)
                rest = amps[k1, :, :, k2].copy()
                rest[:r1, :c1, :r2, :c2] = 0.0
                assert not np.any(rest), (sorted(manips), k1, k2)

    @pytest.mark.parametrize("defect", [2e-10, -2e-10, math.nan])
    def test_norm_defect_is_refused_by_a_run(self, defect):
        # a hand-built operand whose encoded squared norm misses 1 by more
        # than ENCODE_NORM_TOL, on either side and as either operand, or is
        # NaN
        good = prepared_from_tilde([[0.5, 0], [0, 0.5]])
        assert not abs(defect) <= encoder.ENCODE_NORM_TOL
        bad = dataclasses.replace(good, b=complex(math.sqrt(0.5 + defect)))
        for pm1, pm2 in ((bad, good), (good, bad)):
            for manips in ALL_SUBSETS:
                with pytest.raises(ValidationError, match="encoded state norm defect"):
                    run_pipeline(pm1, pm2, manips)
                with pytest.raises(ValidationError, match="encoded state norm defect"):
                    estimate_g(pm1, pm2, manips, shots=10, seed=0)


class TestW0:
    def test_cnot_truth_table(self):
        layout = layout_for(1)
        start = basis_index(layout, {"C1": 1, "R2": 1})
        out = apply_w0(init_basis(layout.total_qubits, start), layout)
        assert out.amplitudes[basis_index(layout, {"C1": 1, "R2": 0})] == 1.0

    def test_garbage_branch(self):
        layout = layout_for(1)
        start = basis_index(layout, {"C1": 1, "R2": 0})
        out = apply_w0(init_basis(layout.total_qubits, start), layout)
        assert out.amplitudes[basis_index(layout, {"C1": 1, "R2": 1})] == 1.0

    def test_matched_subspace_weight(self):
        # identity inputs: weight on R2 = 0 with both flags set equals the
        # double sum of squared products over matched inner indices
        pm1, pm2 = desk_pair()
        layout = layout_for(1)
        sv = apply_w0(build_initial(pm1, pm2, layout), layout)
        idx = np.arange(sv.amplitudes.size)
        r2_bit = 1 << layout.start("R2")
        flags = basis_index(layout, {"K1": 1, "K2": 1})
        sel = ((idx & r2_bit) == 0) & ((idx & flags) == flags)
        got = float(np.sum(np.abs(sv.amplitudes[sel]) ** 2))
        expected = 0.0
        for j1 in range(2):
            for j in range(2):
                for k2 in range(2):
                    expected += (
                        abs(pm1.matrix.entries[j1, j]) ** 2 * abs(pm2.matrix.entries[j, k2]) ** 2
                    )
        assert got == pytest.approx(expected, abs=1e-12)


class TestW1:
    def test_hadamard_row_formula(self):
        layout = layout_for(1)
        c1 = basis_index(layout, {"C1": 1})
        sv = init_basis(layout.total_qubits, 0)
        amps = sv.amplitudes.copy()
        amps[0], amps[c1] = 0.6, 0.8
        sv = type(sv)(layout.total_qubits, amps)
        out = apply_w1(sv, layout)
        assert out.amplitudes[0] == pytest.approx((0.6 + 0.8) / math.sqrt(2), abs=1e-15)
        assert out.amplitudes[c1] == pytest.approx((0.6 - 0.8) / math.sqrt(2), abs=1e-15)

    def test_desk_good_term_amplitudes(self):
        pm1, pm2 = desk_pair()
        layout = layout_for(1)
        sv = apply_w1(apply_w0(build_initial(pm1, pm2, layout), layout), layout)
        for d in range(2):
            idx = basis_index(layout, {"R1": d, "C2": d, "K1": 1, "K2": 1})
            assert sv.amplitudes[idx] == pytest.approx(0.25 / math.sqrt(2), abs=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(163)
        layout = layout_for(2)
        sv = build_initial(random_prepared(rng, 2), random_prepared(rng, 2), layout)
        out = apply_w1(apply_w0(sv, layout), layout)
        assert abs(out.norm() - 1.0) < 1e-12


class TestW2:
    def test_pure_real_inputs_leave_label_one_empty(self):
        pm1, pm2 = desk_pair()
        layout = layout_for(1)
        sv = apply_w2(apply_w1(apply_w0(build_initial(pm1, pm2, layout), layout), layout), layout)
        for d in range(2):
            good = {"R1": d, "C2": d, "K1": 1, "K2": 0}
            assert sv.amplitudes[basis_index(layout, {**good, "M1": 1})] == pytest.approx(0.0, abs=1e-15)
            assert sv.amplitudes[basis_index(layout, good)] == pytest.approx(
                0.25 / 2.0, abs=1e-15
            )

    def test_imaginary_times_real_entry(self):
        # single entries: i*0.5 at (0,1) times 0.5 at (1,0); product 0.25j at (0,0)
        pm1 = prepared_from_tilde([[0, 0.5j], [0, 0]])
        pm2 = prepared_from_tilde([[0, 0], [0.5, 0]])
        layout = layout_for(1)
        sv = apply_w2(apply_w1(apply_w0(build_initial(pm1, pm2, layout), layout), layout), layout)
        good = {"R1": 0, "C2": 0, "K1": 1, "K2": 0}
        pref = 2.0 ** (-(1 + 1) / 2)
        assert sv.amplitudes[basis_index(layout, good)] == pytest.approx(0.0, abs=1e-15)
        assert sv.amplitudes[basis_index(layout, {**good, "M1": 1})] == pytest.approx(
            0.25 * pref, abs=1e-15
        )

    def test_flag_relabeling(self):
        # payload terms end at (K1, K2) = (1, 0) or (0, 0); weight at (1, 1)
        # and (0, 1) is garbage from mismatched slack terms
        rng = np.random.default_rng(167)
        layout = layout_for(1)
        pm1 = random_prepared(rng, 1)
        pm2 = random_prepared(rng, 1)
        sv = apply_w2(apply_w1(apply_w0(build_initial(pm1, pm2, layout), layout), layout), layout)
        idx = np.arange(sv.amplitudes.size)
        k1_bit = 1 << layout.start("K1")
        k2_bit = 1 << layout.start("K2")
        w = {}
        for k1 in (0, 1):
            for k2 in (0, 1):
                sel = ((idx & k1_bit) != 0) == bool(k1)
                sel &= ((idx & k2_bit) != 0) == bool(k2)
                w[k1, k2] = float(np.sum(np.abs(sv.amplitudes[sel]) ** 2))
        # slack-only terms keep (0, 0); fully-matched terms moved from (1, 1) to (1, 0)
        assert w[0, 0] == pytest.approx(abs(pm1.b) ** 2 * abs(pm2.b) ** 2, abs=1e-12)
        assert w[1, 0] == pytest.approx(pm1.matrix.weight() * pm2.matrix.weight(), abs=1e-12)
        assert w[1, 1] == pytest.approx(pm1.matrix.weight() * abs(pm2.b) ** 2, abs=1e-12)
        assert w[0, 1] == pytest.approx(abs(pm1.b) ** 2 * pm2.matrix.weight(), abs=1e-12)


class TestPrefactorLadder:
    @pytest.mark.parametrize("n", [1, 2])
    def test_single_entry_prefactors(self, n):
        # one entry x at (0, j0) times one entry y at (j0, 0): the matched
        # amplitude carries 2^(-n/2) after the Hadamards and the combined
        # product carries 2^(-(n+1)/2) after the label algebra
        dim = 1 << n
        j0 = dim - 1
        x, y = 0.35, 0.4
        a1 = np.zeros((dim, dim), dtype=complex)
        a2 = np.zeros((dim, dim), dtype=complex)
        a1[0, j0] = x
        a2[j0, 0] = y
        pm1 = prepared_from_tilde(a1)
        pm2 = prepared_from_tilde(a2)
        layout = layout_for(n)
        sv = apply_w1(apply_w0(build_initial(pm1, pm2, layout), layout), layout)
        good = basis_index(layout, {"R1": 0, "C2": 0, "K1": 1, "K2": 1})
        assert sv.amplitudes[good] == pytest.approx(x * y * 2.0 ** (-n / 2), abs=1e-15)
        sv = apply_w2(sv, layout)
        good = basis_index(layout, {"R1": 0, "C2": 0, "K1": 1, "K2": 0})
        assert sv.amplitudes[good] == pytest.approx(x * y * 2.0 ** (-(n + 1) / 2), abs=1e-15)


class TestW3AndMeasurement:
    def test_truth_table(self):
        layout = layout_for(1)
        out = apply_w3(init_basis(layout.total_qubits, 0), layout)
        assert out.amplitudes[basis_index(layout, {"B": 1, "BT": 1})] == 1.0
        blocked = basis_index(layout, {"M2": 1})
        out = apply_w3(init_basis(layout.total_qubits, blocked), layout)
        assert out.amplitudes[blocked] == 1.0

    def test_flagged_weight_is_g_squared_over_2n1(self):
        rng = np.random.default_rng(173)
        for n in (1, 2):
            layout = layout_for(n)
            pm1 = random_prepared(rng, n, complex_b=True)
            pm2 = random_prepared(rng, n, complex_b=True)
            sv = build_initial(pm1, pm2, layout)
            for stage in (apply_w0, apply_w1, apply_w2, apply_w3):
                sv = stage(sv, layout)
            b_bit = 1 << layout.start("B")
            idx = np.arange(sv.amplitudes.size)
            weight = float(np.sum(np.abs(sv.amplitudes[(idx & b_bit) != 0]) ** 2))
            expected = classical_g(pm1, pm2) ** 2 / 2 ** (n + 1)
            assert weight == pytest.approx(expected, abs=1e-12)

    def test_desk_branch_probability(self):
        pm1, pm2 = desk_pair()
        layout = layout_for(1)
        sv = build_initial(pm1, pm2, layout)
        for stage in (apply_w0, apply_w1, apply_w2, apply_w3):
            sv = stage(sv, layout)
        out, prob = conditional_measure(sv, layout)
        assert prob == pytest.approx(0.09375, abs=1e-12)
        assert abs(out.norm() - 1.0) < 1e-12
        _, _, residual = decode(out, EncodedBlock.pipeline_output(layout))
        assert residual < 1e-12

    def test_zero_branch_is_an_error(self):
        layout = layout_for(1)
        sv = init_basis(layout.total_qubits, basis_index(layout, {"M2": 1}))
        with pytest.raises(MeasurementError):
            conditional_measure(sv, layout)


class TestOracleProduct:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_is_the_composition_of_the_public_oracles(self, n):
        # oracle_product reads the daggered and transposed factors straight
        # from the operands' components; it must give the bits of the
        # compositions its docstring lists, written with the public oracles.
        # Components mix +-0.0, which a conjugation flips
        rng = np.random.default_rng(190 + n)
        pm1, pm2 = (
            prepare(ComplexMatrix(n, mixed_entries(rng, n)), 0.75, b_phase=phase)
            for phase in (None, 2.0)
        )
        a1, a2 = pm1.matrix, pm2.matrix

        def transpose(m):
            return ComplexMatrix(m.n, m.entries.T.copy())

        def dagger(m, active):
            return dagger_oracle(m) if active else m

        for manips in ALL_SUBSETS:
            d1, d2 = "dagger1" in manips, "dagger2" in manips
            if "swap_order" not in manips:
                want = matmul_oracle(dagger(a1, d1), dagger(a2, d2))
            elif d1 and d2:
                want = matmul_oracle(dagger_oracle(a2), dagger_oracle(a1))
            elif d1:
                want = transpose(matmul_oracle(a1, dagger_oracle(a2)))
            elif d2:
                want = transpose(matmul_oracle(dagger_oracle(a1), a2))
            else:
                want = matmul_oracle(a2, a1)
            got, _b = oracle_product(pm1, pm2, manips)
            assert got.entries.tobytes() == want.entries.tobytes(), sorted(manips)


class TestRunPipeline:
    def test_desk_case(self):
        pm1, pm2 = desk_pair()
        res = run_pipeline(pm1, pm2)
        assert np.max(np.abs(res.matrix_hat.entries - 0.25 * np.eye(2))) < 1e-12
        assert res.b_hat == pytest.approx(0.5, abs=1e-12)
        assert res.g_exact == pytest.approx(math.sqrt(0.375), abs=1e-12)
        assert res.branch_probability == pytest.approx(3 / 32, abs=1e-12)
        assert res.oracle_error < 1e-12
        assert res.scale_back == pytest.approx(1.0, abs=1e-15)

    def test_dagger1_single_entry_pair(self):
        # conj(0.5j) lands at entry (1, 0); against matching column data the
        # product is -0.25j there
        pm1 = prepared_from_tilde([[0, 0.5j], [0, 0]])
        pm2 = prepared_from_tilde([[0.5, 0], [0, 0]])
        res = run_pipeline(pm1, pm2, {"dagger1"})
        assert np.max(np.abs(res.matrix_hat.entries - np.array([[0, 0], [-0.25j, 0]]))) < 1e-12
        # with row data instead the dagger makes the product vanish
        pm2b = prepared_from_tilde([[0, 0], [0.5, 0]])
        resb = run_pipeline(pm1, pm2b, {"dagger1"})
        assert np.max(np.abs(resb.matrix_hat.entries)) < 1e-12
        expected = matmul_oracle(dagger_oracle(pm1.matrix), pm2b.matrix)
        assert np.max(np.abs(expected.entries)) == 0.0

    def test_all_subsets_against_bruteforce_and_oracle(self):
        rng = np.random.default_rng(179)
        pm1 = random_prepared(rng, 1, complex_b=True)
        pm2 = random_prepared(rng, 1, complex_b=True)
        for manips in ALL_SUBSETS:
            res = run_pipeline(pm1, pm2, manips)
            bf_matrix, bf_b, bf_g, bf_branch = bf_run(pm1, pm2, manips)
            exp_matrix, exp_b = oracle_product(pm1, pm2, manips)
            assert np.max(np.abs(res.matrix_hat.entries - bf_matrix)) < 1e-12
            assert np.max(np.abs(res.matrix_hat.entries - exp_matrix.entries)) < 1e-12
            assert abs(res.b_hat - bf_b) < 1e-12
            assert abs(res.b_hat - exp_b) < 1e-12
            assert res.g_exact == pytest.approx(bf_g, abs=1e-12)
            assert res.branch_probability == pytest.approx(bf_branch, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_subsets_oracle_error(self, n):
        rng = np.random.default_rng(200 + n)
        pm1 = random_prepared(rng, n, complex_b=True)
        pm2 = random_prepared(rng, n, complex_b=True)
        for manips in ALL_SUBSETS:
            res = run_pipeline(pm1, pm2, manips)
            _, exp_b = oracle_product(pm1, pm2, manips)
            assert res.oracle_error < 1e-10
            assert abs(res.b_hat - exp_b) < 1e-12

    def test_normalization_law(self):
        rng = np.random.default_rng(181)
        for n in (1, 2):
            pm1 = random_prepared(rng, n)
            pm2 = random_prepared(rng, n)
            res = run_pipeline(pm1, pm2)
            total = abs(res.b_hat) ** 2 + float(np.sum(np.abs(res.matrix_hat.entries) ** 2))
            assert res.g_exact**2 == pytest.approx(total, abs=1e-10)
            assert res.branch_probability == pytest.approx(
                res.g_exact**2 / 2 ** (n + 1), abs=1e-10
            )
            assert res.g_exact == pytest.approx(classical_g(pm1, pm2), abs=1e-10)

    def test_b_hat_is_complex_slack_product(self):
        rng = np.random.default_rng(191)
        pm1 = random_prepared(rng, 1, complex_b=True)
        pm2 = random_prepared(rng, 1, complex_b=True)
        res = run_pipeline(pm1, pm2)
        b1, b2 = pm1.b, pm2.b
        expected = complex(
            b1.real * b2.real - b1.imag * b2.imag, b1.real * b2.imag + b1.imag * b2.real
        )
        assert abs(res.b_hat - expected) < 1e-12

    def test_scale_back_recovers_original_product(self):
        rng = np.random.default_rng(193)
        from qamp import prepare
        from support import random_matrix

        a1 = random_matrix(rng, 1)
        a2 = random_matrix(rng, 1)
        pm1 = prepare(a1, c=0.7)
        pm2 = prepare(a2, c=1.9)
        res = run_pipeline(pm1, pm2)
        recovered = res.matrix_hat.entries * res.scale_back
        assert np.max(np.abs(recovered - a1.entries @ a2.entries)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_is_its_stages_bit_for_bit(self, n):
        # the public stages on the full register, against run_pipeline (which
        # computes only the K1 = K2 quarters of w1's row and the payload)
        rng = np.random.default_rng(211 + n)
        pm1 = random_prepared(rng, n, complex_b=True)
        pm2 = random_prepared(rng, n, complex_b=True)
        layout = layout_for(n)
        for manips in ALL_SUBSETS:
            sv = build_initial(pm1, pm2, layout)
            for which, name in ((3, "swap_order"), (2, "dagger2"), (1, "dagger1")):
                if name in manips:
                    sv = apply_q(sv, which, layout)
            for stage in (apply_w0, apply_w1, apply_w2, apply_w3):
                sv = stage(sv, layout)
            sv, branch = conditional_measure(sv, layout)
            g = math.sqrt(branch * float(1 << (n + 1)))
            decoded, b_decoded, _ = decode(sv, EncodedBlock.pipeline_output(layout))
            entries = decoded.entries * g
            if "swap_order" in manips:
                entries = entries.T.copy()

            res = run_pipeline(pm1, pm2, manips)
            assert res.matrix_hat.entries.tobytes() == entries.tobytes()
            assert np.array([res.b_hat]).tobytes() == np.array([b_decoded * g]).tobytes()
            assert np.array([res.branch_probability]).tobytes() == np.array([branch]).tobytes()
            s1_tilde = sv.probability(layout.start("K1"), 0)
            est = estimate_g(pm1, pm2, manips, shots=10, seed=0)
            assert np.array([est.s1_tilde_exact]).tobytes() == np.array([s1_tilde]).tobytes()

    def test_stale_positional_layout_is_a_type_error(self):
        # a run takes no layout, and verify is keyword-only, so a layout
        # passed where run_pipeline once took one cannot bind to verify
        rng = np.random.default_rng(229)
        pm1, pm2 = random_prepared(rng, 2), random_prepared(rng, 2)
        with pytest.raises(TypeError):
            run_pipeline(pm1, pm2, (), layout_for(2))

    def test_run_path_is_the_light_cone(self, monkeypatch):
        # a run sums w1's K1 = K2 quarters straight from the operand
        # tensors and writes the payload tensor from them: no register
        # stage, no full-register reference stage, no joint state and no
        # matrix product; and neither the run nor the estimate holds any
        # register state, reads a block through a register view, derives a
        # layout or anything kept on one, or uses the full-register
        # manipulations
        def refused(*_args, **_kwargs):
            raise AssertionError("the run path called a full-register step")

        for name in (
            "register_stage",
            "build_initial",
            "joint_amplitudes",
            "apply_w0",
            "apply_w1",
            "apply_w2",
        ):
            monkeypatch.setattr(multiplier, name, refused)
        monkeypatch.setattr(np, "matmul", refused)
        for module in (multiplier, estimator, encoder, conjugator, registers, statevector):
            for name in ("StateVector", "register_view", "read_block", "_inside"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refused)
        monkeypatch.setattr(RegisterLayout, "without", refused)
        monkeypatch.setattr(RegisterLayout, "kept", refused)
        assert not [
            name
            for name, value in vars(multiplier).items()
            if getattr(value, "__module__", None) == conjugator.__name__
        ]
        rng = np.random.default_rng(227)
        pm1, pm2 = random_prepared(rng, 2), random_prepared(rng, 2)
        manips = {"dagger1", "dagger2", "swap_order"}
        payload, _weight = flagged_state(pm1, pm2, manips)
        assert payload.shape == (2, 4, 4, 2) and payload.dtype == np.float64
        run_pipeline(pm1, pm2, manips)
        estimate_g(pm1, pm2, manips, shots=10, seed=0)

    def test_no_verify_skips_the_oracle(self):
        rng = np.random.default_rng(223)
        pm1, pm2 = random_prepared(rng, 2), random_prepared(rng, 2)
        checked = run_pipeline(pm1, pm2, {"dagger1"})
        unchecked = run_pipeline(pm1, pm2, {"dagger1"}, verify=False)
        assert math.isnan(unchecked.oracle_error) and checked.oracle_error < 1e-10
        assert unchecked.matrix_hat.entries.tobytes() == checked.matrix_hat.entries.tobytes()

    def test_unknown_manipulation_rejected(self):
        pm1, pm2 = desk_pair()
        with pytest.raises(ParameterError):
            run_pipeline(pm1, pm2, {"transpose"})

    def test_unitarity_through_all_stages(self):
        rng = np.random.default_rng(197)
        layout = layout_for(1)
        sv = build_initial(random_prepared(rng, 1), random_prepared(rng, 1), layout)
        for which in (3, 2, 1):
            sv = apply_q(sv, which, layout)
            assert abs(sv.norm() - 1.0) < 1e-12
        for stage in (apply_w0, apply_w1, apply_w2, apply_w3):
            sv = stage(sv, layout)
            assert abs(sv.norm() - 1.0) < 1e-12


class TestBruteForceUnitaryEquivalence:
    def test_stagewise_and_product_n1(self):
        rng = np.random.default_rng(199)
        pm1 = random_prepared(rng, 1, complex_b=True)
        pm2 = random_prepared(rng, 1, complex_b=True)
        layout = layout_for(1)
        sv = build_initial(pm1, pm2, layout)
        vec = bf_initial_state(pm1, pm2, 1)
        assert np.allclose(sv.amplitudes, vec, atol=1e-14)
        stages = bf_pipeline_matrices(1)
        for stage_fn, stage_u in zip((apply_w0, apply_w1, apply_w2, apply_w3), stages):
            sv = stage_fn(sv, layout)
            vec = stage_u @ vec
            assert np.max(np.abs(sv.amplitudes - vec)) < 1e-12
        # explicit 1024x1024 product applied to the initial state
        product = stages[3] @ stages[2] @ stages[1] @ stages[0]
        final = product @ bf_initial_state(pm1, pm2, 1)
        assert np.max(np.abs(sv.amplitudes - final)) < 1e-12


class TestResourceReport:
    def test_examples(self):
        rep = resource_report(1)
        assert rep.qubits == 10
        assert rep.gate_counts["w0_cnots"] == 1
        assert resource_report(3).qubits == 18

    def test_qubit_formulas(self):
        for n in range(1, 7):
            rep = resource_report(n)
            assert rep.qubits == 4 * n + 6
            assert rep.qubits_with_controls == 4 * n + 9
            assert rep.w3_control_qubits == 2 * (n + 1)
            assert rep.gate_counts["q3_gates"] == 2 * n + 1

    def test_depth_growth_linear(self):
        depths = {n: resource_report(n).depth_total for n in range(1, 7)}
        assert depths[4] / depths[2] <= 2.5
        diffs = {depths[n + 1] - depths[n] for n in range(1, 6)}
        assert len(diffs) == 1  # exactly affine in n

    def test_rejects_n_below_one(self):
        with pytest.raises(ParameterError):
            resource_report(0)


class TestMemory:
    def test_peak_is_a_few_states(self):
        # the largest array of a run is the K1 = K2 diagonal of w1's row,
        # 2**-(2n+3) of the full state, and what it holds beside it is
        # about as large again
        rng = np.random.default_rng(331)
        pm1, pm2 = random_prepared(rng, 3, complex_b=True), random_prepared(rng, 3, complex_b=True)
        state_bytes = 8 << layout_for(3).total_qubits
        tracemalloc.start()
        try:
            run_pipeline(pm1, pm2, {"dagger1", "dagger2", "swap_order"})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * state_bytes, f"peak {peak / state_bytes:.2f} x the float64 state"

    def test_peak_is_a_few_rows(self):
        # w1's row at n = 5 is 8 * 2**(2n+4) bytes (128 KiB), and a run
        # computes only half of it; the whole run, oracle included, holds no
        # more than four rows' worth at once, while the 3n+4-qubit light cone
        # alone would take 4 MiB
        rng = np.random.default_rng(337)
        pm1, pm2 = random_prepared(rng, 5, complex_b=True), random_prepared(rng, 5, complex_b=True)
        row_bytes = 8 << (2 * 5 + 4)
        tracemalloc.start()
        try:
            run_pipeline(pm1, pm2, {"dagger1", "dagger2", "swap_order"})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * row_bytes, f"peak {peak / row_bytes:.2f} x w1's row"
