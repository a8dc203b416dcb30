import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qamp import (
    ComplexMatrix,
    DimensionError,
    ParameterError,
    PreparedMatrix,
    ValidationError,
    dagger_oracle,
    matmul_oracle,
    matrix_from_obj,
    matrix_to_obj,
    pad_to_square,
    prepare,
    prepared_from_obj,
    prepared_to_obj,
)
from qamp import complexmat
from support import BLOCK_CAPS, block_cap, matmul_oracle_numpy, mixed_entries, random_matrix


def matmul_swapped_loops(a, b):
    """Second multiplication implementation with the index order swapped."""
    dim = a.dim
    out = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(dim):
        for l in range(dim):
            for j in range(dim):
                out[j, k] += a.entries[j, l] * b.entries[l, k]
    return out


class TestComplexMatrix:
    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            ComplexMatrix(1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_rejects_non_power_width(self):
        with pytest.raises(DimensionError):
            ComplexMatrix(-1, [[1.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            ComplexMatrix(1, [[float("nan"), 0], [0, 0]])

    def test_rejects_infinity(self):
        with pytest.raises(ValidationError):
            ComplexMatrix(1, [[complex(0, float("inf")), 0], [0, 0]])


class TestPadToSquare:
    def test_square_power_of_two_unchanged(self):
        m = pad_to_square([[1, 2], [3, 4]])
        assert m.n == 1
        assert np.array_equal(m.entries, np.array([[1, 2], [3, 4]], dtype=complex))

    def test_3x2_pads_to_4x4(self):
        m = pad_to_square([[1, 2], [3, 4], [5, 6]])
        assert m.n == 2
        assert np.array_equal(m.entries[:3, :2], np.array([[1, 2], [3, 4], [5, 6]], dtype=complex))
        assert np.all(m.entries[3, :] == 0)
        assert np.all(m.entries[:, 2:] == 0)

    def test_1x4_pads_three_zero_rows(self):
        m = pad_to_square([[1j, 2, 3, 4]])
        assert m.n == 2
        assert np.array_equal(m.entries[0], np.array([1j, 2, 3, 4], dtype=complex))
        assert np.all(m.entries[1:] == 0)

    def test_random_shapes_against_hand_padding(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            block = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            m = pad_to_square(block.tolist())
            # hand oracle: next power of two at least max(rows, cols)
            side = 1
            while side < max(rows, cols):
                side *= 2
            assert m.dim == side
            expected = np.zeros((side, side), dtype=complex)
            expected[:rows, :cols] = block
            assert np.array_equal(m.entries, expected)

    def test_empty_input_rejected(self):
        with pytest.raises(DimensionError):
            pad_to_square([])

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionError):
            pad_to_square([[1, 2], [3]])


class TestPrepare:
    def test_direct_substitution(self):
        pm = prepare(ComplexMatrix(1, [[2, 0], [0, 0]]), c=1.0)
        assert np.allclose(pm.matrix.entries, [[0.4, 0], [0, 0]], atol=1e-15)
        assert math.isclose(pm.matrix.weight(), 0.16, abs_tol=1e-15)
        assert pm.b == pytest.approx(math.sqrt(0.84), abs=1e-15)
        assert pm.s_original == 4.0 and pm.c == 1.0

    def test_zero_matrix(self):
        pm = prepare(ComplexMatrix(1, np.zeros((2, 2))), c=3.7)
        assert np.all(pm.matrix.entries == 0)
        assert pm.b == 1.0

    def test_random_4x4_invariants_by_recomputation(self):
        rng = np.random.default_rng(17)
        a = random_matrix(rng, 2)
        pm = prepare(a, c=0.5)
        # recompute s and |b|^2 with an independent elementwise summation
        s = 0.0
        for row in a.entries:
            for v in row:
                s += v.real * v.real + v.imag * v.imag
        assert s == pytest.approx(pm.s_original, abs=1e-12)
        w = 0.0
        for row in pm.matrix.entries:
            for v in row:
                w += v.real * v.real + v.imag * v.imag
        assert abs(pm.b) ** 2 + w == pytest.approx(1.0, abs=1e-12)
        assert w < 1.0

    def test_scaling_round_trip(self):
        rng = np.random.default_rng(23)
        for n in (0, 1, 2):
            a = random_matrix(rng, n)
            pm = prepare(a, c=1.3)
            assert np.allclose(pm.matrix.entries * pm.scale, a.entries, atol=1e-12)

    def test_rejects_nonpositive_c(self):
        a = ComplexMatrix(1, np.eye(2))
        for c in (0.0, -1.0, float("nan")):
            with pytest.raises(ParameterError):
                prepare(a, c)

    def test_small_c_bad_window_raises(self):
        # weight 0.4 with c = 0.1 would scale to 0.4 / 0.25 = 1.6, above 1
        a = ComplexMatrix(1, [[math.sqrt(0.4), 0], [0, 0]])
        with pytest.raises(ParameterError):
            prepare(a, c=0.1)

    def test_mutated_entries_rejected(self):
        a = ComplexMatrix(1, np.eye(2))
        a.entries[0, 0] = float("inf")
        with pytest.raises(ValidationError):
            prepare(a, 1.0)

    def test_rejects_non_finite_b_phase(self):
        a = ComplexMatrix(1, np.eye(2))
        for phase in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match="b_phase must be finite"):
                prepare(a, 1.0, b_phase=phase)

    def test_b_phase_option(self):
        pm = prepare(ComplexMatrix(1, [[2, 0], [0, 0]]), c=1.0, b_phase=np.pi / 3)
        assert abs(pm.b) == pytest.approx(math.sqrt(0.84), abs=1e-15)
        assert np.angle(pm.b) == pytest.approx(np.pi / 3, abs=1e-12)

    @given(
        entries=st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=8, max_size=8
        ),
        c=st.floats(min_value=0.2505, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    # a subnormal s: the scale record's check needs its underflow term
    @example(entries=[0.0, 0.0, 0.0, 0.0, 6.059849534537776e-162, 0.0, 0.0, 0.0], c=0.5)
    def test_strict_inequality_property(self, entries, c):
        a = ComplexMatrix(
            1,
            np.array(entries[:4]).reshape(2, 2) + 1j * np.array(entries[4:]).reshape(2, 2),
        )
        pm = prepare(a, c)
        assert pm.matrix.weight() < 1.0
        assert abs(pm.b) ** 2 + pm.matrix.weight() == pytest.approx(1.0, abs=1e-12)
        pm.validate()


class TestPreparedMatrix:
    def test_from_scaled_unit_record(self):
        pm = PreparedMatrix.from_scaled([[0.5, 0], [0, 0.5]])
        assert pm.scale == 1.0
        assert pm.b == pytest.approx(math.sqrt(0.5), abs=1e-15)
        pm.validate()

    def test_validate_flags_weight_at_one(self):
        bad = PreparedMatrix(ComplexMatrix(1, [[1, 0], [0, 0]]), 0.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            bad.validate()

    @pytest.mark.parametrize(
        "s_original,c", [(0.5, 0.0), (-0.5, 2.0), (5.0, 0.5), (0.5, 0.5 + 1e-9)]
    )
    def test_validate_flags_inconsistent_scale_record(self, s_original, c):
        # entries of weight 0.5 scaled from weight 0.5 need s_original + c = 1
        ok = PreparedMatrix(ComplexMatrix(1, [[0.5, 0], [0, 0.5]]), math.sqrt(0.5), 0.5, 0.5)
        ok.validate()
        bad = PreparedMatrix(ok.matrix, ok.b, s_original, c)
        with pytest.raises(ValidationError):
            bad.validate()

    def test_validate_refuses_nan_slack(self):
        # |b|^2 + weight is NaN, which no tolerance comparison can pass
        bad = PreparedMatrix(ComplexMatrix(1, 0.5 * np.eye(2)), complex(math.nan), 0.5, 0.5)
        with pytest.raises(ValidationError):
            bad.validate()

    def test_validate_refuses_slack_with_nan_imaginary_part(self):
        bad = PreparedMatrix(ComplexMatrix(1, 0.5 * np.eye(2)), complex(0.5, math.nan), 0.5, 0.5)
        with pytest.raises(ValidationError):
            bad.validate()


class TestMatmulOracle:
    def test_identity(self):
        eye = ComplexMatrix(1, np.eye(2))
        assert np.array_equal(matmul_oracle(eye, eye).entries, np.eye(2))

    def test_hand_multiplication(self):
        a = ComplexMatrix(1, [[0, 0.5j], [0, 0]])
        b = ComplexMatrix(1, [[0, 0], [0.5, 0]])
        out = matmul_oracle(a, b)
        assert np.allclose(out.entries, [[0.25j, 0], [0, 0]], atol=1e-15)

    def test_against_swapped_loop_implementation(self):
        rng = np.random.default_rng(31)
        for n in (0, 1, 2, 3):
            a = random_matrix(rng, n)
            b = random_matrix(rng, n)
            got = matmul_oracle(a, b)
            assert np.allclose(got.entries, matmul_swapped_loops(a, b), atol=1e-14)
            assert np.allclose(got.entries, a.entries @ b.entries, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            matmul_oracle(ComplexMatrix(1, np.eye(2)), ComplexMatrix(2, np.eye(4)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=3).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.one_of(
                        st.sampled_from([0.0, -0.0]),
                        st.floats(min_value=1e-8, max_value=1e8),
                        st.floats(min_value=-1e8, max_value=-1e-8),
                    ),
                    min_size=4 << 2 * n,
                    max_size=4 << 2 * n,
                ),
            )
        )
    )
    def test_python_float_loop_is_the_numpy_scalar_loop(self, drawn):
        # same formula and accumulation order, so the same bits, signed
        # zeros included
        n, values = drawn
        entries = np.empty((2, 1 << n, 1 << n), dtype=np.complex128)
        entries.real, entries.imag = np.array(values).reshape(2, 2, 1 << n, 1 << n)
        a, b = (ComplexMatrix(n, e) for e in entries)
        got = matmul_oracle(a, b).entries
        assert got.tobytes() == matmul_oracle_numpy(a, b).entries.tobytes()

    @pytest.mark.parametrize("n", [4, 5])
    def test_is_the_numpy_scalar_loop_at_run_sizes(self, n):
        # the case above stops at n = 3; runs hold products at n = 4 and
        # above against the oracle.  Entries mix +0.0, -0.0 and magnitudes
        # from 1e-8 to 1e8 of either sign.
        rng = np.random.default_rng(50 + n)
        shape = (2, 2, 1 << n, 1 << n)  # (real/imaginary, operand, row, column)
        for _ in range(2):
            magnitude = 10.0 ** rng.uniform(-8.0, 8.0, size=shape)
            kind = rng.integers(0, 4, size=shape)
            entries = np.empty(shape[1:], dtype=np.complex128)
            entries.real, entries.imag = np.choose(
                kind, [np.zeros(shape), np.full(shape, -0.0), magnitude, -magnitude]
            )
            a, b = (ComplexMatrix(n, e) for e in entries)
            got = matmul_oracle(a, b).entries
            assert got.tobytes() == matmul_oracle_numpy(a, b).entries.tobytes()

    @pytest.mark.parametrize("case", sorted(BLOCK_CAPS))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_is_the_numpy_scalar_loop_in_every_block_shape(self, n, case, monkeypatch):
        # at run sizes a block holds every l, and only n >= 6 has more than
        # one; with the cap brought down the blocks split the l range and
        # the rows as they do there, and the bits must not move; nor may
        # they under the run's daggered factors and transposed products,
        # which the oracle reads straight from the entries
        dim = 1 << n
        monkeypatch.setattr(complexmat, "ORACLE_BLOCK", block_cap(case, dim, dim, dim))
        rng = np.random.default_rng(60 + n)
        for _ in range(2):
            a, b = (ComplexMatrix(n, mixed_entries(rng, n)) for _ in range(2))
            got = matmul_oracle(a, b).entries
            assert got.tobytes() == matmul_oracle_numpy(a, b).entries.tobytes()
            # the first flag set, the plain product, is the check above
            for flags in list(itertools.product((False, True), repeat=3))[1:]:
                dagger_a, dagger_b, transpose = flags
                x = dagger_oracle(a) if dagger_a else a
                y = dagger_oracle(b) if dagger_b else b
                want = matmul_oracle_numpy(x, y).entries
                if transpose:
                    want = want.T.copy()
                got = complexmat._matmul(a.entries, b.entries, *flags)
                assert got.tobytes() == want.tobytes(), flags

    def test_bilinear(self):
        rng = np.random.default_rng(37)
        a, b, c = (random_matrix(rng, 1) for _ in range(3))
        lhs = matmul_oracle(ComplexMatrix(1, a.entries + b.entries), c)
        rhs = matmul_oracle(a, c).entries + matmul_oracle(b, c).entries
        assert np.allclose(lhs.entries, rhs, atol=1e-12)
        x = 0.7 - 0.3j
        assert np.allclose(
            matmul_oracle(ComplexMatrix(1, x * a.entries), c).entries,
            x * matmul_oracle(a, c).entries,
            atol=1e-12,
        )

    def test_associative(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            a, b, c = (random_matrix(rng, 2) for _ in range(3))
            lhs = matmul_oracle(matmul_oracle(a, b), c)
            rhs = matmul_oracle(a, matmul_oracle(b, c))
            assert np.allclose(lhs.entries, rhs.entries, atol=1e-12)


class TestDaggerOracle:
    def test_real_symmetric_fixed_point(self):
        m = ComplexMatrix(1, [[1, 2], [2, 3]])
        assert np.array_equal(dagger_oracle(m).entries, m.entries)

    def test_definition(self):
        m = ComplexMatrix(1, [[0, 0.5j], [0, 0]])
        assert np.array_equal(dagger_oracle(m).entries, np.array([[0, 0], [-0.5j, 0]]))

    def test_involution(self):
        rng = np.random.default_rng(43)
        m = random_matrix(rng, 2)
        assert np.array_equal(dagger_oracle(dagger_oracle(m)).entries, m.entries)

    def test_product_reversal(self):
        rng = np.random.default_rng(47)
        a = random_matrix(rng, 1)
        b = random_matrix(rng, 1)
        lhs = dagger_oracle(matmul_oracle(a, b))
        rhs = matmul_oracle(dagger_oracle(b), dagger_oracle(a))
        assert np.allclose(lhs.entries, rhs.entries, atol=1e-12)


def component(value):
    """A 2x2 matrix document whose entry (1, 0) has ``value`` as its
    imaginary part, every other component a number."""
    return {"n": 1, "entries": [[[1, 0.5], [0, 0]], [[0.25, value], [0, 0]]]}


def component_literal(literal):
    """:func:`component` of a JSON literal, as json.loads reads it."""
    return json.loads(f'{{"n": 1, "entries": [[[1, 0.5], [0, 0]], [[0.25, {literal}], [0, 0]]]}}')


class TestFileSchema:
    def test_round_trip(self):
        rng = np.random.default_rng(53)
        m = random_matrix(rng, 1)
        assert np.array_equal(matrix_from_obj(matrix_to_obj(m)).entries, m.entries)

    def test_prepared_round_trip(self):
        pm = prepare(ComplexMatrix(1, [[2, 0], [0, 1j]]), c=0.8, b_phase=0.3)
        back = prepared_from_obj(prepared_to_obj(pm))
        assert np.array_equal(back.matrix.entries, pm.matrix.entries)
        assert back.b == pm.b and back.c == pm.c and back.s_original == pm.s_original

    @pytest.mark.parametrize(
        "obj,expected",
        [
            ({"entries": []}, "n"),
            ({"n": 1}, "entries"),
            ({"n": 1, "entries": [[[1, 0]], [[0, 0]]]}, "entries[0]"),
            ({"n": 1, "entries": [[[1, 0], [0]], [[0, 0], [0, 0]]]}, "entries[0][1]"),
            ({"n": 1, "entries": [[[1, 0], ["x", 0]], [[0, 0], [0, 0]]]}, "entries[0][1]"),
            ({"n": True, "entries": []}, "n"),
            # components that np.array(..., dtype=np.float64) would read as
            # 1.0, 1.5 and nan, or refuse with an OverflowError, and literals
            # that json.loads reads as nan and inf: the whole message
            pytest.param(component(True), "entries[1][0] must be a number, got True", id="true"),
            pytest.param(component("1.5"), "entries[1][0] must be a number, got '1.5'", id="string"),
            pytest.param(component(None), "entries[1][0] must be a number, got None", id="null"),
            pytest.param(
                {"n": 1, "entries": [[[1, 0], [0, 0]], [[0, 0, 0], [0, 0]]]},
                "entries[1][0] must be a [re, im] pair",
                id="triple",
            ),
            pytest.param(
                component(10**400),
                "entries[1][0] must fit in float64, got an integer of 1329 bits",
                id="int-beyond-float64",
            ),
            pytest.param(component_literal("NaN"), "entries[1][0] must be finite, got nan", id="nan"),
            pytest.param(component_literal("Infinity"), "entries[1][0] must be finite, got inf", id="infinity"),
        ],
    )
    def test_schema_errors_name_the_field(self, obj, expected):
        with pytest.raises(ValidationError) as err:
            matrix_from_obj(obj)
        assert expected in str(err.value)

    def test_non_rectangular_rejected(self):
        obj = {"n": 1, "entries": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0]]]}
        with pytest.raises(ValidationError):
            matrix_from_obj(obj)
