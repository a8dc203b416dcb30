import json
import math
import re
from fractions import Fraction

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
    oracle_product,
    prepare,
    prepared_from_obj,
    prepared_to_obj,
    run_pipeline,
)
from qamp import complexmat
from support import ORDER_CANARY, matmul_oracle_numpy, mixed_entries, random_matrix


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

    @pytest.mark.parametrize("n", [64, 2**62], ids=["64", "2**62"])
    def test_width_too_wide_for_any_matrix_is_refused_before_two_to_the_n(self, n):
        # 1 << 2**62 alone would need 2**59 bytes
        with pytest.raises(DimensionError, match=f"^register width {n} is too wide for any matrix$"):
            ComplexMatrix(n, [[1]])

    @pytest.mark.parametrize(
        "entries,kind",
        [
            ([["1", "2j"], ["3", "4"]], "str"),
            ([[b"1", 2], [3, 4]], "bytes"),
            ([[True, False], [1, 2]], "bool"),
            (np.array([[True, False], [False, True]]), "an array of bool"),
        ],
        ids=["strings", "bytes", "bools", "bool-array"],
    )
    def test_entries_must_be_numbers(self, entries, kind):
        # numpy would read these as the numbers they spell, or as 1 and 0
        with pytest.raises(ValidationError, match=f"^matrix entries must be numbers, got {kind}$"):
            ComplexMatrix(1, entries)

    def test_ragged_rows_are_a_dimension_error(self):
        with pytest.raises(DimensionError, match=r"^expected a 2x2 matrix for n=1, got shape \(2,\)$"):
            ComplexMatrix(1, [[1, 2], [3]])

    def test_number_arrays_are_taken_by_their_dtype(self, monkeypatch):
        # int, float and complex arrays, and so every matrix that the
        # package builds, are not checked entry by entry
        def refused(_kind):
            raise AssertionError("an array of numbers was checked entry by entry")

        monkeypatch.setattr(complexmat, "_is_number", refused)
        for dtype in (np.int8, np.int64, np.uint16, np.float32, np.float64, np.complex128):
            m = ComplexMatrix(1, np.array([[1, 0], [2, 3]], dtype=dtype))
            assert m.entries.tolist() == [[1, 0], [2, 3]], dtype
        a = matrix_from_obj({"n": 1, "entries": [[[1, 0], [0, 2]], [[0.5, 0], [3, 0]]]})
        pm = prepare(a, 1.0)
        dagger_oracle(a)
        matmul_oracle(a, a)
        oracle_product(pm, pm, {"dagger1"})

    @pytest.mark.parametrize("n", [True, False])
    def test_width_must_not_be_a_bool(self, n):
        # the entries fit the width the bool would stand for
        with pytest.raises(DimensionError, match=f"got {n!r}$"):
            ComplexMatrix(n, np.eye(1 << n))

    def test_results_share_no_memory_with_the_inputs(self):
        # the package hands its own fresh results to ComplexMatrix._fresh
        # without a copy, so none of them may hold a view of an input
        rng = np.random.default_rng(103)
        a, b = random_matrix(rng, 2), random_matrix(rng, 2)
        pm1, pm2 = prepare(a, 0.75), prepare(b, 0.75, b_phase=1.0)
        inputs = (a, b, pm1.matrix, pm2.matrix)
        results = [pm1.matrix, pm2.matrix, matrix_from_obj(matrix_to_obj(a)), dagger_oracle(a), matmul_oracle(a, b)]
        for manips in ((), ("dagger2",), ("dagger1", "swap_order")):
            results.append(oracle_product(pm1, pm2, manips)[0])
            results.append(run_pipeline(pm1, pm2, manips).matrix_hat)
        for result in results:
            assert result.entries.dtype == np.complex128 and result.entries.flags.c_contiguous
            for source in inputs:
                if result is not source:
                    assert not np.shares_memory(result.entries, source.entries)


class TestPrepare:
    @pytest.mark.parametrize(
        "c", ["1", None, True, np.True_], ids=["str", "None", "True", "numpy-True"]
    )
    def test_c_must_be_a_real_number_not_a_bool(self, c):
        with pytest.raises(ParameterError, match=f"got {re.escape(repr(c))}$"):
            prepare(ComplexMatrix(1, [[2, 0], [0, 0]]), c)

    def test_integers_beyond_float64_are_parameter_errors(self):
        # math.isfinite raises an OverflowError on such an int
        a = ComplexMatrix(1, [[2, 0], [0, 0]])
        with pytest.raises(ParameterError, match="^slack parameter c must fit in float64, got an integer of 1329 bits$"):
            prepare(a, 10**400)
        with pytest.raises(ParameterError, match="^slack phase b_phase must fit in float64, got an integer of 1329 bits$"):
            prepare(a, 1.0, b_phase=10**400)

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

    @pytest.mark.parametrize(
        "phase", [True, np.True_, "1"], ids=["True", "numpy-True", "str"]
    )
    def test_b_phase_must_be_a_real_number_not_a_bool(self, phase):
        # a bool would rotate the slack by 1 rad, a string reach math.isfinite
        with pytest.raises(ParameterError, match=f"b_phase must be a real number, got {re.escape(repr(phase))}$"):
            prepare(ComplexMatrix(1, [[2, 0], [0, 0]]), 1.0, b_phase=phase)

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

    @pytest.mark.parametrize(
        "b,s_original,c,message",
        [
            (math.sqrt(0.5), 0.5, True, "^c must be a real number, got True$"),
            (math.sqrt(0.5), True, 0.5, "^s_original must be a real number, got True$"),
            (math.sqrt(0.5), 10**400, 0.5, "^s_original must fit in float64, got an integer of 1329 bits$"),
            (math.sqrt(0.5), 0.5, "0.5", "^c must be a real number, got '0.5'$"),
            ("x", 0.5, 0.5, "^b must be a number, got 'x'$"),
            (True, 0.5, 0.5, "^b must be a number, got True$"),
        ],
        ids=["bool-c", "bool-s_original", "huge-s_original", "str-c", "str-b", "bool-b"],
    )
    def test_validate_checks_the_record_types_before_any_arithmetic(self, b, s_original, c, message):
        # each is refused by name before any arithmetic: a bool c would
        # count as 1, an int s_original beyond float64 would overflow in
        # s + c, and a str b would fail in abs(b)
        ok = PreparedMatrix(ComplexMatrix(1, [[0.5, 0], [0, 0.5]]), math.sqrt(0.5), 0.5, 0.5)
        ok.validate()
        bad = PreparedMatrix(ok.matrix, b, s_original, c)
        with pytest.raises(ValidationError, match=message):
            bad.validate()

    @pytest.mark.parametrize("kind", [float, complex, np.complex128, np.float64])
    def test_validate_takes_a_slack_of_any_numeric_type(self, kind):
        PreparedMatrix(ComplexMatrix(1, [[0.5, 0], [0, 0.5]]), kind(math.sqrt(0.5)), 0.5, 0.5).validate()

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

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_is_the_numpy_scalar_loop_under_every_manipulation_set(self, n):
        # the oracle orients each set's factors from the entries, summing a
        # transposed product as the product of the transposed factors in
        # exchanged order, and the bits must be the scalar loop's
        rng = np.random.default_rng(60 + n)
        for _ in range(2):
            a, b = (ComplexMatrix(n, mixed_entries(rng, n)) for _ in range(2))
            got = matmul_oracle(a, b).entries
            assert got.tobytes() == matmul_oracle_numpy(a, b).entries.tobytes()
            pm1, pm2 = prepare(a, 0.75), prepare(b, 0.75)
            m1, m2, dag = pm1.matrix, pm2.matrix, dagger_oracle
            # the README's table: manipulations -> (factors, transposed)
            table = {
                (): ((m1, m2), False),
                ("dagger1",): ((dag(m1), m2), False),
                ("dagger2",): ((m1, dag(m2)), False),
                ("dagger1", "dagger2"): ((dag(m1), dag(m2)), False),
                ("swap_order",): ((m2, m1), False),
                ("dagger1", "swap_order"): ((m1, dag(m2)), True),
                ("dagger2", "swap_order"): ((dag(m1), m2), True),
                ("dagger1", "dagger2", "swap_order"): ((dag(m2), dag(m1)), False),
            }
            for manips, (factors, transposed) in table.items():
                want = matmul_oracle_numpy(*factors).entries
                got, _b = oracle_product(pm1, pm2, manips)
                assert got.entries.tobytes() == (want.T.copy() if transposed else want).tobytes(), manips

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


class TestEinsumOrder:
    # the oracle's sum is one einsum, which must add each entry's terms in
    # index order and round each real product (see matmul_oracle).  Entry
    # (0, 0) sums the canary's terms, 0 in index order only; entry (1, 1)
    # sums one term whose real part a*a - a*a is 0 with both products
    # rounded, but the rounding error of a*a when one is fused into the
    # subtraction
    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_matmul_sums_in_index_order(self, n):
        dim = 1 << n
        x = np.zeros((dim, dim), dtype=np.complex128)
        y = np.zeros((dim, dim), dtype=np.complex128)
        x[:4, 0] = ORDER_CANARY
        y[:4, 0] = 1.0
        a = 1.0 + 2.0**-30
        x[0, 1] = y[0, 1] = complex(a, a)
        assert Fraction(a * a) != Fraction(a) ** 2  # so a fused a*a - a*a is not 0
        got = complexmat._matmul(x, y)
        for j in (0, 1):
            re = im = 0.0
            for l in range(dim):
                x0, x1, y0, y1 = x[l, j].real, x[l, j].imag, y[l, j].real, y[l, j].imag
                re += x0 * y0 - x1 * y1
                im += x0 * y1 + x1 * y0
            assert re == 0.0
            want = np.complex128(complex(re, im))
            assert got[j, j].tobytes() == want.tobytes(), f"numpy {np.__version__}: {got[j, j]!r} at {j}"


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
            pytest.param(component(True), "entries[1][0] must be a real number, got True", id="true"),
            pytest.param(component("1.5"), "entries[1][0] must be a real number, got '1.5'", id="string"),
            pytest.param(component(None), "entries[1][0] must be a real number, got None", id="null"),
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

    @pytest.mark.parametrize("obj", [[1, 2], "matrix", None, 3.0], ids=["list", "str", "null", "number"])
    def test_document_must_be_an_object(self, obj):
        with pytest.raises(ValidationError, match="^matrix document must be a JSON object$"):
            matrix_from_obj(obj)

    def test_numpy_float_entries_are_read_by_the_walk(self):
        # numpy numbers are not of the exact types int and float: the fast
        # path leaves them to the walk, which reads them as the numbers
        # they are, as it reads a numpy integer n; a numpy bool is refused
        pairs = [
            [[np.float64(0.5), -0.0], [np.int64(1), np.float64(-2.5)]],
            [[0.0, np.float32(0.25)], [np.float64(3.0), 4]],
        ]
        m = matrix_from_obj({"n": np.int64(1), "entries": pairs})
        assert m.n == 1 and type(m.n) is int
        assert m.entries.tobytes() == np.array(pairs, dtype=np.float64).tobytes()
        pairs[1][1][0] = np.True_
        message = rf"^entries\[1\]\[1\] must be a real number, got {re.escape(repr(np.True_))}$"
        with pytest.raises(ValidationError, match=message):
            matrix_from_obj({"n": 1, "entries": pairs})

    @pytest.mark.parametrize("key", ["b", "s_original", "c"])
    def test_prepared_document_names_a_missing_field(self, key):
        obj = prepared_to_obj(prepare(ComplexMatrix(1, [[2, 0], [0, 1j]]), 0.8))
        del obj[key]
        with pytest.raises(ValidationError, match=f"^missing field: {key}$"):
            prepared_from_obj(obj)

    def test_non_rectangular_rejected(self):
        obj = {"n": 1, "entries": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0]]]}
        with pytest.raises(ValidationError):
            matrix_from_obj(obj)
