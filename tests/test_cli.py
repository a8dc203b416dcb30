import errno
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import support
from qamp import cli, multiplier, registers
from qamp.cli import build_parser, dump_json, main
from qamp.complexmat import ComplexMatrix, dagger_oracle, matrix_to_obj, prepare
from qamp.errors import (
    DimensionError,
    EstimateUnavailableError,
    MeasurementError,
    MethodUndefinedError,
    ParameterError,
    QampError,
    ValidationError,
)
from qamp.estimator import estimate_g

IDENTITY_HALF = {
    "n": 1,
    "entries": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def desk_matrix(tmp_path):
    return write_json(tmp_path / "half_identity.json", IDENTITY_HALF)


class TestPrepare:
    def test_direct_substitution(self, tmp_path, capsys):
        src = write_json(tmp_path / "a.json", {"n": 1, "entries": [[[2, 0], [0, 0]], [[0, 0], [0, 0]]]})
        assert main(["prepare", src, "--c", "1.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["entries"][0][0] == [0.4, 0.0]
        assert out["b"][0] == pytest.approx(math.sqrt(0.84), abs=1e-15)
        assert out["b"][1] == 0.0
        assert out["s_original"] == 4.0 and out["c"] == 1.0
        assert set(out) == {"n", "entries", "b", "s_original", "c"}

    def test_seventeen_digit_floats(self, tmp_path):
        src = write_json(tmp_path / "a.json", {"n": 1, "entries": [[[2, 0], [0, 0]], [[0, 0], [0, 0]]]})
        dst = tmp_path / "prepared.json"
        assert main(["prepare", src, "--c", "1.0", "--output", str(dst)]) == 0
        text = dst.read_text()
        assert format(0.4, ".17g") in text  # 0.40000000000000002
        assert format(math.sqrt(0.84), ".17g") in text

    def test_idempotent_byte_identical(self, tmp_path):
        src = write_json(tmp_path / "a.json", {"n": 1, "entries": [[[2, 0], [0, 1]], [[0, -3], [0.25, 0]]]})
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        assert main(["prepare", src, "-o", str(out1)]) == 0
        assert main(["prepare", src, "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_subnormal_weight_output_multiplies(self, tmp_path):
        # s = |6.06e-162|^2 is subnormal; prepare's own output must pass
        # the scale record's check when multiply reads it back
        entries = [[[0.0, 6.059849534537776e-162], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        src = write_json(tmp_path / "a.json", {"n": 1, "entries": entries})
        prepared = tmp_path / "p.json"
        assert main(["prepare", src, "--c", "0.5", "-o", str(prepared)]) == 0
        assert main(["multiply", str(prepared), str(prepared)]) == 0

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["prepare", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_schema_error_names_field(self, tmp_path, capsys):
        src = write_json(tmp_path / "a.json", {"entries": []})
        assert main(["prepare", src]) == 2
        assert "n" in capsys.readouterr().err

    def test_nonpositive_c_exit_2(self, tmp_path, desk_matrix):
        assert main(["prepare", desk_matrix, "--c", "-1"]) == 2

    def test_missing_file_exit_2(self):
        assert main(["prepare", "/nonexistent/x.json"]) == 2

    @pytest.mark.parametrize("c", ["inf", "-inf", "nan"])
    def test_non_finite_c_exit_2(self, tmp_path, desk_matrix, capsys, c):
        # "c": inf would be written as a file that is not JSON
        dst = tmp_path / "p.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["prepare", desk_matrix, f"--c={c}", "-o", str(dst)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "slack parameter c" in err
        assert not dst.exists()

    def test_overflowing_scale_exit_2(self, desk_matrix, capsys):
        # (s + c)^2 = 1e400: the scale record would read inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["prepare", desk_matrix, "--c", "1e200"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "c=1e+200" in err and "overflows" in err


    def test_reciprocal_overflow_exit_2(self, tmp_path, capsys):
        # numpy divides the entries by s + c through 1/(s + c), which for
        # the zero matrix and c = 5e-324 overflowed, with warnings, into
        # NaN entries
        src = write_json(tmp_path / "z.json", {"n": 0, "entries": [[[0.0, 0.0]]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["prepare", src, "--c=5e-324"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: c=5e-324 is too small for this matrix: 1/(s + c) overflows float64 for s=0.0\n"


class TestMultiply:
    def test_desk_case_verifies(self, tmp_path, desk_matrix, capsys):
        assert main(["multiply", desk_matrix, desk_matrix, "--c", "0.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verify"]["pass"] is True
        assert report["g"] == pytest.approx(math.sqrt(0.375), abs=1e-12)
        assert report["branch_probability"] == pytest.approx(3 / 32, abs=1e-12)
        assert report["b_hat"][0] == pytest.approx(0.5, abs=1e-12)
        assert report["matrix_hat"]["entries"][0][0][0] == pytest.approx(0.25, abs=1e-12)
        assert report["version"] and report["flags"]["c"] == 0.5
        assert report["layout"]["total_qubits"] == 10
        assert report["scale_back"] == pytest.approx(1.0, abs=1e-12)

    def test_rescaled_matrix_recovers_original_product(self, tmp_path, capsys):
        rng = np.random.default_rng(229)
        mats = []
        for name in ("a", "b"):
            entries = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            mats.append(entries)
            write_json(
                tmp_path / f"{name}.json",
                {"n": 1, "entries": [[[v.real, v.imag] for v in row] for row in entries]},
            )
        assert main(["multiply", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--c", "1.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        got = np.array([[complex(*pair) for pair in row] for row in report["matrix_hat_rescaled"]["entries"]])
        assert np.max(np.abs(got - mats[0] @ mats[1])) < 1e-10

    def test_dagger_flags(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", {"n": 1, "entries": [[[0, 0], [0, 0.5]], [[0, 0], [0, 0]]]})
        b = write_json(tmp_path / "b.json", {"n": 1, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0, 0]]]})
        assert main(["multiply", a, b, "--dagger-a", "--dagger-b", "--swap-order"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verify"]["pass"] is True
        assert sorted(report["manipulations"]) == ["dagger1", "dagger2", "swap_order"]

    def test_prepared_inputs_accepted(self, tmp_path, desk_matrix, capsys):
        prepared = tmp_path / "prepared.json"
        assert main(["prepare", desk_matrix, "--c", "0.5", "-o", str(prepared)]) == 0
        assert main(["multiply", str(prepared), str(prepared)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["g"] == pytest.approx(math.sqrt(0.375), abs=1e-12)

    def test_prepared_file_off_unit_norm_exit_2(self, tmp_path, capsys):
        # |b|^2 + weight misses 1 by about 1.4e-11: within the encoder's
        # tolerance, outside the prepared-matrix identity
        doc = {**IDENTITY_HALF, "b": [math.sqrt(0.5) + 1e-11, 0.0], "s_original": 0.5, "c": 0.5}
        prepared = write_json(tmp_path / "off.json", doc)
        assert main(["multiply", prepared, prepared]) == 2
        assert "deviates from 1" in capsys.readouterr().err

    def test_zero_slack_prepared_file_exit_4(self, tmp_path, capsys):
        nilpotent = {"n": 1, "entries": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        prepared = write_json(tmp_path / "p.json", {**nilpotent, "b": [0.0, 0.0], "s_original": 1.0, "c": 1.0})
        assert main(["multiply", prepared, prepared]) == 4
        assert "undefined" in capsys.readouterr().err

    def test_zero_weight_branch_exit_2(self, tmp_path, capsys):
        # a valid nilpotent operand whose slack underflows in the product:
        # the flagged branch has weight exactly zero
        a = math.sqrt(1.0 - 1e-13)
        nilpotent = {"n": 1, "entries": [[[0.0, 0.0], [a, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        doc = {**nilpotent, "b": [1e-200, 0.0], "s_original": 1 - 1e-13, "c": 1e-13}
        prepared = write_json(tmp_path / "p.json", doc)
        assert main(["multiply", prepared, prepared]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "zero probability" in err

    def test_oversized_run_refused_exit_2(self, tmp_path, capsys, monkeypatch):
        # physical memory reported one byte short of an n = 2 run's peak:
        # 24.5 bytes per amplitude of a quarter of w1's row of 2**6
        # amplitudes (three quarters and the weight's mask of an eighth of
        # the branch's half quarter) and the runtime
        monkeypatch.setattr(multiplier, "physical_memory_bytes", lambda: 67110432 - 1)
        entries = [[[0.1 * (j + k), 0.0] for k in range(4)] for j in range(4)]
        a = write_json(tmp_path / "a.json", {"n": 2, "entries": entries})
        assert main(["multiply", a, a]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "needs 67110432 bytes" in err

    def test_prepared_file_inconsistent_scale_exit_2(self, tmp_path, capsys):
        # the desk file records s_original = 0.5; with 5.0 the rescaled
        # product would silently come out 30.25 times too large
        doc = {**IDENTITY_HALF, "b": [math.sqrt(0.5), 0.0], "s_original": 5.0, "c": 0.5}
        prepared = write_json(tmp_path / "bad.json", doc)
        assert main(["multiply", prepared, prepared]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "disagree with the entries" in err

    def test_overflowing_scale_exit_2(self, tmp_path, capsys):
        # the rescaling (s1 + c)(s2 + c) = 1e400 would overflow; neither a
        # raw operand nor a prepared file with such a c is multiplied
        identity = {"n": 1, "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
        zero = {"n": 1, "entries": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        identity = write_json(tmp_path / "i.json", identity)
        doc = {**zero, "b": [1.0, 0.0], "s_original": 0.0, "c": 1e200}
        prepared = write_json(tmp_path / "p.json", doc)
        for argv in (["multiply", identity, identity, "--c", "1e200"], ["multiply", prepared, prepared]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "c=1e+200" in captured.err

    def test_failed_verification_exit_1(self, tmp_path, capsys, monkeypatch):
        # a run whose product is off by 1e-6 relative: the report says so,
        # the exit code is 1 and stderr names the worst entry
        flagged = multiplier.flagged_state

        def off(*args):
            product, slack, weight = flagged(*args)
            product *= 1 + 1e-6
            return product, slack, weight

        monkeypatch.setattr(multiplier, "flagged_state", off)
        rng = np.random.default_rng(263)
        a, b = (support.random_matrix(rng, 2) for _ in range(2))
        paths = [write_json(tmp_path / f"{name}.json", matrix_to_obj(m)) for name, m in (("a", a), ("b", b))]
        assert main(["multiply", *paths, "--dagger-b"]) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["verify"]["pass"] is False
        got = np.array([[complex(*pair) for pair in row] for row in report["matrix_hat"]["entries"]])
        expected, _b = multiplier.oracle_product(prepare(a, 1.0), prepare(b, 1.0), {"dagger2"})
        diff = np.abs(got - expected.entries)
        j, k = np.unravel_index(int(np.argmax(diff)), diff.shape)
        assert report["verify"]["oracle_error"] == np.max(diff) > report["verify"]["tolerance"]
        assert captured.err == (
            f"verification failed: max error {np.max(diff):.3e} at entry ({j}, {k}) "
            f"exceeds {report['verify']['tolerance']}\n"
        )

    def test_mismatched_n_exit_3(self, tmp_path, desk_matrix):
        big = write_json(
            tmp_path / "big.json",
            {"n": 2, "entries": [[[0.1, 0]] * 4 for _ in range(4)]},
        )
        assert main(["multiply", desk_matrix, big]) == 3

    def test_no_verify_omits_block(self, tmp_path, desk_matrix, capsys):
        assert main(["multiply", desk_matrix, desk_matrix, "--c", "0.5", "--no-verify"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "verify" not in report

    @pytest.mark.parametrize("flags, calls", [(["--no-verify"], 0), ([], 1)], ids=["no_verify", "default"])
    def test_oracle_runs_only_when_verifying(self, desk_matrix, monkeypatch, flags, calls):
        seen = []
        oracle = multiplier.oracle_product

        def counting(*args, **kwargs):
            seen.append(args)
            return oracle(*args, **kwargs)

        monkeypatch.setattr(multiplier, "oracle_product", counting)
        assert main(["multiply", desk_matrix, desk_matrix, "--c", "0.5", *flags]) == 0
        assert len(seen) == calls

    def test_deterministic_report(self, tmp_path, desk_matrix):
        # identical flags (including the output path) give identical bytes
        out = tmp_path / "r.json"
        assert main(["multiply", desk_matrix, desk_matrix, "-o", str(out)]) == 0
        first = out.read_bytes()
        assert main(["multiply", desk_matrix, desk_matrix, "-o", str(out)]) == 0
        assert out.read_bytes() == first


#: kind -> entries of width n from a generator, for the conjugate bit tests:
#: Gaussian components; components mixing +0.0, -0.0 and magnitudes
#: 1e-8..1e8; subnormal ones, whose squares underflow; ones near 1e-150 and
#: near 1e150, the last refused since the scale's square overflows float64
CONJUGATE_INPUTS = {
    "gaussian": lambda rng, n: support.random_matrix(rng, n).entries,
    "signed-zeros": support.mixed_entries,
    "subnormal": lambda rng, n: support.random_matrix(rng, n, 1e-310).entries,
    "tiny": lambda rng, n: support.random_matrix(rng, n, 1e-150).entries,
    "huge": lambda rng, n: support.random_matrix(rng, n, 1e150).entries,
}


class TestConjugate:
    def test_imaginary_entry(self, tmp_path, capsys):
        src = write_json(
            tmp_path / "a.json", {"n": 1, "entries": [[[0, 0], [0, 0.5]], [[0, 0], [0, 0]]]}
        )
        assert main(["conjugate", src]) == 0
        out = json.loads(capsys.readouterr().out)
        got = np.array([[complex(*pair) for pair in row] for row in out["entries"]])
        assert np.max(np.abs(got - np.array([[0, 0], [-0.5j, 0]]))) < 1e-12

    def test_hermitian_fixed_point(self, tmp_path, capsys):
        src = write_json(
            tmp_path / "h.json", {"n": 1, "entries": [[[1, 0], [2, 3]], [[2, -3], [4, 0]]]}
        )
        assert main(["conjugate", src]) == 0
        out = json.loads(capsys.readouterr().out)
        got = np.array([[complex(*pair) for pair in row] for row in out["entries"]])
        assert np.max(np.abs(got - np.array([[1, 2 + 3j], [2 - 3j, 4]]))) < 1e-12

    def test_involution_through_files(self, tmp_path):
        rng = np.random.default_rng(233)
        entries = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        src = write_json(
            tmp_path / "m.json",
            {"n": 1, "entries": [[[v.real, v.imag] for v in row] for row in entries]},
        )
        once = tmp_path / "once.json"
        twice = tmp_path / "twice.json"
        assert main(["conjugate", src, "-o", str(once)]) == 0
        assert main(["conjugate", str(once), "-o", str(twice)]) == 0
        back = np.array(
            [[complex(*pair) for pair in row] for row in json.loads(twice.read_text())["entries"]]
        )
        assert np.max(np.abs(back - entries)) < 1e-12

    def test_runs_where_multiply_is_refused_for_memory(self, tmp_path, capsys, monkeypatch):
        # too little memory for a multiply at n = 2, plenty for the four
        # 4 x 4 complex arrays that conjugate holds
        monkeypatch.setattr(multiplier, "physical_memory_bytes", lambda: 67110432 - 1)
        entries = np.random.default_rng(239).normal(size=(4, 4, 2))
        src = write_json(tmp_path / "m.json", {"n": 2, "entries": entries.tolist()})
        assert main(["multiply", src, src]) == 2
        assert "needs 67110432 bytes" in capsys.readouterr().err
        assert main(["conjugate", src]) == 0
        out = json.loads(capsys.readouterr().out)
        got = np.array([[complex(*pair) for pair in row] for row in out["entries"]])
        expected = dagger_oracle(ComplexMatrix(2, entries[..., 0] + 1j * entries[..., 1]))
        assert np.max(np.abs(got - expected.entries)) < 1e-12

    def test_oversized_input_refused_before_preparing(self, tmp_path, capsys, monkeypatch):
        # physical memory one byte short of what conjugate holds at n = 2:
        # the parsed and the prepared entries, their conjugate transpose and
        # the result's copy, 16 * 16 bytes each, and the runtime
        monkeypatch.setattr(multiplier, "physical_memory_bytes", lambda: 67109888 - 1)

        def refused(*_args, **_kwargs):
            raise AssertionError("conjugate allocated before its preflight")

        monkeypatch.setattr(cli, "prepare", refused)
        entries = np.random.default_rng(241).normal(size=(4, 4, 2))
        src = write_json(tmp_path / "m.json", {"n": 2, "entries": entries.tolist()})
        assert main(["conjugate", src]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "needs 67109888 bytes" in captured.err

    @pytest.mark.parametrize("kind", sorted(CONJUGATE_INPUTS))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_is_the_full_register_chain_byte_for_byte(self, tmp_path, capsys, n, kind):
        matrix = ComplexMatrix(n, CONJUGATE_INPUTS[kind](np.random.default_rng(n), n))
        src = write_json(tmp_path / "m.json", matrix_to_obj(matrix))
        code = main(["conjugate", src])
        captured = capsys.readouterr()
        try:
            expected = (0, support.conjugate_reference(matrix), "")
        except ParameterError as exc:  # the scale's square overflows
            expected = (2, "", f"error: {exc}\n")
        assert (code, captured.out, captured.err) == expected
        assert code == (2 if kind == "huge" else 0)


class TestNoConstructorCopy:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_commands_print_the_same_bytes_without_the_constructor(self, tmp_path, capsys, monkeypatch, n):
        # every matrix that a command builds is a result the package has
        # just computed (ComplexMatrix._fresh): with the copying constructor
        # patched to raise, each command prints what it printed with it
        rng = np.random.default_rng(380 + n)
        a, b = (write_json(tmp_path / f"{name}.json", matrix_to_obj(support.random_matrix(rng, n))) for name in "ab")
        prepared = str(tmp_path / "p.json")
        assert main(["prepare", a, "-o", prepared]) == 0
        argvs = [["prepare", a], ["conjugate", b], ["estimate-g", a, prepared, "--shots", "1000"]]
        argvs += [["multiply", a, b, *flags] for flags in ([], ["--no-verify"])]
        argvs += [["multiply", prepared, b, *flags] for flags in ([], ["--dagger-a", "--dagger-b", "--swap-order"])]

        def session():
            return [(main(argv), capsys.readouterr()) for argv in argvs]

        want = session()

        def refuse(self):
            raise AssertionError("the copying constructor ran")

        monkeypatch.setattr(ComplexMatrix, "__post_init__", refuse)
        assert session() == want
        assert all(code == 0 for code, _ in want)


class TestEstimateG:
    def test_desk_case(self, desk_matrix, tmp_path, capsys):
        prepared = tmp_path / "p.json"
        assert main(["prepare", desk_matrix, "--c", "0.5", "-o", str(prepared)]) == 0
        assert main(["estimate-g", str(prepared), str(prepared), "--shots", "100000", "--seed", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["s1"] == pytest.approx(0.25, abs=1e-12)
        assert report["s1_tilde_exact"] == pytest.approx(2 / 3, abs=1e-12)
        assert report["g_exact"] == pytest.approx(math.sqrt(0.375), abs=1e-12)
        assert abs(report["g_hat"] - math.sqrt(0.375)) <= 5 * report["stderr"]
        assert report["nominal_runs"] == 100001

    def test_same_seed_identical_report(self, desk_matrix, capsys):
        assert main(["estimate-g", desk_matrix, desk_matrix, "--shots", "5000", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["estimate-g", desk_matrix, desk_matrix, "--shots", "5000", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_slack_free_input_exit_4(self, tmp_path, capsys):
        prepared = write_json(
            tmp_path / "nofreedom.json",
            {
                "n": 1,
                "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                "b": [0.0, 0.0],
                "s_original": 1.0,
                "c": 1.0,
            },
        )
        assert main(["estimate-g", prepared, prepared, "--shots", "10"]) == 4
        assert "undefined" in capsys.readouterr().err

    def test_c_option_equals_prepared_input(self, tmp_path, capsys):
        # estimate-g --c C on raw files estimates g for the operands that
        # prepare --c C writes, to the bit
        rng = np.random.default_rng(41)
        raw = [
            write_json(tmp_path / f"{name}.json", matrix_to_obj(ComplexMatrix(2, rng.normal(size=(4, 4)))))
            for name in "ab"
        ]
        prepared = [str(tmp_path / f"p{name}.json") for name in "ab"]
        for src, dst in zip(raw, prepared):
            assert main(["prepare", src, "--c", "0.7", "-o", dst]) == 0
        fields = tuple(f'  "{name}": ' for name in ("g_exact", "g_hat", "stderr"))
        reports = []
        for argv in ([*raw, "--c", "0.7"], prepared, raw):
            assert main(["estimate-g", *argv, "--shots", "3000", "--seed", "5"]) == 0
            lines = capsys.readouterr().out.splitlines()
            reports.append([line for line in lines if line.startswith(fields)])
        assert len(reports[0]) == len(fields)
        assert reports[0] == reports[1]
        assert reports[0] != reports[2]  # the default c = 1 prepares other operands

    def test_manipulation_flags(self, tmp_path, capsys):
        # every report's flags hold each argument of its command, keys in
        # the parser's order whatever the order on the command line
        rng = np.random.default_rng(43)
        matrices = [ComplexMatrix(2, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) for _ in "ab"]
        a, b = (write_json(tmp_path / f"{name}.json", matrix_to_obj(m)) for name, m in zip("ab", matrices))
        pm1, pm2 = (prepare(m, 1.0) for m in matrices)
        out = str(tmp_path / "report.json")
        for options, manips in (
            ([], set()),
            (["--dagger-a", "--swap-order"], {"dagger1", "swap_order"}),
            (["--dagger-b"], {"dagger2"}),
        ):
            operand_flags = [
                ("a", a),
                ("b", b),
                ("dagger_a", "dagger1" in manips),
                ("dagger_b", "dagger2" in manips),
                ("swap_order", "swap_order" in manips),
                ("c", 1.0),
            ]
            assert main(["estimate-g", "--seed", "2", a, b, *options, "--shots", "1000"]) == 0
            report = json.loads(capsys.readouterr().out)
            want = estimate_g(pm1, pm2, manips, shots=1000, seed=2)
            assert report["s1_tilde_exact"] == want.s1_tilde_exact
            assert report["g_hat"] == want.g_hat
            assert list(report["flags"].items()) == [*operand_flags, ("shots", 1000), ("seed", 2)]
            assert main(["multiply", "--no-verify", *options, a, b]) == 0
            report = json.loads(capsys.readouterr().out)
            assert list(report["flags"].items()) == [*operand_flags, ("verify", False), ("output", None)]
            assert main(["multiply", "-o", out, *options, a, b]) == 0
            report = json.loads(Path(out).read_text())
            assert list(report["flags"].items()) == [*operand_flags, ("verify", True), ("output", out)]
        assert main(["report", "--n", "2"]) == 0
        assert list(json.loads(capsys.readouterr().out)["flags"].items()) == [("n", 2)]

    def test_shots_beyond_int64_exit_2(self, desk_matrix, capsys):
        assert main(["estimate-g", desk_matrix, desk_matrix, "--shots", str(2**63)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "shots" in err

    def test_negative_seed_exit_2(self, desk_matrix, capsys):
        # numpy's generator refuses a negative seed with a ValueError, which
        # used to end the command in a traceback
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate-g", desk_matrix, desk_matrix, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a nonnegative integer, got -1\n"


#: each package error -> the exit code that the README documents for it
EXIT_CODES = {
    QampError: 2,
    DimensionError: 3,
    ParameterError: 2,
    ValidationError: 2,
    MeasurementError: 2,
    MethodUndefinedError: 4,
    EstimateUnavailableError: 4,
}


class TestExitCodes:
    @pytest.mark.parametrize("error", [QampError, *QampError.__subclasses__()], ids=lambda error: error.__name__)
    def test_each_package_error(self, monkeypatch, capsys, error):
        # a command that raises any package error, the base class too, exits
        # with its documented code and one error line, and writes no report
        def fail(_n):
            raise error("the message")

        monkeypatch.setattr(cli, "resource_report", fail)
        assert main(["report", "--n", "1"]) == EXIT_CODES[error]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the message\n"


class TestOutOfRangeInput:
    # every command on such a file ends in a named error with exit 2, even
    # with warnings raised as errors, and writes nothing to stdout
    COMMANDS = (("prepare", 1), ("multiply", 2), ("conjugate", 1), ("estimate-g", 2))

    def check_every_command(self, path, capsys, message):
        for command, operands in self.COMMANDS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command, *[path] * operands]) == 2, command
            captured = capsys.readouterr()
            assert captured.out == "", command
            assert captured.err.startswith("error: ") and message in captured.err, command

    def test_width_below_one_exit_2(self, tmp_path, capsys):
        # an n = 0 file parses and prepares, but no run takes it
        path = write_json(tmp_path / "z.json", {"n": 0, "entries": [[[0.3, 0.2]]]})
        for command, operands in (("multiply", 2), ("conjugate", 1), ("estimate-g", 2)):
            assert main([command, *[path] * operands]) == 2, command
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "",
                "error: matrix register width must be at least 1, got 0\n",
            ), command

    def test_overflowing_entries_exit_2(self, tmp_path, capsys):
        # the square of 1e308 overflows float64: the weight reads inf, with
        # no RuntimeWarning, and the scale check names the overflow
        doc = {"n": 1, "entries": [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        path = write_json(tmp_path / "big.json", doc)
        self.check_every_command(path, capsys, "the scale (s + c)^2 overflows float64 for s=inf")

    def test_integer_beyond_float64_exit_2(self, tmp_path, capsys):
        doc = {"n": 1, "entries": [[[10**400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        path = write_json(tmp_path / "big.json", doc)
        self.check_every_command(path, capsys, "entries[0][0] must fit in float64")

    def test_width_beyond_any_list_exit_2(self, tmp_path, capsys):
        # 2**n is never computed for such an n
        path = write_json(tmp_path / "wide.json", {"n": 10**30, "entries": []})
        self.check_every_command(path, capsys, f"list of 2**{10**30} rows")

    def test_overflowing_slack_exit_2(self, tmp_path, capsys):
        # |b| overflows float64; a prepared file is read by multiply and
        # estimate-g, while prepare and conjugate read only its matrix
        doc = {**IDENTITY_HALF, "b": [1e308, 1e308], "s_original": 0.5, "c": 0.5}
        path = write_json(tmp_path / "p.json", doc)
        for argv in (["multiply", path, path], ["estimate-g", path, path]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "|b|^2 + weight = inf deviates" in captured.err

    def test_unreadable_text_exit_2(self, tmp_path, capsys):
        cases = {
            "deep.json": "[" * 100_000 + "]" * 100_000,
            "digits.json": '{"n": 1' + "0" * 5000 + ', "entries": []}',
        }
        for name, text in cases.items():
            (tmp_path / name).write_text(text)
        (tmp_path / "bytes.json").write_bytes(b"\xff\xfe")
        for name in (*cases, "bytes.json"):
            path = str(tmp_path / name)
            self.check_every_command(path, capsys, f"{path} is not valid JSON")
        self.check_every_command(str(tmp_path), capsys, f"cannot read {tmp_path}")

    def test_c_is_checked_for_prepared_operands(self, desk_matrix, tmp_path, capsys):
        # both operands prepared: c goes unused but is echoed in the
        # report's flags, where inf or nan would not be JSON
        prepared = str(tmp_path / "p.json")
        assert main(["prepare", desk_matrix, "-o", prepared]) == 0
        for command in ("multiply", "estimate-g"):
            for value in ("inf", "nan", "0", "-1"):
                assert main([command, prepared, prepared, f"--c={value}"]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("error: slack parameter c must be positive and finite")

    @pytest.mark.parametrize("command, operands", [("prepare", 1), ("multiply", 2), ("estimate-g", 2)])
    def test_negative_c_in_exponent_form_is_named(self, desk_matrix, capsys, command, operands):
        # "--c VALUE" as two words: a negative value in exponent form, or a
        # negative infinity, must reach the c check rather than be read as
        # an unknown option ("expected one argument")
        for value in ("-1e-5", "-2.5E+3", "-.5e1", "-1", "-inf", "-Infinity", "-nan"):
            assert main([command, *[desk_matrix] * operands, "--c", value]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: slack parameter c must be positive and finite, got {float(value)}\n"

    def test_unwritable_output_exit_2(self, tmp_path, desk_matrix, capsys, monkeypatch):
        for command, operands in (("prepare", 1), ("multiply", 2), ("conjugate", 1)):
            assert main([command, *[desk_matrix] * operands, "-o", str(tmp_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(f"error: cannot write {tmp_path}")

        class FullStdout(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        # a full disk or a closed pipe on standard output: every command
        # names it with the usage exit code, not the verification one
        argvs = [[command, *[desk_matrix] * operands] for command, operands in self.COMMANDS]
        for argv in [*argvs, ["report", "--n", "1"]]:
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", FullStdout())
                assert main(argv) == 2, argv[0]
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"


#: floats at the edges of %.17g: signed zeros, the smallest subnormal, the
#: largest subnormal, the largest magnitudes, NaN and the infinities
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1.7976931348623157e308,
    math.nan, math.inf, -math.inf, 0.1,
]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    FLOATS,
    st.text(),
    st.text(alphabet='"\\\n\t/\x00\x7fé€\u2028😀ab'),
)


def float_array(shape):
    """Nested lists of floats of ``shape``, as a matrix's rows of [re, im]
    pairs are of shape (dim, dim, 2)."""
    if not shape:
        return FLOATS
    return st.lists(float_array(shape[1:]), min_size=shape[0], max_size=shape[0])


FLOAT_ARRAYS = st.lists(st.integers(1, 3), min_size=1, max_size=3).flatmap(float_array)
#: what every report is made of: nested dicts, empty ones included, whose
#: values are scalars, lists of scalars (empty ones included) and float
#: arrays
REPORTS = st.recursive(
    SCALARS | st.lists(SCALARS, max_size=4) | FLOAT_ARRAYS,
    lambda children: st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


class TestDumpJson:
    @settings(max_examples=400, deadline=None)
    @given(REPORTS)
    @example({"entries": [[[0.1, -0.0], [5e-324, 1e308]], [[math.nan, math.inf], [-math.inf, 1.0]]]})
    @example({"empty": [], "nested": {"none": {}}, "mixed": [1, 0.5, "a", None, True], "rows": [[0.5, 1.0]]})
    def test_is_the_reference_emitter_byte_for_byte(self, value):
        assert dump_json(value) == support.dump_json(value)

    @pytest.mark.parametrize(
        "value,kind",
        [
            (np.float64(0.5), "float64"),
            ((0.5, 1.0), "tuple"),
            ({"b_hat": [0.5, np.float64(1.0)]}, "float64"),
            ([[0.5, 1.0], (0.5, 1.0)], "tuple"),
            ([np.int64(1)], "int64"),
            ({"layouts": [{"n": 1}]}, "dict"),
            ([[1.0], [2.0, 3.0]], "list"),
        ],
        ids=[
            "numpy-float", "tuple", "numpy-float-in-list", "tuple-in-float-array", "numpy-int-in-list",
            "dict-in-list", "ragged-list",
        ],
    )
    def test_refuses_what_no_report_holds(self, value, kind):
        # a report holds exact dicts, lists, strs, ints, floats, bools and
        # None only, and its lists hold scalars or are float arrays of one
        # shape; any other value is named, not printed
        with pytest.raises(TypeError, match=f"^cannot serialize {kind}$"):
            dump_json(value)

    def test_reports_are_the_reference_emitter_byte_for_byte(self, tmp_path, capsys):
        path = write_json(tmp_path / "a.json", matrix_to_obj(support.random_matrix(np.random.default_rng(61), 2)))
        argvs = [
            ["prepare", path],
            ["multiply", path, path, "--dagger-b"],
            ["conjugate", path],
            ["estimate-g", path, path, "--shots", "1000"],
            ["report", "--n", "2"],
        ]
        for argv in argvs:
            assert main(argv) == 0
            text = capsys.readouterr().out
            assert text == support.dump_json(json.loads(text)), argv[0]


class TestReport:
    @pytest.mark.parametrize("n,qubits", [(1, 10), (2, 14), (3, 18)])
    def test_qubit_counts(self, n, qubits, capsys):
        assert main(["report", "--n", str(n)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["qubits"] == qubits

    def test_depth_linear_across_n(self, capsys):
        depths = {}
        for n in (1, 2, 3):
            assert main(["report", "--n", str(n)]) == 0
            depths[n] = json.loads(capsys.readouterr().out)["depth_total"]
        assert depths[3] - depths[2] == depths[2] - depths[1]

    def test_rejects_n_below_one(self, capsys):
        assert main(["report", "--n", "0"]) == 2


#: the modules of the full-register reference
REFERENCE_MODULES = ("qamp.statevector", "qamp.encoder", "qamp.conjugator")

#: run in a fresh interpreter with the commands' argument lists as JSON in
#: argv[1]: prints, as JSON, a [step, exit code, reference modules loaded
#: so far] triple after `import qamp`, `import qamp.cli` and each command
FRESH_SESSION = f"""
import contextlib, io, json, sys

def loaded():
    return [name for name in {REFERENCE_MODULES!r} if name in sys.modules]

import qamp
steps = [["import qamp", 0, loaded()]]
import qamp.cli
steps.append(["import qamp.cli", 0, loaded()])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = qamp.cli.main(argv)
    steps.append([" ".join(argv), code, loaded()])
print(json.dumps(steps))
"""


def _command_lines(a: str, p: str, n: int) -> list[list[str]]:
    """Every command once on matrix file ``a`` and prepared file ``p``
    of width ``n``: prepare -o, multiply with and without --no-verify
    under four flag sets, conjugate, estimate-g and report."""
    argvs = [["prepare", a, "-o", p]]
    every = ["--dagger-a", "--dagger-b", "--swap-order"]
    for flags in ([], ["--dagger-a"], ["--dagger-b", "--swap-order"], every):
        argvs += [["multiply", p, a, *flags], ["multiply", a, a, "--no-verify", *flags]]
    return argvs + [["conjugate", a], ["estimate-g", p, a, "--shots", "1000"], ["report", "--n", str(n)]]


class TestNoRegisterState:
    def test_no_command_imports_the_reference(self, tmp_path):
        # `import qamp`, `import qamp.cli` and every command, in a fresh
        # interpreter, leave each full-register module unloaded
        rng = np.random.default_rng(249)
        a = write_json(tmp_path / "a.json", matrix_to_obj(support.random_matrix(rng, 2)))
        argvs = _command_lines(a, str(tmp_path / "p.json"), 2)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
        done = subprocess.run(
            [sys.executable, "-c", FRESH_SESSION, json.dumps(argvs)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        steps = json.loads(done.stdout)
        assert len(steps) == 2 + len(argvs)
        assert steps == [[step, 0, []] for step, _code, _loaded in steps]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_command_builds_a_register_state(self, tmp_path, capsys, monkeypatch, n):
        # no command loads the register-state modules (the test above), and
        # only multiply, for its "layout" report field, looks up a layout
        def refused(*_args, **_kwargs):
            raise AssertionError("a command built a layout")

        rng = np.random.default_rng(250 + n)
        a = write_json(tmp_path / "a.json", matrix_to_obj(support.random_matrix(rng, n)))
        argvs = _command_lines(a, str(tmp_path / "p.json"), n)
        for argv in argvs[:-3]:
            assert main(argv) == 0, argv
        monkeypatch.setattr(registers, "_layout_for", refused)
        monkeypatch.setattr(cli, "layout_for", refused)
        for argv in argvs[-3:]:
            assert main(argv) == 0, argv
        capsys.readouterr()


class TestParser:
    def test_one_parser_per_process_keeps_no_parse_state(self, tmp_path, capsys):
        # main builds the parser once per process; each command must print
        # and return what it does on a freshly built parser, whatever the
        # commands before it set
        rng = np.random.default_rng(12)
        a, b = (
            write_json(tmp_path / f"{name}.json", matrix_to_obj(ComplexMatrix(2, rng.normal(size=(4, 4)))))
            for name in "ab"
        )
        commands = [
            ["multiply", a, b, "--no-verify", "--c", "0.8"],
            ["multiply", a, b],
            ["estimate-g", a, b, "--shots", "2000", "--seed", "3"],
        ]
        build_parser.cache_clear()
        shared = [(main(argv), capsys.readouterr().out) for argv in commands]
        assert build_parser.cache_info().misses == 1
        for argv, want in zip(commands, shared):
            build_parser.cache_clear()
            assert (main(argv), capsys.readouterr().out) == want
        assert "verify" not in json.loads(shared[0][1]) and "verify" in json.loads(shared[1][1])
