import json
import math

import numpy as np
import pytest

from qamp import encoder, multiplier
from qamp.cli import build_parser, main
from qamp.complexmat import ComplexMatrix, dagger_oracle, matrix_to_obj

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
        # physical memory reported one byte short of an n = 2 run's peak: two
        # 10-qubit cone states, the 6-qubit payload block and the runtime
        monkeypatch.setattr(encoder, "physical_memory_bytes", lambda: 67125760 - 1)
        entries = [[[0.1 * (j + k), 0.0] for k in range(4)] for j in range(4)]
        a = write_json(tmp_path / "a.json", {"n": 2, "entries": entries})
        assert main(["multiply", a, a]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "needs 67125760 bytes" in err

    def test_prepared_file_inconsistent_scale_exit_2(self, tmp_path, capsys):
        # the desk file records s_original = 0.5; with 5.0 the rescaled
        # product would silently come out 30.25 times too large
        doc = {**IDENTITY_HALF, "b": [math.sqrt(0.5), 0.0], "s_original": 5.0, "c": 0.5}
        prepared = write_json(tmp_path / "bad.json", doc)
        assert main(["multiply", prepared, prepared]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "disagree with the entries" in err

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

    def test_runs_on_the_operands_own_registers(self, tmp_path, capsys, monkeypatch):
        # too little memory for a multiply at n = 2, plenty for the 2n+2
        # qubits of one operand
        monkeypatch.setattr(encoder, "physical_memory_bytes", lambda: 67125760 - 1)
        entries = np.random.default_rng(239).normal(size=(4, 4, 2))
        src = write_json(tmp_path / "m.json", {"n": 2, "entries": entries.tolist()})
        assert main(["multiply", src, src]) == 2
        assert "needs 67125760 bytes" in capsys.readouterr().err
        assert main(["conjugate", src]) == 0
        out = json.loads(capsys.readouterr().out)
        got = np.array([[complex(*pair) for pair in row] for row in out["entries"]])
        expected = dagger_oracle(ComplexMatrix(2, entries[..., 0] + 1j * entries[..., 1]))
        assert np.max(np.abs(got - expected.entries)) < 1e-12


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

    def test_shots_beyond_int64_exit_2(self, desk_matrix, capsys):
        assert main(["estimate-g", desk_matrix, desk_matrix, "--shots", str(2**63)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "shots" in err


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
