"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is pinned here, nothing is deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest

from qamp import dagger_oracle, estimate_g, oracle_product, resource_report, run_pipeline
from qamp.encoder import EncodedBlock, decode, encode
from qamp.conjugator import hermitian_conjugate
from qamp.registers import layout_for
from qamp.conjugator import apply_w0, apply_w1, apply_w2, apply_w3, build_initial
from support import prepared_from_tilde, random_prepared
from bruteforce import bf_initial_state, bf_pipeline_matrices

CRITERION_SETS = [
    frozenset(),
    frozenset({"dagger1"}),
    frozenset({"dagger2"}),
    frozenset({"dagger1", "dagger2"}),
    frozenset({"swap_order"}),
    frozenset({"swap_order", "dagger2", "dagger1"}),
]

PAIRS_PER_N = 50


def report(number, name, ok, detail):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def criterion_runs():
    """Shared runs for criteria 1 and 2: 50 random prepared pairs per n in
    {1, 2, 3}, each under all six manipulation sets."""
    rng = np.random.default_rng(20250810)
    runs = []
    started = time.perf_counter()
    for n in (1, 2, 3):
        for _ in range(PAIRS_PER_N):
            pm1 = random_prepared(rng, n, complex_b=bool(rng.integers(0, 2)))
            pm2 = random_prepared(rng, n, complex_b=bool(rng.integers(0, 2)))
            for manips in CRITERION_SETS:
                runs.append((n, manips, pm1, pm2, run_pipeline(pm1, pm2, manips)))
    return runs, time.perf_counter() - started


def test_criterion_1_oracle_equivalence(criterion_runs):
    runs, elapsed = criterion_runs
    worst = 0.0
    for n, manips, pm1, pm2, res in runs:
        worst = max(worst, res.oracle_error)
        expected, expected_b = oracle_product(pm1, pm2, manips)
        worst = max(worst, float(np.max(np.abs(res.matrix_hat.entries - expected.entries))))
    ok = worst < 1e-10 and elapsed < 60.0
    report(
        1,
        "oracle equivalence",
        ok,
        f"{len(runs)} runs, max entrywise error {worst:.3e} < 1e-10, {elapsed:.1f}s < 60s",
    )


def test_criterion_2_normalization_law(criterion_runs):
    runs, _ = criterion_runs
    worst_g = 0.0
    worst_branch = 0.0
    for n, manips, pm1, pm2, res in runs:
        total = abs(res.b_hat) ** 2 + float(np.sum(np.abs(res.matrix_hat.entries) ** 2))
        worst_g = max(worst_g, abs(res.g_exact**2 - total))
        worst_branch = max(
            worst_branch, abs(res.branch_probability - res.g_exact**2 / 2 ** (n + 1))
        )
    ok = worst_g < 1e-10 and worst_branch < 1e-10
    report(
        2,
        "normalization law",
        ok,
        f"max |g^2 - (|b|^2 + sum)| {worst_g:.3e}, max branch defect {worst_branch:.3e}, tol 1e-10",
    )


def test_criterion_3_desk_case_exactness():
    pm = prepared_from_tilde([[0.5, 0], [0, 0.5]])
    res = run_pipeline(pm, pm)
    est = estimate_g(pm, pm, shots=100, seed=0)
    errs = {
        "matrix": float(np.max(np.abs(res.matrix_hat.entries - 0.25 * np.eye(2)))),
        "b_hat": abs(res.b_hat - 0.5),
        "g": abs(res.g_exact - math.sqrt(0.375)),
        "branch": abs(res.branch_probability - 3 / 32),
        "s1_tilde": abs(est.s1_tilde_exact - 2 / 3),
    }
    worst = max(errs.values())
    report(3, "desk case exactness", worst < 1e-12, f"max deviation {worst:.3e} < 1e-12")


def test_criterion_4_conjugation_involution_and_correctness():
    rng = np.random.default_rng(414)
    worst_invol = 0.0
    worst_dagger = 0.0
    for i in range(100):
        n = 1 + i % 3
        layout = layout_for(n)
        block = EncodedBlock.for_side(layout, "first")
        pm = random_prepared(rng, n, complex_b=bool(rng.integers(0, 2)))
        sv = encode(pm, "first", layout)
        once = hermitian_conjugate(sv, block)
        twice = hermitian_conjugate(once, block)
        worst_invol = max(worst_invol, float(np.max(np.abs(twice.amplitudes - sv.amplitudes))))
        matrix, b, _ = decode(once, block)
        expected = dagger_oracle(pm.matrix)
        worst_dagger = max(worst_dagger, float(np.max(np.abs(matrix.entries - expected.entries))))
        worst_dagger = max(worst_dagger, abs(b - pm.b.conjugate()))
    ok = worst_invol < 1e-12 and worst_dagger < 1e-12
    report(
        4,
        "conjugation involution and correctness",
        ok,
        f"100 states, involution {worst_invol:.3e}, dagger {worst_dagger:.3e}, tol 1e-12",
    )


def test_criterion_5_bruteforce_unitary_equivalence_n1():
    rng = np.random.default_rng(515)
    layout = layout_for(1)
    pm1 = random_prepared(rng, 1, complex_b=True)
    pm2 = random_prepared(rng, 1, complex_b=True)
    stages = bf_pipeline_matrices(1)
    product = stages[3] @ stages[2] @ stages[1] @ stages[0]  # 1024 x 1024
    expected = product @ bf_initial_state(pm1, pm2, 1)
    sv = build_initial(pm1, pm2, layout)
    for stage in (apply_w0, apply_w1, apply_w2, apply_w3):
        sv = stage(sv, layout)
    worst = float(np.max(np.abs(sv.amplitudes - expected)))
    report(5, "brute-force unitary equivalence at n=1", worst < 1e-12, f"max amplitude diff {worst:.3e} < 1e-12")


def test_criterion_6_shot_estimator():
    rng = np.random.default_rng(616)
    worst_ratio = 0.0
    for i in range(20):
        n = 1 + i % 2
        pm1 = random_prepared(rng, n)
        pm2 = random_prepared(rng, n)
        est = estimate_g(pm1, pm2, shots=100_000, seed=1000 + i)
        ratio = abs(est.g_hat - est.g_exact) / est.stderr
        worst_ratio = max(worst_ratio, ratio)
    report(
        6,
        "shot estimator",
        worst_ratio <= 5.0,
        f"20 instances, worst |g_hat - g_exact| = {worst_ratio:.2f} stderr <= 5 stderr",
    )


def test_criterion_7_resource_scaling():
    ok = True
    for n in range(1, 7):
        rep = resource_report(n)
        ok &= rep.qubits == 4 * n + 6
        ok &= rep.qubits_with_controls == 4 * n + 9
    depths = [resource_report(n).depth_total for n in range(1, 7)]
    diffs = {b - a for a, b in zip(depths, depths[1:])}
    ok &= len(diffs) == 1  # exactly affine growth
    ok &= depths[3] / depths[1] <= 2.5  # depth(n=4) / depth(n=2)
    report(
        7,
        "resource scaling",
        ok,
        f"qubits 4n+6 (+3) for n=1..6, depths {depths} affine, depth(4)/depth(2) = {depths[3]/depths[1]:.2f}",
    )


def test_criterion_8_encoding_round_trip():
    rng = np.random.default_rng(818)
    worst_entry = 0.0
    worst_residual = 0.0
    for n in (1, 2, 3):
        layout = layout_for(n)
        block = EncodedBlock.for_side(layout, "first")
        for _ in range(100):
            pm = random_prepared(rng, n, complex_b=bool(rng.integers(0, 2)))
            matrix, b, residual = decode(encode(pm, "first", layout), block)
            worst_entry = max(worst_entry, float(np.max(np.abs(matrix.entries - pm.matrix.entries))))
            worst_entry = max(worst_entry, abs(b - pm.b))
            worst_residual = max(worst_residual, residual)
    ok = worst_entry < 1e-14 and worst_residual < 1e-14
    report(
        8,
        "encoding round trip",
        ok,
        f"300 matrices, max round-trip error {worst_entry:.3e} < 1e-14, max residual {worst_residual:.3e} < 1e-14",
    )
