import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest

from qamp import (
    ComplexMatrix,
    EstimateUnavailableError,
    MethodUndefinedError,
    ParameterError,
    PreparedMatrix,
    estimate_g,
    prepare,
    run_pipeline,
)
from qamp.conjugator import apply_w0, apply_w1, apply_w2, apply_w3, conditional_measure
from qamp.encoder import EncodedBlock, decode
from qamp.multiplier import MANIPULATIONS
from qamp.registers import layout_for
from support import manipulated_build, mixed_entries, prepared_from_tilde, random_prepared


def desk_pair():
    pm = prepared_from_tilde([[0.5, 0], [0, 0.5]])
    return pm, pm


class TestEstimateG:
    def test_desk_case_exact_quantities(self):
        pm1, pm2 = desk_pair()
        est = estimate_g(pm1, pm2, shots=1000, seed=5)
        assert est.s1 == pytest.approx(0.25, abs=1e-12)
        assert est.s1_tilde_exact == pytest.approx(2 / 3, abs=1e-12)
        assert est.g_exact == pytest.approx(math.sqrt(0.375), abs=1e-12)
        assert est.nominal_runs == 1001

    def test_desk_case_sampled_within_five_stderr(self):
        pm1, pm2 = desk_pair()
        est = estimate_g(pm1, pm2, shots=100_000, seed=11)
        assert abs(est.g_hat - est.g_exact) <= 5 * est.stderr

    def test_deterministic_for_fixed_seed(self):
        pm1, pm2 = desk_pair()
        a = estimate_g(pm1, pm2, shots=60_000, seed=21)
        b = estimate_g(pm1, pm2, shots=60_000, seed=21)
        assert a == b

    def test_exact_identity_random_inputs(self):
        rng = np.random.default_rng(211)
        for n in (1, 2, 3):
            pm1 = random_prepared(rng, n, complex_b=True)
            pm2 = random_prepared(rng, n, complex_b=True)
            est = estimate_g(pm1, pm2, shots=10, seed=1)
            g2 = est.g_exact**2
            assert est.s1_tilde_exact * g2 == pytest.approx(est.s1, abs=1e-10)

    def test_consistency_with_pipeline_g(self):
        rng = np.random.default_rng(223)
        pm1 = random_prepared(rng, 2)
        pm2 = random_prepared(rng, 2)
        est = estimate_g(pm1, pm2, shots=200_000, seed=17)
        res = run_pipeline(pm1, pm2)
        assert est.g_exact == pytest.approx(res.g_exact, abs=1e-10)
        assert abs(est.g_hat - res.g_exact) <= 5 * est.stderr

    def test_manipulations_do_not_change_s1(self):
        rng = np.random.default_rng(227)
        pm1 = random_prepared(rng, 1, complex_b=True)
        pm2 = random_prepared(rng, 1, complex_b=True)
        plain = estimate_g(pm1, pm2, shots=100, seed=2)
        daggered = estimate_g(pm1, pm2, {"dagger1", "dagger2"}, shots=100, seed=2)
        assert daggered.s1 == plain.s1

    def test_all_slack_counts_every_shot(self):
        # zero matrices leave the whole flagged weight on K1 = 0
        zero = prepared_from_tilde([[0, 0], [0, 0]])
        est = estimate_g(zero, zero, shots=7, seed=0)
        assert est.s1_tilde_exact == 1.0
        assert est.s1_tilde_sampled == 1.0 and est.g_hat == est.g_exact

    def test_all_slack_stderr_is_half_a_shot_short(self):
        # every shot lands on K1 = 0, where the delta method would claim an
        # exact result; the error is taken at p = 1 - 1/(2 shots) instead
        zero = prepared_from_tilde([[0, 0], [0, 0]])
        for shots in (7, 10**6):
            est = estimate_g(zero, zero, shots=shots, seed=0)
            assert est.s1_tilde_sampled == 1.0
            p = 1.0 - 1.0 / (2 * shots)
            want = 0.5 * math.sqrt(est.s1 / p) * math.sqrt((1.0 - p) / (p * shots))
            assert est.stderr == pytest.approx(want, rel=1e-9)
            assert est.stderr > 0.0

    def test_stderr_with_a_one_outcome_is_the_delta_method(self):
        pm1, pm2 = desk_pair()
        est = estimate_g(pm1, pm2, shots=1000, seed=5)
        p = est.s1_tilde_sampled
        assert p < 1.0
        assert est.stderr == 0.5 * est.g_hat * math.sqrt((1.0 - p) / (p * est.shots))

    def test_zero_slack_is_method_undefined(self):
        # a degenerate carrier: the full weight sits in the entries, b = 0
        degenerate = PreparedMatrix(ComplexMatrix(1, [[1.0, 0], [0, 0]]), 0.0, 1.0, 1.0)
        healthy = prepared_from_tilde([[0.5, 0], [0, 0.5]])
        with pytest.raises(MethodUndefinedError):
            estimate_g(degenerate, healthy, shots=10, seed=0)

    def test_zero_counts_is_estimate_unavailable(self):
        # slack so tiny that no zero outcome ever appears in a small sample
        eps = 1e-8
        near_full = prepared_from_tilde([[math.sqrt(1 - eps), 0], [0, 0]])
        with pytest.raises(EstimateUnavailableError):
            estimate_g(near_full, near_full, shots=1000, seed=3)

    def test_shots_validation(self):
        pm1, pm2 = desk_pair()
        with pytest.raises(ParameterError):
            estimate_g(pm1, pm2, shots=0, seed=0)
        # one past the largest count a single binomial draw takes
        with pytest.raises(ParameterError, match="shots"):
            estimate_g(pm1, pm2, shots=2**63, seed=0)
        est = estimate_g(pm1, pm2, shots=2**63 - 1, seed=0)
        assert abs(est.g_hat - est.g_exact) <= 5 * est.stderr
        # a count of draws is an integer: 1.5 would draw one shot and
        # divide by 1.5
        for shots in (1.5, 10.0, True, "10"):
            with pytest.raises(ParameterError, match=f"^shots must be an integer, not a bool, got {shots!r}$"):
                estimate_g(pm1, pm2, shots=shots, seed=0)
        assert estimate_g(pm1, pm2, shots=np.int64(10), seed=0).shots == 10

    def test_seed_validation(self):
        # numpy's generator takes only nonnegative integer seeds; anything
        # else is refused by name before the run
        pm1, pm2 = desk_pair()
        for seed in (-1, -(2**70)):
            with pytest.raises(ParameterError, match=f"^seed must be a nonnegative integer, got {seed!r}$"):
                estimate_g(pm1, pm2, shots=10, seed=seed)
        for seed in (1.5, True):
            with pytest.raises(ParameterError, match=f"^seed must be an integer, not a bool, got {seed!r}$"):
                estimate_g(pm1, pm2, shots=10, seed=seed)
        for seed in (0, np.int64(3), 2**70):
            assert estimate_g(pm1, pm2, shots=10, seed=seed).seed == seed


class TestSlackBits:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_slack_results_are_the_full_register_chains(self, n):
        # the estimate's exact K1 = 0 weight and the run's b_hat, both read
        # off the flagged branch's one slack amplitude, against the full
        # register chain, bit for bit: the K1 = 0 probability after the
        # conditional measurement, and the decoded slack times g.  The
        # entries' components mix +-0.0 with magnitudes of either sign, and
        # the slacks are complex or have a +0.0 or -0.0 component
        layout = layout_for(n)
        rng = np.random.default_rng(4300 + n)
        pms = [prepare(ComplexMatrix(n, mixed_entries(rng, n)), 0.75) for _ in range(2)]
        forms = (
            lambda m: complex(m, -0.0),
            lambda m: complex(-0.0, m),
            lambda m: complex(0.0, -m),
            lambda m: m * cmath.exp(2j),
        )
        for i, j in zip(range(4), (1, 2, 3, 3)):
            pm1, pm2 = (dataclasses.replace(pm, b=form(pm.b.real)) for pm, form in zip(pms, (forms[i], forms[j])))
            for r in range(4):
                for manips in itertools.combinations(sorted(MANIPULATIONS), r):
                    state = manipulated_build(pm1, pm2, layout, manips)
                    for stage in (apply_w0, apply_w1, apply_w2, apply_w3):
                        state = stage(state, layout)
                    state, branch = conditional_measure(state, layout)
                    g = math.sqrt(branch * float(1 << (n + 1)))
                    _matrix, b, _residual = decode(state, EncodedBlock.pipeline_output(layout))
                    s1_tilde = state.probability(layout.start("K1"), 0)
                    est = estimate_g(pm1, pm2, manips, shots=10, seed=0)
                    res = run_pipeline(pm1, pm2, manips, verify=False)
                    case = (i, j, manips)
                    assert np.array([est.s1_tilde_exact]).tobytes() == np.array([s1_tilde]).tobytes(), case
                    assert np.array([res.b_hat]).tobytes() == np.array([b * g]).tobytes(), case
