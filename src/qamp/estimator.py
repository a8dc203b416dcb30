"""Recovery of the normalization factor lost to the conditional measurement.

The slack weight of the two operands is known classically from preparation.
On the flagged output state the slack branch (payload flag K1 = 0) carries
that weight divided by the squared normalization factor, so measuring K1
over many runs recovers the factor as a square-root ratio.  The measurement
destroys the product state, so one extra run is nominally needed to keep it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexmat import PreparedMatrix
from .conjugator import apply_q
from .errors import EstimateUnavailableError, MethodUndefinedError, ParameterError
from .multiplier import (
    _check_manipulations,
    apply_w0,
    apply_w1,
    apply_w2,
    apply_w3,
    build_initial,
    conditional_measure,
)
from .registers import layout_for

#: shots per sampling shard; the shard split is a function of shots alone
SHARD_SIZE = 25_000


@dataclass
class GEstimate:
    """Exact and sampled ingredients of the normalization estimate."""

    s1: float
    s1_tilde_exact: float
    s1_tilde_sampled: float
    g_hat: float
    shots: int
    seed: int
    stderr: float

    @property
    def g_exact(self) -> float:
        return math.sqrt(self.s1 / self.s1_tilde_exact)

    @property
    def nominal_runs(self) -> int:
        """Sampling runs plus the final run that keeps the product state."""
        return self.shots + 1


def _shard_sizes(shots: int) -> list[int]:
    full, rem = divmod(shots, SHARD_SIZE)
    sizes = [SHARD_SIZE] * full
    if rem:
        sizes.append(rem)
    return sizes


def _sample_zero_count(p_zero: float, shots: int, seed: int) -> int:
    """Total zero-outcome count over deterministic shards.

    The shard split depends only on ``shots`` and each draw only on a seed
    spawned from ``seed``, so the total is a fixed function of both.  Each
    shard is one binomial draw of microseconds, drawn serially.
    """
    sizes = _shard_sizes(shots)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    p = min(1.0, max(0.0, p_zero))
    return sum(
        int(np.random.default_rng(child).binomial(size, p)) for size, child in zip(sizes, seeds)
    )


def estimate_g(
    pm1: PreparedMatrix,
    pm2: PreparedMatrix,
    manipulations=(),
    shots: int = 100_000,
    seed: int = 0,
) -> GEstimate:
    """Estimate the lost normalization factor from repeated flag measurements.

    One pipeline run supplies the exact flagged state; each shot is
    conceptually a fresh run and is drawn here from the exact K1 marginal,
    which has the identical distribution at a fraction of the cost.
    """
    manips = _check_manipulations(manipulations)
    if shots < 1:
        raise ParameterError(f"shots must be at least 1, got {shots}")
    s1 = float(abs(pm1.b * pm2.b) ** 2)
    if s1 == 0.0:
        raise MethodUndefinedError(
            "slack product is zero for these inputs, the recovery ratio is undefined"
        )
    layout = layout_for(pm1.n)
    state = build_initial(pm1, pm2, layout)
    if "swap_order" in manips:
        state = apply_q(state, 3, layout)
    if "dagger2" in manips:
        state = apply_q(state, 2, layout)
    if "dagger1" in manips:
        state = apply_q(state, 1, layout)
    state = apply_w0(state, layout)
    state = apply_w1(state, layout)
    state = apply_w2(state, layout)
    state = apply_w3(state, layout)
    state, _branch = conditional_measure(state, layout)

    s1_tilde_exact = state.probability(layout.start("K1"), 0)
    zeros = _sample_zero_count(s1_tilde_exact, shots, seed)
    if zeros == 0:
        raise EstimateUnavailableError(
            f"no zero outcomes in {shots} shots, cannot form the recovery ratio",
            counts={0: 0, 1: shots},
        )
    p_hat = zeros / shots
    g_hat = math.sqrt(s1 / p_hat)
    # delta-method propagation of the binomial standard error through sqrt(s1/p)
    stderr = 0.5 * g_hat * math.sqrt((1.0 - p_hat) / (p_hat * shots))
    return GEstimate(
        s1=s1,
        s1_tilde_exact=float(s1_tilde_exact),
        s1_tilde_sampled=p_hat,
        g_hat=g_hat,
        shots=int(shots),
        seed=int(seed),
        stderr=stderr,
    )
