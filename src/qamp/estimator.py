"""Recovery of the normalization factor lost to the conditional measurement.

The slack weight of the two operands is known classically from preparation.
On the flagged output state the slack branch (payload flag K1 = 0) carries
that weight divided by the squared normalization factor, so measuring K1
over many runs recovers the factor as a square-root ratio.  The measurement
destroys the product state, so one extra run is nominally needed to keep it.

The shots are independent draws from the exact K1 marginal, which is read
off the flagged payload's K1 = 0 slab as an exactly rounded weight, so their
zero-outcome count is one binomial draw, a fixed function of (shots, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexmat import PreparedMatrix
from .errors import EstimateUnavailableError, MethodUndefinedError, ParameterError
from .multiplier import _check_manipulations, flagged_state
from .statevector import _weight

#: no longer used for sampling, which is one draw; kept only because the
#: benchmark's replay reports ceil(shots / SHARD_SIZE) as ``estimator.shards``
SHARD_SIZE = 25_000

#: largest shot count the binomial draw accepts (an int64)
MAX_SHOTS = np.iinfo(np.int64).max


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


def _sample_zero_count(p_zero: float, shots: int, seed: int) -> int:
    """Zero-outcome count of ``shots`` draws with probability ``p_zero``."""
    p = min(1.0, max(0.0, p_zero))
    return int(np.random.default_rng(seed).binomial(shots, p))


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
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ParameterError(f"shots must be an integer, got {shots!r}")
    if not 1 <= shots <= MAX_SHOTS:
        raise ParameterError(f"shots must be between 1 and {MAX_SHOTS}, got {shots}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed!r}")
    s1 = float(abs(pm1.b * pm2.b) ** 2)
    if s1 == 0.0:
        raise MethodUndefinedError(
            "slack product is zero for these inputs, the recovery ratio is undefined"
        )
    payload, _branch = flagged_state(pm1, pm2, manips)

    s1_tilde_exact = _weight(payload[0])
    zeros = _sample_zero_count(s1_tilde_exact, shots, seed)
    if zeros == 0:
        raise EstimateUnavailableError(
            f"no zero outcomes in {shots} shots, cannot form the recovery ratio",
            counts={0: 0, 1: shots},
        )
    p_hat = zeros / shots
    g_hat = math.sqrt(s1 / p_hat)
    # delta-method propagation of the binomial standard error through
    # sqrt(s1/p); with every shot on K1 = 0 it would read 0 and claim an
    # exact result, so it is then taken half a shot short of p = 1
    p, q = (p_hat, 1.0 - p_hat) if zeros < shots else (1.0 - 0.5 / shots, 0.5 / shots)
    stderr = 0.5 * math.sqrt(s1 / p) * math.sqrt(q / (p * shots))
    return GEstimate(
        s1=s1,
        s1_tilde_exact=float(s1_tilde_exact),
        s1_tilde_sampled=p_hat,
        g_hat=g_hat,
        shots=int(shots),
        seed=int(seed),
        stderr=stderr,
    )
