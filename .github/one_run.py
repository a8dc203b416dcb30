"""One run_pipeline and one estimate_g at width n with all three
manipulations, checked.

    PYTHONPATH=src python3 .github/one_run.py N

Exits 1 unless the decoded product matches the oracle within the
forward-error bound of a float64 product of two dim x dim matrices,
(2 dim + 8) 2^-53 ||A1||_F ||A2||_F with both norms taken from the
prepared weights, the branch weight is g^2 / 2^(n+1) to 1e-12 relative,
the estimator's exact K1 = 0 weight, the squared magnitude of the flagged
branch's slack, is |b1 b2|^2 / g^2 to 1e-12 relative (10^4 shots, seed
0), and ru_maxrss, the whole process's peak resident size, stays under
the bytes the memory preflight asked for (multiplier.peak_bytes).
Both weights fall with n (the branch weight like 2^-(n+1)), so an absolute
bound would check less at every larger n; the relative drift measured at
n = 1..10 is at most 2.4e-16.  So do the product's entries, since prepare
scales each operand by 1/(s + c): at n = 10 the largest is 5.3e-11, so
the absolute ORACLE_TOL = 1e-10 would pass an all-zero or a transposed
product, while the bound reads 1.1e-19 there.  Prints the run's wall time
beside those of its own oracle call and of the estimate, each with the
process's CPU time over it (time.process_time, all threads), the
OPENBLAS_NUM_THREADS it ran under, and the oracle error beside its bound.
CPU time well above wall time shows a BLAS worker thread spinning beside
the run.

At n = 5 the decoded product and the oracle's under each of the eight
manipulation sets are also held to the exact product formed in rational
arithmetic by tests/exact.py, within the same normwise bound and within
its entrywise bound (2 dim + 8) 2^-53 (|X||Y|)_jk on each entry; the worst
ratio of an error to each bound over the eight sets is printed.  The
rational products take about 1.5 s a set.
"""

import itertools
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from qamp import (
    ComplexMatrix,
    estimate_g,
    oracle_product,
    prepare,
    run_pipeline,
)
from qamp.multiplier import peak_bytes

n, manips = int(sys.argv[1]), {"dagger1", "dagger2", "swap_order"}
rng = np.random.default_rng(n)
dim = 1 << n
pm1, pm2 = (
    prepare(ComplexMatrix(n, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))), 1.0)
    for _ in range(2)
)


def timed(call, *args, **kwargs):
    """``call``'s result, its wall time and the process's CPU time over it,
    in seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    result = call(*args, **kwargs)
    return result, time.perf_counter() - wall, time.process_time() - cpu


# the estimate runs first: beside each run the process holds only the
# operands and small results, as peak_bytes allows for
est, estimate_wall, estimate_cpu = timed(estimate_g, pm1, pm2, manips, shots=10**4, seed=0)
res, wall, cpu = timed(run_pipeline, pm1, pm2, manips)
(expected, b), oracle_wall, oracle_cpu = timed(oracle_product, pm1, pm2, manips)
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
g2 = abs(b) ** 2 + expected.weight()
branch, s1_tilde = g2 / 2 ** (n + 1), abs(pm1.b * pm2.b) ** 2 / g2
drift = abs(res.branch_probability - branch) / branch
s1_drift = abs(est.s1_tilde_exact - s1_tilde) / s1_tilde
needed = peak_bytes(n)
bound = (2 * dim + 8) * 2.0**-53 * math.sqrt(pm1.matrix.weight()) * math.sqrt(pm2.matrix.weight())
print(
    f"n={n} OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}: wall (CPU) "
    f"run {wall:.3f} s ({cpu:.3f} s), oracle_product {oracle_wall:.3f} s ({oracle_cpu:.3f} s), "
    f"estimate_g {estimate_wall:.3f} s ({estimate_cpu:.3f} s), "
    f"ru_maxrss {maxrss} of {needed} bytes asked, oracle_error {res.oracle_error:.3e} of bound {bound:.3e}, "
    f"relative branch drift {drift:.3e}, relative s1_tilde drift {s1_drift:.3e}"
)
ok = res.oracle_error <= bound and drift <= 1e-12 and s1_drift <= 1e-12 and maxrss < needed
if n == 5:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from exact import entry_bounds, entry_errors, exact_product

    # per set, the ratio of the worst error to the normwise and to the entrywise bound
    ratios = {"run": [], "oracle": []}
    for subset in itertools.chain.from_iterable(itertools.combinations(sorted(manips), r) for r in range(4)):
        exact = exact_product(pm1.matrix, pm2.matrix, subset)
        bounds = entry_bounds(pm1.matrix, pm2.matrix, subset)
        run = run_pipeline(pm1, pm2, subset, verify=False).matrix_hat
        for name, got in (("run", run), ("oracle", oracle_product(pm1, pm2, subset)[0])):
            errors = entry_errors(got, exact)
            entrywise = max(e / b for rows in zip(errors, bounds) for e, b in zip(*rows))
            ratios[name].append((max(map(max, errors)) / bound, entrywise))
    worst = {name: [max(column) for column in zip(*pairs)] for name, pairs in ratios.items()}
    print(
        f"n={n} worst error to the exact product over all eight sets, over the normwise and the entrywise "
        f"bound: run {worst['run'][0]:.3e} and {worst['run'][1]:.3e}, "
        f"oracle {worst['oracle'][0]:.3e} and {worst['oracle'][1]:.3e}"
    )
    ok = ok and max(worst["run"] + worst["oracle"]) <= 1.0
sys.exit(0 if ok else 1)
