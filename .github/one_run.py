"""One run_pipeline and one estimate_g at width n with all three
manipulations, checked.

    PYTHONPATH=src python3 .github/one_run.py N

Exits 1 unless the decoded product matches the oracle within ORACLE_TOL,
the branch weight is g^2 / 2^(n+1) to 1e-12 relative, the estimator's
exact K1 = 0 weight, read off the flagged payload, is |b1 b2|^2 / g^2 to
1e-12 relative (10^4 shots, seed 0), and ru_maxrss, the whole process's
peak resident size, stays under the bytes the memory preflight asked for.
Both weights fall with n (the branch weight like 2^-(n+1)), so an absolute
bound would check less at every larger n; the relative drift measured at
n = 1..10 is at most 2.4e-16.  Prints the run's wall time beside those of
its own oracle call and of the estimate.
"""

import resource
import sys
import time

import numpy as np

from qamp import (
    ORACLE_TOL,
    ComplexMatrix,
    estimate_g,
    layout_for,
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
# the estimate runs first: beside each run the process holds only the
# operands and small results, as peak_bytes allows for
start = time.perf_counter()
est = estimate_g(pm1, pm2, manips, shots=10**4, seed=0)
estimate_wall = time.perf_counter() - start
start = time.perf_counter()
res = run_pipeline(pm1, pm2, manips)
wall = time.perf_counter() - start
start = time.perf_counter()
expected, b = oracle_product(pm1, pm2, manips)
oracle_wall = time.perf_counter() - start
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
g2 = abs(b) ** 2 + expected.weight()
branch, s1_tilde = g2 / 2 ** (n + 1), abs(pm1.b * pm2.b) ** 2 / g2
drift = abs(res.branch_probability - branch) / branch
s1_drift = abs(est.s1_tilde_exact - s1_tilde) / s1_tilde
needed = peak_bytes(layout_for(n))
print(
    f"n={n} wall {wall:.3f} s, oracle_product {oracle_wall:.3f} s, estimate_g {estimate_wall:.3f} s, "
    f"ru_maxrss {maxrss} of {needed} bytes asked, oracle_error {res.oracle_error:.3e}, "
    f"relative branch drift {drift:.3e}, relative s1_tilde drift {s1_drift:.3e}"
)
ok = res.oracle_error <= ORACLE_TOL and drift <= 1e-12 and s1_drift <= 1e-12 and maxrss < needed
sys.exit(0 if ok else 1)
