"""One run_pipeline at width n with all three manipulations, checked.

    PYTHONPATH=src python3 .github/one_run.py N

Exits 1 unless the decoded product matches the oracle within ORACLE_TOL,
the branch weight is g^2 / 2^(n+1) to 1e-10 and ru_maxrss, the whole
process's peak resident size, stays under the bytes the memory preflight
asked for.  Prints the run's wall time beside that of its own oracle call.
"""

import resource
import sys
import time

import numpy as np

from qamp import ORACLE_TOL, ComplexMatrix, layout_for, oracle_product, prepare, run_pipeline
from qamp.multiplier import peak_bytes

n, manips = int(sys.argv[1]), {"dagger1", "dagger2", "swap_order"}
rng = np.random.default_rng(n)
dim = 1 << n
pm1, pm2 = (
    prepare(ComplexMatrix(n, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))), 1.0)
    for _ in range(2)
)
start = time.perf_counter()
res = run_pipeline(pm1, pm2, manips)
wall = time.perf_counter() - start
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
start = time.perf_counter()
expected, b = oracle_product(pm1, pm2, manips)
oracle_wall = time.perf_counter() - start
g2 = abs(b) ** 2 + expected.weight()
drift = abs(res.branch_probability - g2 / 2 ** (n + 1))
needed = peak_bytes(layout_for(n))
print(
    f"n={n} wall {wall:.3f} s, oracle_product {oracle_wall:.3f} s, ru_maxrss {maxrss} of "
    f"{needed} bytes asked, oracle_error {res.oracle_error:.3e}, branch drift {drift:.3e}"
)
sys.exit(0 if res.oracle_error <= ORACLE_TOL and drift <= 1e-10 and maxrss < needed else 1)
