"""Hold the weight to math.fsum of the squares on 10^5 seeded views.

    PYTHONPATH=src python3 .github/weight_sweep.py [COUNT]

Draws COUNT views (10^5 by default) of sizes 0 to 2^12 from the families of
tests/weights.py: Gaussian, magnitudes over 320 binades, powers of two,
70 % zeros, subnormal squares and overflowing ones.  Each view's
qamp.multiplier._weight must give the bits of math.fsum of its nonzero
squares, or raise what that raises.  Prints, per family, the views, the
calls that fell back to the sorted math.fsum and the time spent in
_weight, and exits 1 naming the first mismatches, 0 otherwise.  Tier-1
runs a bounded slice of the same views (test_multiplier.py::TestWeight).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from qamp import multiplier  # noqa: E402
from weights import FAMILIES, outcome, reference, views  # noqa: E402

count = int(sys.argv[1]) if len(sys.argv) > 1 else 10**5
fallbacks = []
sorted_fsum = multiplier._sorted_fsum


def counted(view):
    fallbacks.append(view.size)
    return sorted_fsum(view)


multiplier._sorted_fsum = counted
stats = {name: [0, 0, 0.0] for name in FAMILIES}  # views, fallbacks, seconds
mismatches = []
start = time.perf_counter()
for index, (name, view) in enumerate(views(20261021, count)):
    before = len(fallbacks)
    tic = time.perf_counter()
    got = outcome(multiplier._weight, view)
    seconds = time.perf_counter() - tic
    stats[name][0] += 1
    stats[name][1] += len(fallbacks) - before
    stats[name][2] += seconds
    want = outcome(reference, view)
    if got != want:
        mismatches.append(f"view {index} ({name}, {view.size} values): {got} instead of {want}")
for name, (seen, fell, seconds) in stats.items():
    print(f"{name:12} {seen:7} views, {fell:6} fell back, {seconds:7.3f} s in _weight")
print(
    f"{count} views, {len(fallbacks)} fell back, {sum(s for _, _, s in stats.values()):.2f} s in _weight, "
    f"{time.perf_counter() - start:.1f} s in all, {len(mismatches)} mismatches"
)
for line in mismatches[:10]:
    print(line)
sys.exit(1 if mismatches else 0)
