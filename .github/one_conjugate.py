"""One `qamp conjugate` at width n through cli.main, held bit for bit to
the full-register chain.

    PYTHONPATH=src python3 .github/one_conjugate.py N

Writes a seeded Gaussian matrix of width N to a temporary file, runs
``conjugate`` on it through ``cli.main`` and compares its standard output
byte for byte with the full-register chain's, which
``tests/support.conjugate_reference`` writes: the matrix prepared with
c = 1, encoded on its own 2n + 2 qubits (M1, R1, C1, K1), run through
``hermitian_conjugate``, read back, multiplied by the scale and emitted.
Exits 1 unless the command exits 0 and the bytes are equal.  Prints the
command's wall time and ru_maxrss, the whole process's peak resident size
when the command returns.
"""

import contextlib
import io
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from qamp import ComplexMatrix  # noqa: E402
from qamp.cli import main  # noqa: E402
from qamp.complexmat import matrix_to_obj  # noqa: E402
from support import conjugate_reference  # noqa: E402

n = int(sys.argv[1])
rng = np.random.default_rng(n)
dim = 1 << n
matrix = ComplexMatrix(n, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "m.json"
    path.write_text(json.dumps(matrix_to_obj(matrix)))
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["conjugate", str(path)])
    wall = time.perf_counter() - start
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

same = out.getvalue() == conjugate_reference(matrix)
print(
    f"n={n} conjugate exit {code}, wall {wall:.3f} s, ru_maxrss {maxrss} bytes, "
    f"{'equal to' if same else 'DIFFERENT from'} the full-register chain"
)
sys.exit(0 if code == 0 and same else 1)
