"""One `qamp conjugate` at width n through cli.main, held bit for bit to
the full-register chain.

    PYTHONPATH=src python3 .github/one_conjugate.py N

Writes a seeded Gaussian matrix of width N to a temporary file, runs
``conjugate`` on it through ``cli.main`` and compares its standard output
byte for byte with the full-register chain's: the matrix prepared with
c = 1, encoded on its own 2n + 2 qubits (M1, R1, C1, K1), run through
``hermitian_conjugate``, read back, multiplied by the scale and emitted by
``cli.dump_json``.  Exits 1 unless the command exits 0 and the bytes are
equal.  Prints the command's wall time and ru_maxrss, the whole process's
peak resident size when the command returns.
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

from qamp import ComplexMatrix, prepare
from qamp.conjugator import hermitian_conjugate
from qamp.registers import layout_for
from qamp.cli import dump_json, main
from qamp.complexmat import matrix_to_obj
from qamp.encoder import EncodedBlock, encode, read_block

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

pm = prepare(matrix, 1.0)
layout = layout_for(n).without("M2", "R2", "C2", "K2", "B", "BT")
block = EncodedBlock.for_side(layout, "first")
decoded, _b = read_block(hermitian_conjugate(encode(pm, "first", layout), block), block)
expected = dump_json(matrix_to_obj(ComplexMatrix(n, decoded.entries * pm.scale)))
same = out.getvalue() == expected
print(
    f"n={n} conjugate exit {code}, wall {wall:.3f} s, ru_maxrss {maxrss} bytes, "
    f"{'equal to' if same else 'DIFFERENT from'} the full-register chain"
)
sys.exit(0 if code == 0 and same else 1)
