"""A seeded sha256 over the results of run_pipeline, oracle_product and
estimate_g, and over the bytes of the qamp commands.

    PYTHONPATH=src python3 .github/digest.py [--no-check]

For each n = 1..8 one operand pair is drawn from a seed fixed by n: about
a quarter of its entries' components are +0.0 or -0.0, and its slack
amplitudes are complex.  Under every subset of the three
manipulations the digest takes the bytes of run_pipeline's matrix_hat,
b_hat, g_exact, branch_probability and oracle_error, of estimate_g's s1,
s1_tilde_exact, s1_tilde_sampled, g_hat and stderr (10^5 shots, seed 7),
and of oracle_product's entries and slack.  It then takes the exit code,
standard output and written file of each qamp command of a seeded session
at n = 1..4, run through cli.main in a temporary directory on relative
paths, so that no checkout path enters the bytes: prepare -o, multiply
under every manipulation set with --verify and with --no-verify,
conjugate, estimate-g (10^5 shots, seed 7) and report.  A change that keeps
every result and every output byte prints the same digest as its parent;
one that moves a result by one bit, or a report by one byte, prints
another.

The digest is a gate: it exits 1, printing both digests, when it differs
from the one committed in .github/digest.sha256, and --no-check only prints
it.  That value was taken with numpy 2.4.6: np.abs of complex numbers and
the binomial stream are not promised stable across numpy releases, so the
check belongs on that numpy.  A change that moves results on purpose
commits the new digest beside it.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import sys
import tempfile
import time

import numpy as np

from qamp import ComplexMatrix, cli, estimate_g, oracle_product, prepare, run_pipeline
from qamp.multiplier import MANIPULATIONS

EXPECTED = pathlib.Path(__file__).with_name("digest.sha256")


def components(rng, n):
    """Real and imaginary parts of a matrix, about a quarter of them +-0.0."""
    dim = 1 << n
    parts = rng.normal(size=(2, dim, dim))
    zeros = rng.random(size=parts.shape) < 0.25
    parts[zeros] = np.copysign(0.0, rng.choice([-1.0, 1.0], size=int(zeros.sum())))
    return parts


def operand(rng, n):
    """A prepared matrix whose components are about a quarter +-0.0."""
    parts = components(rng, n)
    return prepare(ComplexMatrix(n, parts[0] + 1j * parts[1]), rng.uniform(0.3, 2.0), rng.uniform(0.0, 6.0))


def matrix_file(rng, n, path):
    """Write a matrix document of :func:`components` to ``path``."""
    parts = components(rng, n)
    entries = np.stack(parts, axis=-1).tolist()
    pathlib.Path(path).write_text(json.dumps({"n": n, "entries": entries}), encoding="utf-8")


def session(rng, n):
    """Write the session's matrix files a.json and b.json at width n to the
    working directory; returns (argv, written file or None) of each of its
    commands."""
    c_a, c_b = repr(rng.uniform(0.3, 2.0)), repr(rng.uniform(0.3, 2.0))
    matrix_file(rng, n, "a.json")
    matrix_file(rng, n, "b.json")
    commands = [(["prepare", "a.json", "--c", c_a, "-o", "ap.json"], "ap.json")]
    options = sorted(cli.MANIPULATION_OPTIONS.values())
    for r in range(len(options) + 1):
        for chosen in itertools.combinations(options, r):
            flags = ["--" + option.replace("_", "-") for option in chosen]
            for verify in ("--verify", "--no-verify"):
                commands.append((["multiply", "ap.json", "b.json", "--c", c_b, *flags, verify], None))
    commands.append((["conjugate", "a.json"], None))
    seeded = ["--shots", "100000", "--seed", "7"]
    commands.append((["estimate-g", "a.json", "b.json", "--c", c_a, *seeded], None))
    commands.append((["report", "--n", str(n)], None))
    return commands


def hash_cli(digest) -> int:
    """Feed ``digest`` the exit code, standard output and written file of
    every command of the sessions at n = 1..4; returns the command count."""
    count = 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for n in range(1, 5):
                for argv, written in session(np.random.default_rng(9100 + n), n):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli.main(argv)
                    digest.update(f"{code}\n{out.getvalue()}".encode("utf-8"))
                    if written:
                        digest.update(pathlib.Path(written).read_bytes())
                    count += 1
        finally:
            os.chdir(home)
    return count


def floats(*values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Seeded sha256 over run_pipeline, oracle_product, estimate_g and the CLI."
    )
    parser.add_argument("--no-check", action="store_true", help=f"do not compare with {EXPECTED.name}")
    args = parser.parse_args()
    digest = hashlib.sha256()
    runs = 0
    start = time.perf_counter()
    for n in range(1, 9):
        rng = np.random.default_rng(9000 + n)
        pm1, pm2 = operand(rng, n), operand(rng, n)
        for r in range(len(MANIPULATIONS) + 1):
            for manips in itertools.combinations(sorted(MANIPULATIONS), r):
                res = run_pipeline(pm1, pm2, manips)
                digest.update(res.matrix_hat.entries.tobytes())
                digest.update(floats(res.b_hat.real, res.b_hat.imag, res.g_exact))
                digest.update(floats(res.branch_probability, res.oracle_error))
                est = estimate_g(pm1, pm2, manips, shots=10**5, seed=7)
                digest.update(floats(est.s1, est.s1_tilde_exact, est.s1_tilde_sampled))
                digest.update(floats(est.g_hat, est.stderr))
                expected, expected_b = oracle_product(pm1, pm2, manips)
                digest.update(expected.entries.tobytes())
                digest.update(floats(expected_b.real, expected_b.imag))
                runs += 1
    commands = hash_cli(digest)
    elapsed = time.perf_counter() - start
    print(
        f"sha256 {digest.hexdigest()} over {runs} runs at n = 1..8 and {commands} "
        f"commands at n = 1..4, {elapsed:.1f} s"
    )
    if args.no_check:
        return 0
    expected = EXPECTED.read_text().strip()
    if digest.hexdigest() != expected:
        print(f"digest mismatch: got {digest.hexdigest()}, {EXPECTED.name} holds {expected}")
        return 1
    print(f"matches {EXPECTED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
