"""Run a written list of mutants of src/qamp against tier-1 and the digest.

    python3 .github/mutants.py

Each mutant is one exact string replacement in one module of src/qamp,
and its text must occur there exactly once.  The checkout, without its
history and caches, is copied into a temporary directory once; the
unmutated copy must pass tier-1 and the digest, so that a broken copy
cannot pass for a killed mutant.  Then each mutant in turn is written into
the copy, tier-1 runs there with -x and, if it passes, the digest
(.github/digest.py); the mutant is killed when either exits nonzero, and
the module is restored before the next one.  Bytecode is not written, so
a restored module is never read from a mutant's stale cache.

Prints each mutant's name, what killed it and its time to be killed.
Exits 1 naming every mutant that survived or whose text did not occur
exactly once, 2 when the unmutated copy fails, and 0 otherwise.

A mutant that cannot change behaviour stays off the list: dropping the
zero mask of the squares (_squares) leaves an exactly rounded sum of the
same squares, since the extraction certifies each sum it returns and
counting the zeros only loosens its bound, so no check can kill it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: what the copy leaves out: history, caches and build output
IGNORED = (".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "build")

#: (name, module of src/qamp, text, replacement)
MUTANTS = (
    (
        "orientation: first operand's transpose bit inverted",
        "multiplier.py",
        "return ((swap == d1,",
        "return ((swap != d1,",
    ),
    (
        "orientation: second operand's conjugate bit read from dagger1",
        "multiplier.py",
        "d1 if swap else d2))",
        "d2 if swap else d1))",
    ),
    (
        "run_pipeline: the operand exchange's transpose dropped",
        "multiplier.py",
        "product = product.T",
        "product = product",
    ),
    (
        "w1: the scale as einsum's third operand, not applied once after the sum",
        "multiplier.py",
        "quarter = _matmul(first, second)\n    np.multiply(quarter, scale, out=quarter)",
        'quarter = np.einsum("lj,lk,->jk", first, second, scale)',
    ),
    (
        "apply_w1: each term scaled as it is added, not the sum once",
        "conjugator.py",
        "(out, x, out=out)\n        np.multiply(out, scale, out=out)",
        "(out, x * scale, out=out)",
    ),
    (
        "flag_and_measure: the real part adds where w2 subtracts",
        "multiplier.py",
        "np.subtract(quarter[:, 0, :, 0]",
        "np.add(quarter[:, 0, :, 0]",
    ),
    (
        "flag_and_measure: the imaginary part subtracts where w2 adds",
        "multiplier.py",
        "np.add(quarter[:, 1, :, 0]",
        "np.subtract(quarter[:, 1, :, 0]",
    ),
    (
        "flag_and_measure: the slack's real part adds where w2 subtracts",
        "multiplier.py",
        "pairs[-1] = c00 - c11",
        "pairs[-1] = c00 + c11",
    ),
    (
        "operand reader: a conjugated operand's entries not conjugated",
        "multiplier.py",
        'np.conjugate(entries, order="C") if conjugated',
        "np.ascontiguousarray(entries) if conjugated",
    ),
    (
        "operand reader: a conjugated operand's slack keeps its sign",
        "multiplier.py",
        "-pm.b.imag if conjugated",
        "pm.b.imag if conjugated",
    ),
    (
        "weight: the uncertified candidate returned",
        "multiplier.py",
        "if low == math.fsum((*parts, rest, bound)):\n            return low",
        "return math.fsum((*parts, rest))",
    ),
    (
        "weight: the fallback's squares taken unsorted",
        "multiplier.py",
        "squares.sort()",
        "squares.view()",
    ),
    (
        "weight: magnitudes summed instead of squares",
        "multiplier.py",
        "np.multiply(squares, squares, out=squares)",
        "np.abs(squares, out=squares)",
    ),
    (
        "oracle: the first dagger flag inverted",
        "multiplier.py",
        'd1 = "dagger1" in manips',
        'd1 = "dagger1" not in manips',
    ),
    (
        "oracle: the second dagger flag inverted",
        "multiplier.py",
        'd2 = "dagger2" in manips',
        'd2 = "dagger2" not in manips',
    ),
    (
        "estimator: the slack's imaginary square dropped from the K1 = 0 weight",
        "estimator.py",
        "slack.real * slack.real + slack.imag * slack.imag",
        "slack.real * slack.real",
    ),
    (
        "estimator: p_hat over one shot too many",
        "estimator.py",
        "p_hat = zeros / shots",
        "p_hat = zeros / (shots + 1)",
    ),
    (
        "estimator: stderr without the delta method's 1/2",
        "estimator.py",
        "stderr = 0.5 * math.sqrt(s1 / p)",
        "stderr = math.sqrt(s1 / p)",
    ),
    (
        "emitter: floats printed to 16 digits",
        "cli.py",
        '_FLOAT = "%.17g"',
        '_FLOAT = "%.16g"',
    ),
    (
        "multiply: the verify compare always passes",
        "cli.py",
        "ok = result.oracle_error <= ORACLE_TOL",
        "ok = True",
    ),
    (
        "statevector: non-finite amplitudes taken",
        "statevector.py",
        "if not np.isfinite(arr).all():",
        "if False:",
    ),
    (
        "integer rule: a bool taken as an integer",
        "errors.py",
        "isinstance(value, bool) or not isinstance(value, (int, np.integer))",
        "not isinstance(value, (int, np.integer))",
    ),
    (
        "real rule: a bool taken as a real number",
        "errors.py",
        "isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))",
        "not isinstance(value, (int, float, np.integer, np.floating))",
    ),
    (
        "width rule: a width of 0 taken",
        "errors.py",
        "if n < 1:",
        "if n < 0:",
    ),
    (
        "ComplexMatrix: a bool entry taken as a number",
        "complexmat.py",
        "np.number)) and not issubclass(kind, bool)",
        "np.number))",
    ),
    (
        "prepare: the slack is 1 - w, not its square root",
        "complexmat.py",
        "mag = math.sqrt(1.0 - w)",
        "mag = 1.0 - w",
    ),
    (
        "prepare: entries scaled by 1/sqrt(s + c), not 1/(s + c)",
        "complexmat.py",
        "a.entries / (s + c)",
        "a.entries / math.sqrt(s + c)",
    ),
    (
        "cli: a dimension mismatch exits 2, not 3",
        "cli.py",
        "EXIT_DIMENSION = 3",
        "EXIT_DIMENSION = 2",
    ),
    (
        "cli: an estimate that cannot be formed exits 2, not 4",
        "cli.py",
        "isinstance(exc, (MethodUndefinedError, EstimateUnavailableError))",
        "isinstance(exc, MethodUndefinedError)",
    ),
    (
        "cli: a report's flags keep the command name",
        "cli.py",
        'name not in ("command", "func")',
        'name != "func"',
    ),
    (
        "memory check: a run that needs exactly the physical memory refused",
        "multiplier.py",
        "if needed > available:",
        "if needed >= available:",
    ),
)


def run(cmd, cwd: Path, env) -> bool:
    """Whether ``cmd`` exits 0 in ``cwd``; its output is discarded."""
    done = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def checks(copy: Path, env) -> str | None:
    """Tier-1 with -x, then the digest if tier-1 passed: the name of the
    first check that fails, or None when both pass."""
    tier1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    if not run(tier1, copy, env):
        return "tier-1"
    if not run([sys.executable, ".github/digest.py"], copy, env):
        return "digest"
    return None


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="qamp-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*IGNORED))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        failed = checks(copy, env)
        print(f"unmutated copy: {failed or 'passes'} ({time.perf_counter() - start:.1f} s)", flush=True)
        if failed:
            return 2
        survivors = []
        for name, module, text, replacement in MUTANTS:
            path = copy / "src" / "qamp" / module
            source = path.read_text()
            if source.count(text) != 1:
                print(f"{name}: text occurs {source.count(text)} times in {module}", flush=True)
                survivors.append(name)
                continue
            path.write_text(source.replace(text, replacement))
            start = time.perf_counter()
            try:
                killer = checks(copy, env)
            finally:
                path.write_text(source)
            seconds = time.perf_counter() - start
            print(f"{name}: {f'killed by {killer}' if killer else 'SURVIVED'} ({seconds:.1f} s)", flush=True)
            if not killer:
                survivors.append(name)
    if survivors:
        print("not killed:\n" + "\n".join(f"  {name}" for name in survivors))
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
