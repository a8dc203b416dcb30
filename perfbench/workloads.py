"""The benchmark's workloads: seeded inputs, the timed operation and its check.

Each workload is a closed loop with one client: the next operation starts
only after the previous one has returned and been checked.  Inputs are drawn
from the seed by this module alone; qamp receives only the generated matrices
(and, for the ``cli`` workload, the JSON files written from them).

Operations call qamp only through ``run_pipeline``, ``estimate_g`` and
``cli.main``, so end-to-end numbers stay comparable when stages inside the
program are fused or removed.  The checks run outside the timed interval and
hold every result against the classical oracle.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os

import numpy as np

from qamp import cli
from qamp.complexmat import ORACLE_TOL, ComplexMatrix, dagger_oracle, prepare
from qamp.multiplier import oracle_product, run_pipeline

MANIPULATIONS = ("dagger1", "dagger2", "swap_order")
#: every subset of the manipulations, smallest first
SUBSETS = tuple(
    frozenset(combo) for r in range(4) for combo in itertools.combinations(MANIPULATIONS, r)
)
#: tolerance on the normalization law g^2 = |b|^2 + sum |m|^2 and on the branch weight
LAW_TOL = 1e-10
#: the sampled normalization factor must lie within this many standard errors
G_SIGMAS = 6.0
#: input sets drawn per run; operation i uses set i mod POOL
POOL = 4


class Operand:
    """A raw random matrix, its slack parameter and the prepared form qamp gets."""

    def __init__(self, rng: np.random.Generator, n: int, phase: bool):
        dim = 1 << n
        entries = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        self.matrix = ComplexMatrix(n, entries)
        # c above 1/4 so the strict weight bound is always satisfiable
        self.c = float(rng.uniform(0.3, 2.0))
        self.b_phase = float(rng.uniform(0.0, 2.0 * np.pi)) if phase and rng.integers(0, 2) else None
        self.prepared = prepare(self.matrix, self.c, b_phase=self.b_phase)


def check_product(pm1, pm2, manips, result) -> str | None:
    """Why a ``run_pipeline`` result is wrong, or None when it is right.

    The decoded product and slack must match the oracle within ORACLE_TOL.
    The normalization law must hold on the decoded values and on the
    oracle's, and the branch weight must equal g^2 / 2^(n+1).
    """
    expected, expected_b = oracle_product(pm1, pm2, manips)
    err = max(
        float(np.max(np.abs(result.matrix_hat.entries - expected.entries))),
        abs(result.b_hat - expected_b),
    )
    if not err <= ORACLE_TOL:
        return f"oracle error {err:.3e} exceeds {ORACLE_TOL} for {sorted(manips)}"
    g2 = result.g_exact**2
    decoded = abs(result.b_hat) ** 2 + float(np.sum(np.abs(result.matrix_hat.entries) ** 2))
    oracle = abs(expected_b) ** 2 + float(np.sum(np.abs(expected.entries) ** 2))
    law = max(abs(g2 - decoded), abs(g2 - oracle))
    if not law <= LAW_TOL:
        return f"normalization law defect {law:.3e} exceeds {LAW_TOL}"
    branch = abs(result.branch_probability - oracle / 2 ** (pm1.n + 1))
    if not branch <= LAW_TOL:
        return f"branch weight defect {branch:.3e} exceeds {LAW_TOL}"
    return None


class PipelineWorkload:
    """One operation is ``run_pipeline`` over every (n, manipulation set) pair,
    each on operand pair i mod POOL of that width."""

    def __init__(self, seed: int, ns, subsets):
        rng = np.random.default_rng(seed)
        self.ns = tuple(ns)
        self.subsets = tuple(subsets)
        self.pool = [
            {n: (Operand(rng, n, True), Operand(rng, n, True)) for n in self.ns}
            for _ in range(POOL)
        ]

    def calls(self, i: int):
        pairs = self.pool[i % POOL]
        return [(*pairs[n], manips) for n in self.ns for manips in self.subsets]

    def run(self, i: int):
        return [run_pipeline(a.prepared, b.prepared, manips) for a, b, manips in self.calls(i)]

    def check(self, i: int, results) -> str | None:
        for (a, b, manips), result in zip(self.calls(i), results):
            reason = check_product(a.prepared, b.prepared, manips, result)
            if reason:
                return f"n={a.matrix.n}: {reason}"
        return None

    def close(self) -> None:
        pass


def _matrix_doc(m: ComplexMatrix) -> str:
    rows = [[[float(v.real), float(v.imag)] for v in row] for row in m.entries]
    return json.dumps({"n": m.n, "entries": rows})


def entries_of(doc: dict) -> np.ndarray:
    """Entries of a matrix document as a complex array."""
    return np.array([[complex(re, im) for re, im in row] for row in doc["entries"]])


def run_command(argv) -> tuple[int, str]:
    """One in-process ``qamp`` command; returns its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class CliWorkload:
    """One operation is a ``cli.main`` session at n=2 of four commands:
    prepare, multiply --verify, conjugate and estimate-g."""

    N = 2
    SHOTS = 10_000_000

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.pool = [(Operand(rng, self.N, False), Operand(rng, self.N, False)) for _ in range(POOL)]
        self.texts = {}
        for j, pair in enumerate(self.pool):
            for label, operand in zip("AB", pair):
                text = _matrix_doc(operand.matrix)
                with open(self.path(f"{label}{j}.json"), "w", encoding="utf-8") as fh:
                    fh.write(text)
                self.texts[label, j] = text

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def sampling_seed(self, i: int) -> int:
        return self.seed * 1_000_003 + i

    def commands(self, i: int):
        """(name, argv) of the session's commands, in order."""
        j = i % POOL
        a, b = self.pool[j]
        a_path, b_path = self.path(f"A{j}.json"), self.path(f"B{j}.json")
        prepared = self.path(f"A{j}_prepared.json")
        return [
            ("prepare", ["prepare", a_path, "--c", repr(a.c), "-o", prepared]),
            ("multiply", ["multiply", prepared, b_path, "--c", repr(b.c), "--verify"]),
            ("conjugate", ["conjugate", a_path]),
            (
                "estimate_g",
                ["estimate-g", a_path, b_path, "--shots", str(self.SHOTS),
                 "--seed", str(self.sampling_seed(i))],
            ),
        ]

    def calls(self, i: int):
        """The session's ``run_pipeline`` call, made by its multiply command."""
        a, b = self.pool[i % POOL]
        return [(a, b, frozenset())]

    def run(self, i: int) -> dict:
        return {name: run_command(argv) for name, argv in self.commands(i)}

    def prepared_text(self, i: int) -> str:
        with open(self.path(f"A{i % POOL}_prepared.json"), encoding="utf-8") as fh:
            return fh.read()

    def check(self, i: int, outputs: dict) -> str | None:
        for name, (code, _text) in outputs.items():
            if code != 0:
                return f"{name} exited {code}"
        a, b = self.pool[i % POOL]
        report = json.loads(outputs["multiply"][1])
        if report.get("verify", {}).get("pass") is not True:
            return "multiply report does not pass its own verification"
        expected, _b = oracle_product(a.prepared, b.prepared, ())
        err = float(np.max(np.abs(entries_of(report["matrix_hat"]) - expected.entries)))
        if not err <= ORACLE_TOL:
            return f"multiply oracle error {err:.3e} exceeds {ORACLE_TOL}"
        conjugated = entries_of(json.loads(outputs["conjugate"][1]))
        err = float(np.max(np.abs(conjugated - dagger_oracle(a.matrix).entries)))
        if not err <= ORACLE_TOL:
            return f"conjugate error {err:.3e} exceeds {ORACLE_TOL}"
        est = json.loads(outputs["estimate_g"][1])
        if not abs(est["g_hat"] - est["g_exact"]) <= G_SIGMAS * est["stderr"]:
            return f"g_hat {est['g_hat']} is more than {G_SIGMAS} stderr from g_exact {est['g_exact']}"
        return None

    def close(self) -> None:
        for name in os.listdir(self.workdir):
            os.remove(self.path(name))
        os.rmdir(self.workdir)


def make(name: str, seed: int, workdir: str):
    """Generate the named workload's inputs from ``seed``."""
    if name == "small":
        return PipelineWorkload(seed, (1, 2), SUBSETS)
    if name == "wide":
        return PipelineWorkload(seed, (4,), (frozenset(MANIPULATIONS),))
    if name == "cli":
        return CliWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
