"""Fast checks of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py -q

Every workload runs for a few operations in both modes and must emit every
metric named in BENCHMARK.json with its unit.  Deliberately perturbed results
must be counted as failed, and a replay that differs from the untraced run
must stop the traced run.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402  (puts the checkout's src/ on the path first)
import replay  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

EXACT = (
    "statevector.state_bytes",
    "statevector.gates",
    "statevector.bytes_moved_computed",
    "statevector.peak_to_state",
    "estimator.shards",
    "multiplier.branch_probability",
)


def bench(workload, trace, seed=7, seconds=0.1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", ["small", "cli"])
def test_counts_repeat_exactly(workload):
    first, second = bench(workload, 1)["metrics"], bench(workload, 1)["metrics"]
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name


def test_inputs_follow_the_seed():
    a = workloads.make("small", 3, "")
    b = workloads.make("small", 3, "")
    c = workloads.make("small", 4, "")
    pm = lambda w: w.pool[0][2][0].prepared.matrix.entries  # noqa: E731
    assert pm(a).tobytes() == pm(b).tobytes() != pm(c).tobytes()


class Perturbed:
    """A workload whose outputs are altered after the timed call."""

    def __init__(self, inner, perturb):
        self.inner, self.perturb = inner, perturb

    def run(self, i):
        return self.perturb(self.inner.run(i))

    def check(self, i, output):
        return self.inner.check(i, output)


def _shift_first_entry(results):
    first = results[0]
    entries = first.matrix_hat.entries.copy()
    entries[0, 0] += 1e-6
    matrix_hat = dataclasses.replace(first.matrix_hat, entries=entries)
    return [dataclasses.replace(first, matrix_hat=matrix_hat)] + results[1:]


def _shift_branch(results):
    first = results[-1]
    return results[:-1] + [dataclasses.replace(first, branch_probability=first.branch_probability * (1 + 1e-6))]


@pytest.mark.parametrize("perturb", [_shift_first_entry, _shift_branch])
def test_perturbed_product_counts_as_failed(perturb):
    small = workloads.make("small", 5, "")
    stats = worker.new_stats()
    worker.attempt(small, 1, stats)
    worker.attempt(Perturbed(small, perturb), 1, stats)
    assert (stats["attempted"], stats["failed"]) == (2, 1)
    assert len(stats["latencies_ms"]) == 1


def _fail_verify(outputs):
    code, text = outputs["multiply"]
    return {**outputs, "multiply": (code, text.replace('"pass": true', '"pass": false'))}


def _shift_g_hat(outputs):
    code, text = outputs["estimate_g"]
    report = json.loads(text)
    report["g_hat"] = report["g_exact"] + 7 * report["stderr"]
    return {**outputs, "estimate_g": (code, json.dumps(report))}


def _exit_code(outputs):
    code, text = outputs["conjugate"]
    return {**outputs, "conjugate": (2, text)}


@pytest.mark.parametrize("perturb", [_fail_verify, _shift_g_hat, _exit_code])
def test_perturbed_cli_session_counts_as_failed(tmp_path, perturb):
    cli = workloads.make("cli", 5, str(tmp_path / "work"))
    try:
        stats = worker.new_stats()
        worker.attempt(cli, 1, stats)
        worker.attempt(Perturbed(cli, perturb), 1, stats)
    finally:
        cli.close()
    assert (stats["attempted"], stats["failed"]) == (2, 1)


def test_replay_mismatch_stops_the_trace():
    small = workloads.make("small", 5, "")
    results = small.run(1)
    replay.trace_op(small, 1, results, 1.0)
    with pytest.raises(replay.ReplayMismatch):
        replay.trace_op(small, 1, _shift_first_entry(results), 1.0)


def test_refuses_to_run_without_the_program(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench_dir / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
