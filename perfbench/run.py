"""qamp benchmark: closed-loop workloads checked against the classical oracle.

    python3 perfbench/run.py --workload {small,wide,cli} --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file, and nothing needs building.  Each run starts fresh
worker processes (``worker.py``), so peak RSS and set-up time belong to the
workload alone.

The ``small`` workload (per-call overhead at n=1 and 2) runs like the others
but is left out of BENCHMARK.json: it is bound by interpreted Python, whose
speed on a shared 2-CPU machine swung enough that the median of ten 30 s
runs spread by 0.31 of itself, beyond any bound the benchmark may set.

``--trace 0`` reports the end-to-end metrics of one untraced closed loop of
``--seconds`` seconds, with set-up time as the median over SETUP_RUNS fresh
processes.  ``--trace 1`` reports the per-layer metrics of a separate run
that replays every operation stage by stage (see ``replay.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
machine context, the latency tail and the failure ratio.  Those two are not
metrics of BENCHMARK.json: ``wide`` completes too few operations in a run to
have a tail, and the failure ratio is 0 whenever every operation verifies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("small", "wide", "cli")
#: fresh processes whose set-up is timed per untraced run
SETUP_RUNS = 5
#: a run ends, with every worker stopped, within this many seconds
DEADLINE_S = 170.0
#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10
#: the tail is omitted when it would sit below this percentile
TAIL_MIN_PERCENTILE = 90.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _cache_sizes() -> dict:
    """Unified and data cache sizes by level, from sysfs."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _mem_available_mb() -> float | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def python_loop_ms() -> float:
    """Median time of 15 runs of a fixed pure-Python loop: how fast this
    machine runs interpreted code right now, recorded so that runs from busy
    and quiet periods of a shared machine can be told apart."""
    times = []
    for _ in range(15):
        start = time.perf_counter()
        total = 0.0
        for _ in range(100_000):
            total += 1.0
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def machine_context(loop_ms: float) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "caches": _cache_sizes(),
        "mem_available_mb": _mem_available_mb(),
        "python_loop_ms": loop_ms,
        "note": "statevector.bytes_moved_computed is computed from array sizes, not measured: "
        "the n=4 state (64 MiB) can sit in a large L3, so it is no DRAM bandwidth figure",
    }


def run_worker(mode: str, args, deadline: float) -> dict:
    """One fresh worker process; raises RuntimeError when it fails."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, args.workload,
           str(args.seed), repr(args.seconds)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError(f"no time left for a {mode} worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode} worker did not finish within {remaining:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def latency_tail(latencies) -> dict:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Omitted, not replaced by the maximum, when the run has too few
    operations for that percentile to reach TAIL_MIN_PERCENTILE.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    percentile = 100.0 * (count - TAIL_BEYOND) / count
    if percentile < TAIL_MIN_PERCENTILE:
        return {"omitted": f"{count} operations are too few for a tail", "samples": count}
    return {"value_ms": ordered[count - TAIL_BEYOND - 1], "percentile": percentile, "samples": count}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, deadline: float):
    setups = [run_worker("setup", args, deadline) for _ in range(SETUP_RUNS - 1)]
    run = run_worker("measure", args, deadline)
    latencies = run["latencies_ms"]
    if not latencies:
        raise RuntimeError("no operation was verified")
    metrics = {
        "throughput_ops_s": metric(len(latencies) / (run["busy_ms"] / 1e3), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies), "ms"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        "setup_s": metric(statistics.median(w["setup_s"] for w in setups + [run]), "s"),
    }
    return setups + [run], metrics, {"latency_tail_ms": latency_tail(latencies)}


def per_layer(args, deadline: float):
    run = run_worker("trace", args, deadline)
    return [run], run["per_layer"], {}


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "qamp", "__init__.py")):
        print(f"error: no qamp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    loop_ms = python_loop_ms()
    try:
        workers, metrics, extra = (per_layer if args.trace else end_to_end)(args, deadline)
    except RuntimeError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    for w in workers:
        for reason in w["reasons"]:
            print(f"failed: {reason}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "context": machine_context(loop_ms),
        "failed_ratio": failed / attempted,
        **extra,
    }
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
