"""One fresh process of the benchmark: set a workload up, then measure or trace it.

    python3 perfbench/worker.py {setup,measure,trace} WORKLOAD SEED SECONDS

Set-up is timed from the first line of this file: importing qamp, drawing
the seeded inputs and one untimed warm-up operation, which fills the
program's lazy caches.  ``measure`` then runs the closed loop untraced;
``trace`` alternates untraced operations with traced replays.  The last line
of standard output is one JSON object for ``run.py``.
"""

import time

SETUP_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import qamp  # noqa: E402

import replay  # noqa: E402
import workloads  # noqa: E402

#: failure reasons echoed to stderr per run
REASONS_SHOWN = 5


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def attempt(workload, i: int, stats: dict):
    """Run operation ``i`` untraced, check it outside the timed interval and
    count it.  Returns (output, ms); output is None when the operation raised."""
    stats["attempted"] += 1
    start = time.perf_counter()
    try:
        output = workload.run(i)
    except Exception as exc:  # a failed operation is counted, not fatal
        ms = (time.perf_counter() - start) * 1e3
        reason = f"raised {type(exc).__name__}: {exc}"
        output = None
    else:
        ms = (time.perf_counter() - start) * 1e3
        try:
            reason = workload.check(i, output)
        except Exception as exc:  # an unreadable output fails its check
            reason = f"check raised {type(exc).__name__}: {exc}"
    stats["busy_ms"] += ms
    if reason:
        stats["failed"] += 1
        if len(stats["reasons"]) < REASONS_SHOWN:
            stats["reasons"].append(f"operation {i}: {reason}")
    else:
        stats["latencies_ms"].append(ms)
    return output, ms


def new_stats() -> dict:
    return {"attempted": 0, "failed": 0, "busy_ms": 0.0, "latencies_ms": [], "reasons": []}


def measure(workload, seconds: float, stats: dict) -> None:
    """Closed loop from operation 1 until ``seconds`` of wall time have passed."""
    start = time.perf_counter()
    i = 1
    while True:
        attempt(workload, i, stats)
        i += 1
        if time.perf_counter() - start >= seconds:
            return


def trace_run(workload, seconds: float, stats: dict, peak_bytes: int) -> dict:
    """Untraced operation then its traced replay, from operation 1 until
    ``seconds`` have passed.  Returns the per-layer metrics with their units."""
    start = time.perf_counter()
    samples, traced_ms, untraced_ms = [], [], []
    i = 1
    while True:
        output, ms = attempt(workload, i, stats)
        if output is not None:
            values, replay_ms = replay.trace_op(workload, i, output, ms)
            samples.append(values)
            traced_ms.append(replay_ms)
            untraced_ms.append(ms)
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    if not samples:
        raise RuntimeError("no operation succeeded, so none was traced")
    metrics = {}
    for name in replay.PER_LAYER:
        if name in replay.COUNTS:
            metrics[name] = samples[0].get(name, 0)
        else:
            metrics[name] = statistics.median(s.get(name, 0.0) for s in samples)
    metrics["statevector.peak_to_state"] = peak_bytes / metrics["statevector.state_bytes"]
    metrics["trace.overhead_ms"] = statistics.median(traced_ms) - statistics.median(untraced_ms)
    return {name: {"value": metrics[name], "unit": unit} for name, unit in replay.PER_LAYER.items()}


def main(argv) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(qamp.__file__), src]) != src:
        print(f"qamp was imported from {qamp.__file__}, not from {src}", file=sys.stderr)
        return 2
    # relative and of fixed length, so report sizes do not depend on the checkout
    os.chdir(ROOT)
    workdir = os.path.join(".bench_build", "perfbench", f"{name}-{os.getpid():07d}")
    workload = workloads.make(name, seed, workdir)
    try:
        stats = new_stats()
        if mode == "trace":
            peak_bytes = replay.cold_peak_bytes(workload)
        attempt(workload, 0, stats)
        setup_s = time.perf_counter() - SETUP_START
        # the warm-up is checked and counted but not timed
        stats["latencies_ms"].clear()
        stats["busy_ms"] = 0.0
        result = {"setup_s": setup_s}
        if mode == "trace":
            result["per_layer"] = trace_run(workload, seconds, stats, peak_bytes)
        elif mode == "measure":
            measure(workload, seconds, stats)
        stats["peak_rss_mb"] = _peak_rss_mb()
        result.update(stats)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
