"""Traced replay: per-layer numbers timed from outside the program.

The replay runs each operation again through the public stage functions of
``multiplier``, ``conjugator``, ``encoder``, ``complexmat``, ``estimator``
and ``cli`` and times every call.  It must reproduce the untraced result bit
for bit; when it does not, :class:`ReplayMismatch` is raised so that the
per-layer numbers never describe a different program from the one timed end
to end.
"""

from __future__ import annotations

import json
import math
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from qamp import cli
from qamp.complexmat import matrix_from_obj, prepare, prepared_from_obj
from qamp.conjugator import apply_q
from qamp.encoder import EncodedBlock, decode, encode
from qamp.errors import EstimateUnavailableError
from qamp.estimator import SHARD_SIZE, estimate_g
from qamp.multiplier import (
    apply_w0,
    apply_w1,
    apply_w2,
    apply_w3,
    build_initial,
    conditional_measure,
    oracle_product,
    resource_report,
    run_pipeline,
)
from qamp.registers import layout_for

from workloads import POOL, CliWorkload, entries_of, run_command

#: per-layer metrics with their units; every traced run reports all of them
PER_LAYER = {
    "conjugator.q1_ms": "ms",
    "conjugator.q2_ms": "ms",
    "conjugator.q3_ms": "ms",
    "multiplier.build_initial_ms": "ms",
    "multiplier.w0_ms": "ms",
    "multiplier.w1_ms": "ms",
    "multiplier.w2_ms": "ms",
    "multiplier.w3_ms": "ms",
    "multiplier.measure_ms": "ms",
    "multiplier.glue_ms": "ms",
    "multiplier.branch_probability": "ratio",
    "encoder.encode_ms": "ms",
    "encoder.decode_ms": "ms",
    "complexmat.oracle_ms": "ms",
    "complexmat.prepare_ms": "ms",
    "complexmat.parse_ms": "ms",
    "statevector.state_bytes": "bytes",
    "statevector.gates": "count",
    "statevector.bytes_moved_computed": "bytes",
    "statevector.peak_to_state": "ratio",
    "estimator.estimate_g_ms": "ms",
    "estimator.sampling_ms": "ms",
    "estimator.shards": "count",
    "cli.prepare_ms": "ms",
    "cli.multiply_ms": "ms",
    "cli.conjugate_ms": "ms",
    "cli.estimate_g_ms": "ms",
    "cli.emit_ms": "ms",
    "cli.report_bytes": "bytes",
    "trace.overhead_ms": "ms",
}

#: spans that together make up one ``run_pipeline`` call
PIPELINE_SPANS = (
    "multiplier.build_initial_ms",
    "conjugator.q3_ms",
    "conjugator.q2_ms",
    "conjugator.q1_ms",
    "multiplier.w0_ms",
    "multiplier.w1_ms",
    "multiplier.w2_ms",
    "multiplier.w3_ms",
    "multiplier.measure_ms",
    "encoder.decode_ms",
    "complexmat.oracle_ms",
)

#: metrics that depend only on the inputs, taken from one operation
COUNTS = (
    "multiplier.branch_probability",
    "statevector.state_bytes",
    "statevector.gates",
    "statevector.bytes_moved_computed",
    "estimator.shards",
    "cli.report_bytes",
)


class ReplayMismatch(RuntimeError):
    """The traced replay did not reproduce the untraced result bit for bit."""


class Spans:
    """Accumulated wall time per metric name, in milliseconds."""

    def __init__(self):
        self.ms = defaultdict(float)

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.ms[name] += (time.perf_counter() - start) * 1e3
        return out

    def pipeline_ms(self) -> float:
        return sum(self.ms[name] for name in PIPELINE_SPANS)


def _same_bits(x, y) -> bool:
    x = np.ascontiguousarray(x, dtype=np.complex128)
    y = np.ascontiguousarray(y, dtype=np.complex128)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def replay_pipeline(spans: Spans, pm1, pm2, manips):
    """``run_pipeline`` stage by stage.  Returns (matrix_hat entries, b_hat,
    branch_probability, state bytes, gates applied)."""
    layout = layout_for(pm1.n)
    gate_counts = resource_report(layout.n).gate_counts
    state = spans.call("multiplier.build_initial_ms", build_initial, pm1, pm2, layout)
    state_bytes = state.amplitudes.nbytes
    gates = 0
    for which, name in ((3, "swap_order"), (2, "dagger2"), (1, "dagger1")):
        if name in manips:
            state = spans.call(f"conjugator.q{which}_ms", apply_q, state, which, layout)
            gates += gate_counts[f"q{which}_gates"]
    for stage, fn in (("w0", apply_w0), ("w1", apply_w1), ("w2", apply_w2), ("w3", apply_w3)):
        state = spans.call(f"multiplier.{stage}_ms", fn, state, layout)
    gates += sum(gate_counts[key] for key in ("w0_cnots", "w1_hadamards", "w2_gates", "w3_gates"))
    state, branch = spans.call("multiplier.measure_ms", conditional_measure, state, layout)
    g_exact = math.sqrt(branch * float(1 << (layout.n + 1)))
    decoded, b_decoded, _residual = spans.call(
        "encoder.decode_ms", decode, state, EncodedBlock.pipeline_output(layout)
    )
    entries = decoded.entries * g_exact
    if "swap_order" in manips:
        entries = entries.T.copy()
    spans.call("complexmat.oracle_ms", oracle_product, pm1, pm2, manips)
    return entries, b_decoded * g_exact, float(branch), state_bytes, gates


def _encode_both(spans: Spans, pm1, pm2) -> None:
    layout = layout_for(pm1.n)
    spans.call("encoder.encode_ms", encode, pm1, "first", layout)
    spans.call("encoder.encode_ms", encode, pm2, "second", layout)


def _prepare_again(spans: Spans, operand) -> None:
    pm = spans.call("complexmat.prepare_ms", prepare, operand.matrix, operand.c, b_phase=operand.b_phase)
    if not (_same_bits(pm.matrix.entries, operand.prepared.matrix.entries) and _same_bits(pm.b, operand.prepared.b)):
        raise ReplayMismatch("prepare is not deterministic on the workload's operands")


def _bytes_moved(state_bytes: int, gates: int) -> int:
    # each gate reads and writes the whole state once
    return gates * state_bytes * 2


def trace_pipeline_op(workload, i: int, results, untraced_ms: float) -> tuple[dict, float]:
    """Per-layer values of operation ``i`` of a pipeline workload and the
    traced operation's wall time in ms.  ``results`` and ``untraced_ms`` come
    from the untraced run of the same operation."""
    spans = Spans()
    calls = workload.calls(i)
    start = time.perf_counter()
    replays = [replay_pipeline(spans, a.prepared, b.prepared, manips) for a, b, manips in calls]
    traced_ms = (time.perf_counter() - start) * 1e3
    for (a, _b, manips), result, (entries, b_hat, branch, _sb, _g) in zip(calls, results, replays):
        if not (
            _same_bits(entries, result.matrix_hat.entries)
            and _same_bits(b_hat, result.b_hat)
            and branch == result.branch_probability
        ):
            raise ReplayMismatch(
                f"replay of run_pipeline at n={a.matrix.n} with {sorted(manips)} differs from the untraced result"
            )
    glue_ms = untraced_ms - spans.pipeline_ms()
    for a, b, _manips in calls:
        _encode_both(spans, a.prepared, b.prepared)
    for operand in {id(op): op for a, b, _m in calls for op in (a, b)}.values():
        _prepare_again(spans, operand)
    values = dict(spans.ms)
    values["multiplier.glue_ms"] = glue_ms
    values["multiplier.branch_probability"] = float(np.mean([r[2] for r in replays]))
    values["statevector.state_bytes"] = max(r[3] for r in replays)
    values["statevector.gates"] = sum(r[4] for r in replays)
    values["statevector.bytes_moved_computed"] = sum(_bytes_moved(r[3], r[4]) for r in replays)
    return values, traced_ms


def _timed_estimate(spans: Spans, name: str, pm1, pm2, shots: int, seed: int):
    try:
        return spans.call(name, estimate_g, pm1, pm2, (), shots=shots, seed=seed)
    except EstimateUnavailableError:
        # one shot can miss the zero outcome; the work before the draw was done
        return None


def trace_cli_op(workload: CliWorkload, i: int, outputs: dict) -> tuple[dict, float]:
    """Per-layer values of session ``i`` of the cli workload and the traced
    session's wall time in ms.  ``outputs`` come from the untraced run of the
    same session."""
    spans = Spans()
    start = time.perf_counter()
    traced = {name: spans.call(f"cli.{name}_ms", run_command, argv) for name, argv in workload.commands(i)}
    traced_ms = (time.perf_counter() - start) * 1e3
    if traced != outputs:
        raise ReplayMismatch(f"traced cli session {i} printed something other than the untraced one")

    ((a, b, manips),) = workload.calls(i)
    a_text, b_text = workload.texts["A", i % POOL], workload.texts["B", i % POOL]
    prepared_text = workload.prepared_text(i)
    # documents read by the session: A by prepare, conjugate and estimate-g,
    # B by multiply and estimate-g, the prepared A by multiply
    for text in (a_text, a_text, a_text, b_text, b_text):
        spans.call("complexmat.parse_ms", lambda t: matrix_from_obj(json.loads(t)), text)
    pm_file = spans.call("complexmat.parse_ms", lambda t: prepared_from_obj(json.loads(t)), prepared_text)
    _prepare_again(spans, a)
    _prepare_again(spans, b)

    multiply = Spans()
    entries, b_hat, branch, state_bytes, gates = replay_pipeline(multiply, pm_file, b.prepared, manips)
    report = json.loads(outputs["multiply"][1])
    if not (
        _same_bits(entries, entries_of(report["matrix_hat"]))
        and _same_bits(b_hat, complex(*report["b_hat"]))
        and branch == report["branch_probability"]
    ):
        raise ReplayMismatch(f"replay of the multiply in cli session {i} differs from its report")
    rerun = Spans()
    rerun.call("run_pipeline", run_pipeline, pm_file, b.prepared, manips)
    spans.ms.update(multiply.ms)
    spans.ms["multiplier.glue_ms"] = rerun.ms["run_pipeline"] - multiply.pipeline_ms()
    _encode_both(spans, pm_file, b.prepared)

    shots, seed = workload.SHOTS, workload.sampling_seed(i)
    e1, e2 = prepare(a.matrix, cli.DEFAULT_C), prepare(b.matrix, cli.DEFAULT_C)
    est = _timed_estimate(spans, "estimator.estimate_g_ms", e1, e2, shots, seed)
    if est is None or est.g_hat != json.loads(outputs["estimate_g"][1])["g_hat"]:
        raise ReplayMismatch(f"estimate_g replay of cli session {i} differs from its report")
    single = Spans()
    _timed_estimate(single, "one_shot", e1, e2, 1, seed)
    spans.ms["estimator.sampling_ms"] = spans.ms["estimator.estimate_g_ms"] - single.ms["one_shot"]

    texts = [prepared_text] + [outputs[name][1] for name in ("multiply", "conjugate", "estimate_g")]
    for text in texts:
        if spans.call("cli.emit_ms", cli.dump_json, json.loads(text)) != text:
            raise ReplayMismatch(f"dump_json does not reproduce an output of cli session {i}")

    layout_gates = resource_report(workload.N).gate_counts
    # the conjugate command applies the first operand's conjugation circuit
    conjugate_gates = layout_gates["q1_gates"]
    values = dict(spans.ms)
    values["multiplier.branch_probability"] = branch
    values["statevector.state_bytes"] = state_bytes
    # multiply and estimate-g each run the pipeline once
    values["statevector.gates"] = 2 * gates + conjugate_gates
    values["statevector.bytes_moved_computed"] = _bytes_moved(state_bytes, 2 * gates + conjugate_gates)
    values["estimator.shards"] = math.ceil(shots / SHARD_SIZE)
    values["cli.report_bytes"] = sum(len(text.encode("utf-8")) for text in texts)
    return values, traced_ms


def cold_peak_bytes(workload) -> int:
    """Peak traced bytes of the operation's widest ``run_pipeline`` call,
    made before anything else touches a statevector, so the program's lazy
    caches count towards it."""
    a, b, manips = max(workload.calls(0), key=lambda call: (call[0].matrix.n, len(call[2])))
    tracemalloc.start()
    try:
        run_pipeline(a.prepared, b.prepared, manips)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def trace_op(workload, i: int, output, untraced_ms: float) -> tuple[dict, float]:
    if isinstance(workload, CliWorkload):
        return trace_cli_op(workload, i, output)
    return trace_pipeline_op(workload, i, output, untraced_ms)
