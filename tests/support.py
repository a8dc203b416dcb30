"""Shared random-input factories and reference implementations for the test
suite."""

import cmath
import json
import math

import numpy as np

from qamp import ComplexMatrix, PreparedMatrix, prepare
from qamp.conjugator import apply_q, hermitian_conjugate
from qamp.complexmat import matrix_to_obj
from qamp.encoder import EncodedBlock, encode, read_block
from qamp.multiplier import MANIPULATION_STAGES, build_initial
from qamp.registers import layout_for, register_view, select


def random_matrix(rng, n, scale=1.0):
    dim = 1 << n
    entries = scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return ComplexMatrix(n, entries)


def random_prepared(rng, n, complex_b=False):
    # c drawn above 1/4 so the strict-inequality constraint is always satisfiable
    c = rng.uniform(0.3, 2.0)
    phase = rng.uniform(0.0, 2.0 * np.pi) if complex_b else None
    return prepare(random_matrix(rng, n), c, b_phase=phase)


def mixed_entries(rng, n):
    """Complex entries whose components mix +0.0, -0.0 and magnitudes from
    1e-8 to 1e8 of either sign."""
    shape = (2, 1 << n, 1 << n)  # (real/imaginary, row, column)
    magnitude = 10.0 ** rng.uniform(-8.0, 8.0, size=shape)
    kind = rng.integers(0, 4, size=shape)
    entries = np.empty(shape[1:], dtype=np.complex128)
    entries.real, entries.imag = np.choose(
        kind, [np.zeros(shape), np.full(shape, -0.0), magnitude, -magnitude]
    )
    return entries


#: terms that add to 0 from +0.0 in index order, 2**53 + 1 rounding back
#: to 2**53, but to 1 in a pairwise or multi-accumulator order and to 2 in
#: reverse order: the canary of an ordered sum
ORDER_CANARY = np.array([2.0**53, 1.0, 1.0, -(2.0**53)])


def prepared_from_tilde(entries, b_phase=0.0):
    """Prepared matrix whose scaled entries are given directly, with the
    unit scale record (s_original = weight, c = 1 - weight) and the slack
    sqrt(1 - weight) rotated by ``b_phase``."""
    entries = np.array(entries, dtype=np.complex128)
    matrix = ComplexMatrix(len(entries).bit_length() - 1, entries)
    w = matrix.weight()
    b = math.sqrt(1.0 - w) * cmath.exp(1j * b_phase)
    return PreparedMatrix(matrix=matrix, b=complex(b), s_original=w, c=1.0 - w)


def real_parts(amps):
    """The real states a state vector runs as: itself when real, its real and
    imaginary parts when complex (every gate of the circuit is real, so it
    maps a complex state part by part)."""
    if np.iscomplexobj(amps):
        return [amps.real.copy(), amps.imag.copy()]
    return [amps]


def join_parts(parts):
    """Inverse of :func:`real_parts`."""
    return parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]


def matmul_oracle_numpy(a, b):
    """The component-formula product as a triple loop over numpy float64
    scalars: the reference that ``matmul_oracle``'s elementwise steps over
    the inner index must equal byte for byte."""
    dim = a.dim
    a0, a1 = a.entries.real, a.entries.imag
    b0, b1 = b.entries.real, b.entries.imag
    out = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        for k in range(dim):
            re = 0.0
            im = 0.0
            for l in range(dim):
                re += a0[j, l] * b0[l, k] - a1[j, l] * b1[l, k]
                im += a0[j, l] * b1[l, k] + a1[j, l] * b0[l, k]
            out[j, k] = complex(re, im)
    return ComplexMatrix(a.n, out)


def sylvester_block(n):
    """The 2**n x 2**n Hadamard matrix by the recursive ``np.block``
    construction, scaled by 2**(-n/2): the reference for
    ``multiplier._sylvester``."""
    h = np.ones((1, 1))
    for _ in range(n):
        h = np.block([[h, h], [h, -h]])
    return h * 2.0 ** (-n / 2)


def pinned(amps, layout, pins):
    """Amplitudes of a state on ``layout`` with each pinned subsystem at its
    value: a state on ``layout.without(*pins)``."""
    view, names = register_view(amps, layout)
    return np.ascontiguousarray(select(view, names, pins)).reshape(-1)


def manipulated_build(pm1, pm2, layout, manips):
    """The circuit's state after the manipulations: :func:`build_initial`
    on ``layout``, then :func:`apply_q` per manipulation in
    ``MANIPULATION_STAGES`` order.  The run path folds the manipulations
    into how it reads the operands, and this is the reference it is held to."""
    state = build_initial(pm1, pm2, layout)
    for name, which in MANIPULATION_STAGES:
        if name in manips:
            state = apply_q(state, which, layout)
    return state


def conjugate_reference(matrix):
    """What ``qamp conjugate`` writes for ``matrix``, made by the
    full-register chain: the matrix prepared with c = 1, encoded on its own
    2n + 2 qubits (M1, R1, C1, K1), run through :func:`hermitian_conjugate`,
    read back and multiplied by the scale, then emitted by
    :func:`dump_json`.  Raises what :func:`prepare` raises."""
    pm = prepare(matrix, 1.0)
    layout = layout_for(matrix.n).without("M2", "R2", "C2", "K2", "B", "BT")
    block = EncodedBlock.for_side(layout, "first")
    decoded, _b = read_block(hermitian_conjugate(encode(pm, "first", layout), block), block)
    return dump_json(matrix_to_obj(ComplexMatrix(matrix.n, decoded.entries * pm.scale)))


# --- the JSON emitter that cli.dump_json replaced ---------------------------
# An isinstance cascade and a format call per value, and a json.dumps call per
# key and string: the byte-for-byte reference for cli.dump_json.


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str, np.integer, np.floating))


def _emit(value, out: list, indent: int) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _emit(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            out.append("[]")
        elif all(_is_scalar(v) for v in items):
            out.append("[" + ", ".join(_scalar(v) for v in items) + "]")
        else:
            out.append("[\n")
            for i, item in enumerate(items):
                out.append(pad + "  ")
                _emit(item, out, indent + 1)
                out.append(",\n" if i + 1 < len(items) else "\n")
            out.append(pad + "]")
    else:
        out.append(_scalar(value))


def dump_json(obj) -> str:
    out: list[str] = []
    _emit(obj, out, 0)
    return "".join(out) + "\n"
