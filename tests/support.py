"""Shared random-input factories and reference implementations for the test
suite."""

import json

import numpy as np

from qamp import ComplexMatrix, PreparedMatrix, apply_q, build_initial, prepare
from qamp.complexmat import block_shape
from qamp.multiplier import MANIPULATION_STAGES
from qamp.registers import register_view, select


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


#: block caps, from the number of terms of an ordered sum and the width of
#: a term's row, that bring ``block_shape`` to each of its boundaries
BLOCK_CAPS = {
    "one-term-chunks": lambda terms, width: 2 * width,
    "partial-last-chunk": lambda terms, width: 4 * width,
    "partial-last-band": lambda terms, width: 3 * (terms + 1) * width,
}


def block_cap(case, terms, rows, width):
    """The cap of ``BLOCK_CAPS[case]`` for a sum of ``terms`` arrays of shape
    (rows, width), checked to reach that boundary: every chunk one term and
    every band one row; chunks of several terms, the last one partial; or
    every term in one chunk and bands of several rows, the last one partial."""
    cap = BLOCK_CAPS[case](terms, width)
    chunk, band = block_shape(terms, rows, width, cap)
    if case == "one-term-chunks":
        assert chunk == 1 and band == 1
    elif case == "partial-last-chunk":
        assert 1 < chunk < terms and terms % chunk and band == 1
    else:
        assert chunk == terms and 1 < band < rows and rows % band
    return cap


def prepared_from_tilde(entries, b_phase=0.0):
    """Prepared matrix whose scaled entries are given directly."""
    return PreparedMatrix.from_scaled(np.array(entries, dtype=np.complex128), b_phase=b_phase)


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
