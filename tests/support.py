"""Shared random-input factories for the test suite."""

import numpy as np

from qamp import ComplexMatrix, PreparedMatrix, prepare
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
