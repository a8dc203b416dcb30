"""Shared random-input factories for the test suite."""

import numpy as np

from qamp import ComplexMatrix, PreparedMatrix, prepare


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
