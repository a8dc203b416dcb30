"""Independent dense-matrix oracles for the gate engine and the pipeline.

Everything here is built basis state by basis state from the mathematical
definitions, in plain Python loops over explicit 2^Q x 2^Q matrices.  It
deliberately shares no index machinery with the package: subsystem offsets
are recomputed from the documented canonical order, and gates are expanded
column by column from their truth tables.
"""

import math

import numpy as np

# canonical order: M1, M2, R1, C1, R2, C2, K1, K2, B, BT


def bf_offsets(n):
    return {
        "M1": 0,
        "M2": 1,
        "R1": 2,
        "C1": 2 + n,
        "R2": 2 + 2 * n,
        "C2": 2 + 3 * n,
        "K1": 2 + 4 * n,
        "K2": 3 + 4 * n,
        "B": 4 + 4 * n,
        "BT": 5 + 4 * n,
    }


def bf_total_qubits(n):
    return 4 * n + 6


def bf_index(n, **values):
    offs = bf_offsets(n)
    index = 0
    for name, value in values.items():
        index |= value << offs[name]
    return index


def _field(index, start, width):
    return (index >> start) & ((1 << width) - 1)


def _set_field(index, start, width, value):
    mask = ((1 << width) - 1) << start
    return (index & ~mask) | (value << start)


# --- gate oracle -------------------------------------------------------------


def gate_columns(gate, col):
    """Nonzero entries of one column of the gate's full unitary: [(row, amp)]."""
    for q, pol in gate.controls:
        if ((col >> q) & 1) != pol:
            return [(col, 1.0)]
    if gate.kind in ("X", "CNOT", "MULTI_CONTROLLED"):
        row = col
        for t in gate.targets:
            row ^= 1 << t
        return [(row, 1.0)]
    if gate.kind == "Z":
        t = gate.targets[0]
        return [(col, -1.0 if (col >> t) & 1 else 1.0)]
    if gate.kind == "H":
        t = gate.targets[0]
        s = 1.0 / math.sqrt(2.0)
        if (col >> t) & 1 == 0:
            return [(col, s), (col | (1 << t), s)]
        return [(col & ~(1 << t), s), (col, -s)]
    if gate.kind == "SWAP":
        a, b = gate.targets
        if ((col >> a) & 1) == ((col >> b) & 1):
            return [(col, 1.0)]
        return [(col ^ ((1 << a) | (1 << b)), 1.0)]
    raise AssertionError(gate.kind)


def gate_unitary(gate, num_qubits):
    dim = 1 << num_qubits
    u = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        for row, amp in gate_columns(gate, col):
            u[row, col] += amp
    return u


# --- pipeline stage unitaries, from the operator definitions ----------------


def bf_w0(n):
    """Product of the contraction CNOTs (C1 qubit j controls R2 qubit j)."""
    offs = bf_offsets(n)
    dim = 1 << bf_total_qubits(n)
    u = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        k1 = _field(col, offs["C1"], n)
        j2 = _field(col, offs["R2"], n)
        row = _set_field(col, offs["R2"], n, j2 ^ k1)
        u[row, col] = 1.0
    return u


def bf_w1(n):
    """Hadamard on every C1 qubit."""
    offs = bf_offsets(n)
    dim = 1 << bf_total_qubits(n)
    u = np.zeros((dim, dim), dtype=np.complex128)
    norm = 1.0 / math.sqrt(float(1 << n))
    for col in range(dim):
        k_in = _field(col, offs["C1"], n)
        for k_out in range(1 << n):
            sign = -1.0 if bin(k_in & k_out).count("1") % 2 else 1.0
            u[_set_field(col, offs["C1"], n, k_out), col] = sign * norm
    return u


def bf_w2(n):
    """Label-algebra stage: controlled (|0>-> |1>, |1>-> -|0>) on M1 with M2
    as control, Hadamard on M2, CNOT K1 -> K2; composed right to left."""
    offs = bf_offsets(n)
    dim = 1 << bf_total_qubits(n)
    rot = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        if (col >> offs["M2"]) & 1 == 0:
            rot[col, col] = 1.0
        elif (col >> offs["M1"]) & 1 == 0:
            rot[col ^ (1 << offs["M1"]), col] = 1.0
        else:
            rot[col ^ (1 << offs["M1"]), col] = -1.0
    had = np.zeros((dim, dim), dtype=np.complex128)
    s = 1.0 / math.sqrt(2.0)
    for col in range(dim):
        had[col, col] = s if (col >> offs["M2"]) & 1 == 0 else -s
        had[col ^ (1 << offs["M2"]), col] = s
    relabel = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        if (col >> offs["K1"]) & 1:
            relabel[col ^ (1 << offs["K2"]), col] = 1.0
        else:
            relabel[col, col] = 1.0
    return relabel @ had @ rot


def bf_w3(n):
    """Projector-controlled X on B and BT: flip both exactly when all of
    C1, R2, M2, K2 are zero."""
    offs = bf_offsets(n)
    dim = 1 << bf_total_qubits(n)
    u = np.zeros((dim, dim), dtype=np.complex128)
    flip = (1 << offs["B"]) | (1 << offs["BT"])
    for col in range(dim):
        zeros = (
            _field(col, offs["C1"], n) == 0
            and _field(col, offs["R2"], n) == 0
            and (col >> offs["M2"]) & 1 == 0
            and (col >> offs["K2"]) & 1 == 0
        )
        u[col ^ flip if zeros else col, col] = 1.0
    return u


def bf_q(n, which):
    """Operand manipulations as signed permutations."""
    offs = bf_offsets(n)
    dim = 1 << bf_total_qubits(n)
    u = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        row = col
        sign = 1.0
        if which in (1, 3):
            j1 = _field(col, offs["R1"], n)
            k1 = _field(col, offs["C1"], n)
            row = _set_field(_set_field(row, offs["R1"], n, k1), offs["C1"], n, j1)
        if which in (2, 3):
            j2 = _field(col, offs["R2"], n)
            k2 = _field(col, offs["C2"], n)
            row = _set_field(row, offs["R2"], n, k2)
            row = _set_field(row, offs["C2"], n, j2)
        if which == 1 and (col >> offs["M1"]) & 1:
            sign = -1.0
        if which == 2 and (col >> offs["M2"]) & 1:
            sign = -1.0
        if which == 3:
            m1 = (col >> offs["M1"]) & 1
            m2 = (col >> offs["M2"]) & 1
            row = (row & ~((1 << offs["M1"]) | (1 << offs["M2"]))) | (m2 << offs["M1"]) | (m1 << offs["M2"])
        u[row, col] = sign
    return u


# --- initial state and readout, by explicit loops ---------------------------


def bf_initial_state(pm1, pm2, n):
    dim = 1 << bf_total_qubits(n)
    state = np.zeros(dim, dtype=np.complex128)
    N = 1 << n

    def components(pm):
        # (value, m, j, k, kappa) for every stored amplitude of one operand
        parts = []
        for j in range(N):
            for k in range(N):
                parts.append((pm.matrix.entries[j, k].real, 0, j, k, 1))
                parts.append((pm.matrix.entries[j, k].imag, 1, j, k, 1))
        parts.append((pm.b.real, 0, 0, 0, 0))
        parts.append((pm.b.imag, 1, 0, 0, 0))
        return parts

    for v1, m1, j1, k1, kap1 in components(pm1):
        for v2, m2, j2, k2, kap2 in components(pm2):
            idx = bf_index(
                n, M1=m1, M2=m2, R1=j1, C1=k1, R2=j2, C2=k2, K1=kap1, K2=kap2
            )
            state[idx] = v1 * v2
    return state


def bf_project_flagged(state, n):
    """Keep the BT = 1 branch; returns (renormalized state, branch weight)."""
    offs = bf_offsets(n)
    keep = np.zeros_like(state)
    weight = 0.0
    for idx, amp in enumerate(state):
        if (idx >> offs["BT"]) & 1:
            keep[idx] = amp
            weight += abs(amp) ** 2
    return keep / math.sqrt(weight), weight


def bf_decode_output(state, n):
    """Read the product block (M1, R1, C2, K1) with B = BT = 1."""
    N = 1 << n
    matrix = np.zeros((N, N), dtype=np.complex128)
    for j in range(N):
        for k in range(N):
            re = state[bf_index(n, R1=j, C2=k, K1=1, B=1, BT=1)].real
            im = state[bf_index(n, M1=1, R1=j, C2=k, K1=1, B=1, BT=1)].real
            matrix[j, k] = complex(re, im)
    b = complex(
        state[bf_index(n, B=1, BT=1)].real,
        state[bf_index(n, M1=1, B=1, BT=1)].real,
    )
    return matrix, b


def bf_pipeline_matrices(n):
    """The four stage unitaries in application order."""
    return [bf_w0(n), bf_w1(n), bf_w2(n), bf_w3(n)]


def bf_run(pm1, pm2, manipulations=()):
    """Full independent pipeline run: (delivered matrix, b_hat, g, branch)."""
    n = pm1.n
    state = bf_initial_state(pm1, pm2, n)
    if "swap_order" in manipulations:
        state = bf_q(n, 3) @ state
    if "dagger2" in manipulations:
        state = bf_q(n, 2) @ state
    if "dagger1" in manipulations:
        state = bf_q(n, 1) @ state
    for stage in bf_pipeline_matrices(n):
        state = stage @ state
    state, branch = bf_project_flagged(state, n)
    g = math.sqrt(branch * (1 << (n + 1)))
    matrix, b = bf_decode_output(state, n)
    matrix = matrix * g
    if "swap_order" in manipulations:
        matrix = matrix.T.copy()
    return matrix, b * g, g, branch
