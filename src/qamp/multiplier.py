"""The multiplication pipeline.

Starting from the joint state of the two encoded operands, the stages run
in this order:

  w0  contraction CNOTs: each first-operand column qubit toggles the
      matching second-operand row qubit, so terms whose inner indices agree
      land on R2 = 0
  w1  Hadamards over C1 fold the inner-index sum into the C1 = 0 slice
  w2  label algebra on (M1, M2) combines component products into real and
      imaginary parts of complex products, then K2 is relabeled so payload
      terms end at K2 = 0
  w3  both ancillae flip on the payload subspace (all of C1, R2, M2, K2
      in |0>), separating payload from garbage
  conditional measurement keeps the flagged branch and records its weight

Decoding the survivor on (M1, R1, C2, K1) yields the scaled product and
slack divided by a normalization factor; the branch weight recovers that
factor exactly, since payload amplitudes carry a uniform 2**-((n+1)/2)
prefactor going into the measurement.

:func:`flagged_state` is the one place this stage sequence, with the
optional manipulations ahead of w0, is written; :func:`run_pipeline` and
:func:`qamp.estimator.estimate_g` both read their results off its output.

The run path computes only what reaches the flagged branch, the payload
slice (C1, R2, M2 and K2 all 0) that the measurement keeps, and never
holds a register state.  Walking back from that branch:

- w3 and the measurement keep w2's M2 = K2 = 0 output;
- w2 writes K2 = 0 from K2 = K1, so it reads only the K1 = K2 diagonal of
  the C1 = R2 = 0 row of w1's output, two of the row's four quarters;
- w1's C1 = 0 row is 2**(-n/2) times the sum over c of w0's (C1 = c,
  R2 = 0) slice;
- w0 fills that slice from the build's (C1 = c, R2 = c) after the
  manipulations, which is the first operand's factor at C1 = c times the
  second's at R2 = c.  Each manipulation is a signed permutation of the
  operands' subsystems (:data:`qamp.conjugator.Q_ACTIONS`), so it only
  trades an operand's row and column registers, crosses the labels or
  negates a label = 1 half.

The encoding puts an entry's real and imaginary parts on the two values of
its label, so an operand's K = 1 amplitudes are its complex entries' own
(re, im) pairs, and its K = 0 amplitudes are the slack's pair at
R = C = 0.  Traded registers only decide whether the entries are taken
transposed, and a negated label = 1 half is their complex conjugate, so
the manipulations come down to two bits per operand
(:func:`_orientation`).

So a run is two steps.  :func:`_w1_diagonal` writes the two quarters,
one 2**(n+1) x 2**(n+1) array each, from one copy of each operand's
entries, transposed and conjugated in place as the manipulations ask, and
its slack pair (:func:`_entry_factors`); no component tensor is built.
The K1 = K2 = 0 quarter is +0.0 but for its 2 x 2 corner, the product of
the two slack pairs, since an operand's K = 0 slab holds just the slack;
the K1 = K2 = 1 quarter sums one outer product per c, a block at a time,
a chunk of c values by a band of rows in at most :data:`BLOCK`
amplitudes, with a few numpy calls per block, and every amplitude still
takes its terms in c order.  :func:`flag_and_measure` writes w2's flagged
output from the quarters straight into the payload, a component tensor
indexed [K1, R1, C2, M1] (2**(2n+2) amplitudes), then weighs and
renormalizes it.  The product is read through a complex view of the
payload's K1 = 1 slab, and the estimator's K1 = 0 weight straight off
that tensor.  A run takes no layout and derives nothing on one: it reads
n and the measured qubit off ``layout_for(n)``, since control flags mean
nothing on this path.

The stage functions address subsystems by name and run unchanged on any
layout.  :func:`build_initial`, :func:`qamp.conjugator.apply_q`,
:func:`apply_w0`..:func:`apply_w3` on the whole register and
:func:`conditional_measure` stay as the full-register reference, and the
run path's payload and weight are bit for bit theirs:
w1's ordered sum is the one the quarters make, and every flagged
amplitude comes from the same operations in both.

As public stages, w0..w2 each run as one pass over the register view into
a new state rather than gate by gate: w0 is one XOR permutation of R2 by
C1, w1 an ordered sum over the C1 axis with the Sylvester Hadamard matrix,
w2 one sum or difference per (M2, M1) column written straight to its
relabeled K2 slice.  w3 is a single multi-controlled gate of the gate engine.

Before allocating, a run is refused when its :func:`peak_bytes` (what a
run holds at once and :data:`RUNTIME_BYTES`) exceed physical memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexmat import ORACLE_BLOCK, ComplexMatrix, PreparedMatrix, _matmul, block_shape
from .encoder import EncodedBlock, _check_norm, _components, joint_amplitudes, require_memory
from .errors import DimensionError, MeasurementError, ParameterError
from .registers import RegisterLayout, layout_for, register_stage, select
from .statevector import (
    _SQRT1_2,
    GateSpec,
    StateVector,
    _weight,
    apply_gates,
    project_and_renormalize,
)

MANIPULATIONS = frozenset({"dagger1", "dagger2", "swap_order"})

#: the post-selection ancillae; only the payload flagging touches them
ANCILLAE = ("B", "BT")

#: subsystems that are all |0> exactly on the payload subspace, in the
#: order of w3's controls
PAYLOAD_ZEROS = ("C1", "R2", "M2", "K2")

#: (manipulation, conjugator stage) in circuit order: the operand exchange
#: first, then the second operand's conjugation, then the first's
MANIPULATION_STAGES = (("swap_order", 3), ("dagger2", 2), ("dagger1", 1))

#: amplitudes in one block of the terms :func:`_w1_diagonal` sums over its
#: K1 = K2 = 1 quarter (a chunk of c values by a band of the quarter's
#: rows, plus the slot that carries the band's running sum), 256 KiB, so a
#: block stays in a 2 MiB L2 cache; up to n = 6 a chunk holds every c, and
#: from n = 5 on the rows are split into bands
BLOCK = 1 << 15

#: resident bytes of the process around a run's arrays: the interpreter and
#: numpy (36 MB before an n = 5 run on Python 3.11 with numpy 2.4)
RUNTIME_BYTES = 64 << 20

def _check_manipulations(manipulations) -> frozenset:
    manips = frozenset(manipulations)
    unknown = manips - MANIPULATIONS
    if unknown:
        raise ParameterError(
            f"unknown manipulations {sorted(unknown)}; valid: {sorted(MANIPULATIONS)}"
        )
    return manips


@dataclass
class ProductResult:
    """Decoded output of one pipeline run.

    ``matrix_hat`` and ``b_hat`` are already un-normalized by ``g_exact``;
    multiplying ``matrix_hat`` entries by ``scale_back`` recovers the product
    of the original (unscaled) inputs.  When the operand exchange is active,
    ``matrix_hat`` is the decoded matrix after the documented transpose.
    """

    matrix_hat: ComplexMatrix
    b_hat: complex
    g_exact: float
    branch_probability: float
    oracle_error: float
    scale_back: float


def _orientation(pm1: PreparedMatrix, pm2: PreparedMatrix, manipulations):
    """Whether each operand's entries are read transposed and conjugated
    after the manipulations, once the manipulations and the operands' widths
    are checked: a (transposed, conjugated) pair per operand.

    The run takes each operand's entries with one row per value of its
    summed register, C1 for the first and R2 for the second, and entry
    (j, k) is encoded at R = j, C = k, so the plain first operand is read
    transposed and the plain second one is not.
    Manipulation 1 or 2 (:data:`qamp.conjugator.Q_ACTIONS`) trades its
    operand's row and column registers, which transposes that operand, and
    negates the label = 1 half of M1 or M2, which conjugates whichever
    operand's label sits there.  Manipulation 3 trades both operands'
    registers and crosses their labels, and in :data:`MANIPULATION_STAGES`
    order it comes first, so that after it M1 holds the second operand's
    label and M2 the first's.
    """
    manips = _check_manipulations(manipulations)
    if pm1.n != pm2.n:
        raise DimensionError(f"operand widths differ: n={pm1.n} vs n={pm2.n}")
    swap, d1, d2 = ("swap_order" in manips, "dagger1" in manips, "dagger2" in manips)
    return ((swap == d1, d2 if swap else d1), (swap != d2, d1 if swap else d2))


def _entry_factors(pm1: PreparedMatrix, pm2: PreparedMatrix, manipulations):
    """Each operand's factors in w1's row, read straight from its entries:
    the (slack, matrix) pair of the first operand summed over C1 and of the
    second summed over R2.

    ``slack`` is the operand's K = 0 amplitudes at R = C = 0, (b.re, b.im)
    or, where the operand is conjugated (:func:`_orientation`),
    (b.re, -b.im); the rest of its K = 0 slab is zero.  ``matrix`` is its
    K = 1 slab, a (2**n, 2**(n+1)) float64 array with one row per value of
    the summed register and the other register and the label along the
    row: one copy of the entries, transposed where the operand is read
    transposed, viewed as complex and conjugated in place where it is
    conjugated.  Both are bit for bit the operand's amplitudes after
    :func:`qamp.conjugator.apply_q` per manipulation, since copying,
    conjugating and negating are exact.  The encoded state's norm is
    checked as :func:`qamp.encoder.encode` checks it.
    """
    factors = []
    for pm, (transposed, conjugated) in zip((pm1, pm2), _orientation(pm1, pm2, manipulations)):
        matrix = np.empty((pm.matrix.dim, 2 * pm.matrix.dim))
        entries = matrix.view(np.complex128)
        np.copyto(entries, pm.matrix.entries.T if transposed else pm.matrix.entries)
        if conjugated:
            np.conjugate(entries, out=entries)
        slack = np.array((pm.b.real, -pm.b.imag if conjugated else pm.b.imag))
        _check_norm(float(np.vdot(matrix, matrix)) + float(slack @ slack))
        factors.append((slack, matrix))
    return factors


def build_initial(pm1: PreparedMatrix, pm2: PreparedMatrix, layout: RegisterLayout) -> StateVector:
    """Joint state of both encoded operands over ``layout``.

    Amplitudes are the products of the two encodings' real amplitudes,
    written once by :func:`qamp.encoder.joint_amplitudes`; ancillae, if the
    layout has them, and any control flags start in |0>.  The
    manipulations are :func:`qamp.conjugator.apply_q` on this state.
    """
    if pm1.n != pm2.n:
        raise DimensionError(f"operand widths differ: n={pm1.n} vs n={pm2.n}")
    if pm1.n != layout.n:
        raise DimensionError(f"layout is sized for n={layout.n}, operands have n={pm1.n}")
    operands = [
        (_components(pm), EncodedBlock.for_side(layout, side))
        for pm, side in ((pm1, "first"), (pm2, "second"))
    ]
    return StateVector(layout.total_qubits, joint_amplitudes(layout, operands))


def apply_w0(state: StateVector, layout: RegisterLayout) -> StateVector:
    """Contraction CNOTs: C1 qubit j controls R2 qubit j, for every j.

    Together they XOR C1 into R2, so each (R2, C1) slice of the output is
    copied from the input slice at R2 xor C1.
    """

    def kernel(src, dst, names):
        axes = (names.index("R2"), names.index("C1"))
        src, dst = np.moveaxis(src, axes, (0, 1)), np.moveaxis(dst, axes, (0, 1))
        for r2 in range(dst.shape[0]):
            for c1 in range(dst.shape[1]):
                dst[r2, c1] = src[r2 ^ c1, c1]

    return register_stage(state, layout, kernel)


def _sylvester(n: int) -> np.ndarray:
    """The 2**n x 2**n Hadamard transform: entry (j, k) is 2**(-n/2) with
    the sign (-1)**popcount(j & k)."""
    index = np.arange(1 << n)
    both = index[:, None] & index
    parity = np.zeros_like(both)
    for bit in range(n):
        parity ^= both >> bit
    scale = 2.0 ** (-n / 2)
    return np.where(parity & 1, -scale, scale)


def apply_w1(state: StateVector, layout: RegisterLayout) -> StateVector:
    """Hadamard every C1 qubit, summing the contracted index into C1 = 0.

    The layer contracts the C1 axis with the Sylvester Hadamard matrix H as
    an ordered sum, with no matrix product: each output slice C1 = j starts
    from +0.0 and adds H[j, c] * x[c] elementwise over c in order.  Its
    C1 = 0 slice is therefore the sum the run path accumulates
    (:func:`_w1_diagonal`), bit for bit.
    """
    hadamard = _sylvester(layout.n)

    def kernel(src, dst, names):
        src, dst = (np.moveaxis(view, names.index("C1"), 0) for view in (src, dst))
        term = np.empty_like(src[0])
        for out, signs in zip(dst, hadamard):
            out[...] = 0.0
            for x, h in zip(src, signs):
                np.multiply(x, h, out=term)
                np.add(out, term, out=out)

    return register_stage(state, layout, kernel)


def _w1_diagonal(pm1: PreparedMatrix, pm2: PreparedMatrix, manipulations) -> np.ndarray:
    """The K1 = K2 diagonal of the C1 = R2 = 0 slice of :func:`apply_w1`
    after :func:`apply_w0` on :func:`build_initial` and
    :func:`qamp.conjugator.apply_q` per manipulation, bit for bit, without
    that state: the two quarters of w1's row that w2's
    flagged output reads (:func:`flag_and_measure`).

    Returns the diagonal as an array indexed [k, R1, first label, C2,
    second label] at K1 = K2 = k: the first operand's label is M1 and the
    second's M2, or M2 and M1 when the operand exchange crossed them.

    On the product state w0 only moves amplitudes: at R2 = 0 its C1 = c
    slice is the first operand's factor at C1 = c times the second's at
    R2 = c, whatever the manipulations renamed, since C1 stays in the first
    operand's block and R2 in the second's.  Row 0 of the Hadamard matrix
    is 2**(-n/2) throughout, so the row is the sum over c of 2**(-n/2)
    times the outer product of those two factors, accumulated in c order
    from +0.0 as :func:`apply_w1` does.

    Each operand's two factors come straight from its entries
    (:func:`_entry_factors`): its slack pair, and its K = 1 slab as one
    copy of the entries, transposed and conjugated as the manipulations
    ask, with a row per value of the summed register.

    A manipulation never renames K, and an operand's K = 0 slab holds only
    the slack, at R = C = 0, so at K1 = K2 = 0 every term with c > 0, and
    every amplitude of the c = 0 term outside its 2 x 2 corner (R1 = C2 =
    0), is +-0.0.  Added to a sum that started at +0.0, those zeros give
    +0.0, so that quarter is +0.0 but for its corner, the product of the
    two slack pairs times 2**(-n/2) plus +0.0 (which turns a -0.0 into
    +0.0, as the sum does).  The K1 = K2 = 1 quarter takes the
    sum over every c, a block at a time
    (:func:`qamp.complexmat.block_shape`, at most :data:`BLOCK`
    amplitudes): one einsum writes the outer products of a chunk of c
    values for a band of rows, one multiply scales them, and one reduction
    along the chunk adds them, in c order, onto the band's running sum held
    in the block's first slot.  The chunks go in c order, each over every
    band, so that a chunk of the second operand's factors stays in cache.
    (einsum writes a zero product as +0.0, but
    the running sum starts at +0.0, so never holds -0.0, and adding either
    zero to it gives the same bits.)
    """
    (slack1, first), (slack2, second) = _entry_factors(pm1, pm2, manipulations)
    dim = 1 << pm1.n
    scale = 2.0 ** (-pm1.n / 2)
    half = 2 * dim
    diagonal = np.zeros((2, half, half))
    diagonal[0, :2, :2] = np.multiply.outer(slack1, slack2) * scale + 0.0
    chunk, band = block_shape(dim, half, half, BLOCK)
    slots = np.empty((chunk + 1) * band * half)
    for c in range(0, dim, chunk):
        for r in range(0, half, band):
            rows = diagonal[1, r : r + band]
            factors = first[c : c + chunk, r : r + band]
            block = slots[: (len(factors) + 1) * rows.size].reshape(-1, *rows.shape)
            np.copyto(block[0], rows)
            np.einsum("cr,cs->crs", factors, second[c : c + chunk], out=block[1:])
            np.multiply(block[1:], scale, out=block[1:])
            np.add.reduce(block, axis=0, out=rows)
    return diagonal.reshape(2, dim, 2, dim, 2)


def apply_w2(state: StateVector, layout: RegisterLayout) -> StateVector:
    """Label algebra combining component products into complex products.

    Controlled on M2 = 1 the M1 amplitudes rotate (|0> -> |1>, |1> -> -|0>),
    then a Hadamard on M2 folds the two columns together: the M2 = 0 slice
    now holds, on M1 = 0, products of real parts minus products of imaginary
    parts, and on M1 = 1 the mixed sums, each scaled by a further 1/sqrt(2).
    Finally K2 flips where K1 = 1, landing all payload terms on K2 = 0.

    Each output (M2, M1) column is one sum or difference of two input
    columns, written straight into its destination with K2 reversed where
    K1 = 1, and the whole output is then scaled once.
    """
    # (M2, M1) out <- (M2, M1) of the two input columns, combined by op
    columns = (
        ((0, 0), np.subtract, (0, 0), (1, 1)),
        ((1, 0), np.add, (0, 0), (1, 1)),
        ((0, 1), np.add, (0, 1), (1, 0)),
        ((1, 1), np.subtract, (0, 1), (1, 0)),
    )

    def kernel(src, dst, names):
        for k1, k2 in ((0, slice(None)), (1, slice(None, None, -1))):
            for (m2, m1), op, (a2, a1), (b2, b1) in columns:
                op(
                    select(src, names, {"K1": k1, "M2": a2, "M1": a1}),
                    select(src, names, {"K1": k1, "M2": b2, "M1": b1}),
                    out=select(dst, names, {"K1": k1, "K2": k2, "M2": m2, "M1": m1}),
                )
        np.multiply(dst, _SQRT1_2, out=dst)

    return register_stage(state, layout, kernel)


def apply_w3(state: StateVector, layout: RegisterLayout) -> StateVector:
    """Flip both ancillae on the payload subspace.

    One gate with 2(n+1) polarity-0 controls, all of C1, R2, M2 and K2;
    payload and slack terms come out with B = BT = 1, garbage stays at 0.
    Expects B and BT in |0> on the active support.
    """
    controls = tuple((q, 0) for name in PAYLOAD_ZEROS for q in layout.qubits(name))
    gate = GateSpec.multi_controlled_x([layout.start(name) for name in ANCILLAE], controls)
    return apply_gates(state, (gate,))


def conditional_measure(state: StateVector, layout: RegisterLayout) -> tuple[StateVector, float]:
    """Project onto the flagged branch (BT = 1, equivalently B = 1) and
    renormalize; returns the branch's pre-projection weight."""
    return project_and_renormalize(state, layout.start("BT"), 1)


def peak_bytes(layout: RegisterLayout) -> int:
    """Resident bytes of a process at the peak of a run on ``layout``,
    bounded by everything a run holds at once: the two quarters of w1's
    row that it computes, 2**(2n+2) float64 amplitudes each, the payload
    and the squares of its weight (a quarter each), the two operands'
    entries (half a quarter each), the blocks of terms that the row's and
    the oracle's sums add (:data:`BLOCK` float64 and
    :data:`qamp.complexmat.ORACLE_BLOCK` complex amplitudes), and
    :data:`RUNTIME_BYTES`.  The oracle runs once the row and the payload
    are freed: its x, y and sums, and the copy a transposed product makes
    of the sums, are 2**(2n) complex amplitudes, half a quarter, each, so
    beside the operands and the decoded product it holds at most 3.5
    quarters."""
    quarter = 1 << (2 * layout.n + 2)
    return 8 * (5 * quarter + BLOCK) + 16 * ORACLE_BLOCK + RUNTIME_BYTES


def flag_and_measure(diagonal: np.ndarray, layout: RegisterLayout) -> tuple[np.ndarray, float]:
    """:func:`apply_w2`, :func:`apply_w3` and :func:`conditional_measure`
    from the K1 = K2 diagonal of w1's row (:func:`_w1_diagonal`, with C1,
    R2 and the ancillae taken to be in |0>), kept to the payload.  The
    diagonal's axes are K1 = K2, R1, the first operand's label, C2 and the
    second's label.

    w3 moves the payload slice (C1, R2, M2 and K2 all 0) to B = BT = 1 and
    nothing else lands there, so the flagged branch is w2's M2 = K2 = 0
    output.  w2 writes K2 = 0 there from K2 = K1, which is why the rest of
    the row is never needed, and per K1 value M1 = 0 from (M2, M1) =
    (0, 0) minus (1, 1) and M1 = 1 from (0, 1) plus (1, 0), scaled by
    sqrt(1/2).  Both read the same with the two labels exchanged, bit for
    bit, since IEEE addition commutes, so labels crossed by the operand
    exchange need no care.

    Returns the renormalized payload, a float64 tensor indexed [K1, R1,
    C2, M1], and the branch's pre-projection weight.  The tensor is bit for
    bit the B = BT = 1 payload slice of the full-register stages, which
    leave zeros everywhere else, and the weight is bit for bit theirs: both
    are exactly rounded sums of the same nonzero squares.  The diagonal is
    not mutated.
    """
    dim = 1 << layout.n
    payload = np.empty((2, dim, dim, 2))
    # the payload is [K1, R1, C2, M1]; out is [K1, M1, R1, C2]
    out = payload.transpose(0, 3, 1, 2)
    # diagonal[:, :, ma, :, mb] is the (R1, C2) matrix at each K1 = K2
    np.subtract(diagonal[:, :, 0, :, 0], diagonal[:, :, 1, :, 1], out=out[:, 0])
    np.add(diagonal[:, :, 1, :, 0], diagonal[:, :, 0, :, 1], out=out[:, 1])
    np.multiply(payload, _SQRT1_2, out=payload)
    weight = _weight(payload)
    if weight == 0.0:
        bt = layout.start("BT")
        raise MeasurementError(f"outcome 1 on qubit {bt} has zero probability", probability=0.0)
    np.divide(payload, math.sqrt(weight), out=payload)
    return payload, weight


def oracle_product(pm1: PreparedMatrix, pm2: PreparedMatrix, manipulations=()) -> tuple[ComplexMatrix, complex]:
    """Classical expected (matrix, slack) for a manipulation set.

    The compositions for active operand exchange were frozen from an
    amplitude-level expansion of the circuit (see the brute-force tests):
    the exchange transposes both operands inside their register pairs and
    crosses their label qubits, so a later conjugation stage acts on one
    operand's registers but the other operand's labels.  With the delivered
    matrix transposed per the documented convention this gives:

      exchange alone          -> A2 A1
      exchange + conjugate 1  -> transpose(A1 A2^dagger)
      exchange + conjugate 2  -> transpose(A1^dagger A2)
      exchange + both         -> (A1 A2)^dagger = A2^dagger A1^dagger

    Each is :func:`qamp.complexmat.matmul_oracle` of
    :func:`qamp.complexmat.dagger_oracle` factors, transposed where shown,
    bit for bit, taken straight from the operands' entries.
    """
    manips = _check_manipulations(manipulations)
    d1 = "dagger1" in manips
    d2 = "dagger2" in manips
    a1, a2 = pm1.matrix.entries, pm2.matrix.entries
    b1, b2 = complex(pm1.b), complex(pm2.b)
    if "swap_order" not in manips:
        entries = _matmul(a1, a2, d1, d2)
        b_hat = (b1.conjugate() if d1 else b1) * (b2.conjugate() if d2 else b2)
    elif d1 and d2:
        entries = _matmul(a2, a1, True, True)
        b_hat = (b1 * b2).conjugate()
    elif d1:
        entries = _matmul(a1, a2, False, True, transpose=True)
        b_hat = b1 * b2.conjugate()
    elif d2:
        entries = _matmul(a1, a2, True, False, transpose=True)
        b_hat = b1.conjugate() * b2
    else:
        entries = _matmul(a2, a1)
        b_hat = b1 * b2
    return ComplexMatrix(pm1.n, entries), b_hat


def flagged_state(pm1: PreparedMatrix, pm2: PreparedMatrix, manipulations) -> tuple[np.ndarray, float]:
    """Run the circuit up to and including the conditional measurement.

    Returns the renormalized payload of the flagged branch, a float64
    tensor indexed [K1, R1, C2, M1] of shape (2, 2**n, 2**n, 2), and the
    branch's pre-projection weight.  Only the K1 = K2 quarters of w1's row
    (:func:`_w1_diagonal`) and the payload (:func:`flag_and_measure`) are
    computed, on ``layout_for(pm1.n)``; a run whose :func:`peak_bytes`
    would not fit in physical memory is refused before anything is
    allocated.
    """
    layout = layout_for(pm1.n)
    require_memory(layout, peak_bytes(layout), "what a run holds at once and the runtime")
    return flag_and_measure(_w1_diagonal(pm1, pm2, manipulations), layout)


def run_pipeline(
    pm1: PreparedMatrix, pm2: PreparedMatrix, manipulations=(), *, verify: bool = True
) -> ProductResult:
    """Run the whole circuit, decode, and verify against the classical oracle.

    Manipulations apply in the order of :data:`MANIPULATION_STAGES`.  The
    product and the slack are read off the flagged payload's K1 = 1 and
    K1 = 0 slabs, the product's entries through a complex view of the
    slab's (re, im) pairs, multiplied by ``g_exact`` into a C-contiguous
    array.  With ``verify`` false the oracle is not run and
    ``oracle_error`` is NaN.
    """
    manips = _check_manipulations(manipulations)
    payload, branch_probability = flagged_state(pm1, pm2, manips)

    # the flagged branch carries weight G^2 / 2^(n+1)
    g_exact = math.sqrt(branch_probability * float(1 << (pm1.n + 1)))
    # the K1 = 1 slab's (re, im) pairs as complex entries, a view
    product = payload[1].view(np.complex128)[..., 0]
    if "swap_order" in manips:
        product = product.T
    entries = np.multiply(product, g_exact, order="C")
    matrix_hat = ComplexMatrix(pm1.n, entries)
    b_hat = complex(payload[0, 0, 0, 0], payload[0, 0, 0, 1]) * g_exact
    # only the decoded product is held through the oracle
    del payload, product, entries

    oracle_error = math.nan
    if verify:
        expected, _expected_b = oracle_product(pm1, pm2, manips)
        oracle_error = float(np.max(np.abs(matrix_hat.entries - expected.entries)))
    return ProductResult(
        matrix_hat=matrix_hat,
        b_hat=b_hat,
        g_exact=g_exact,
        branch_probability=float(branch_probability),
        oracle_error=oracle_error,
        scale_back=pm1.scale * pm2.scale,
    )


@dataclass(frozen=True)
class ResourceReport:
    """Analytic circuit-size accounting.

    The simulator computes only two quarters of w1's row from the operands
    and writes w2's flagged output straight into the payload tensor, so
    these numbers describe the abstract circuit rather than the kernels.
    The elementary depth of the payload-flagging gate follows a
    chained-Toffoli model for a gate with k controls (2k - 3 layers, plus
    one CNOT to copy onto the second ancilla), which is linear in the
    control count.
    """

    n: int
    qubits: int
    qubits_with_controls: int
    gate_counts: dict
    w3_control_qubits: int
    w3_elementary_depth: int
    depth_total: int


def resource_report(n: int) -> ResourceReport:
    """Qubit and gate counts for matrices of size 2**n.

    Total depth is dominated by the payload-flagging stage and grows
    linearly in n, i.e. logarithmically in the matrix size: the contraction
    CNOTs and the Hadamard layer each act on disjoint qubits (depth 1), the
    label algebra adds a constant, and each manipulation is at most 2n+1
    disjoint-qubit gates.
    """
    if n < 1:
        raise ParameterError(f"matrix register width must be at least 1, got {n}")
    w3_controls = 2 * (n + 1)
    w3_depth = (2 * w3_controls - 3) + 1
    depth_total = 1 + 1 + 3 + w3_depth
    gate_counts = {
        "w0_cnots": n,
        "w1_hadamards": n,
        "w2_gates": 3,
        "w3_gates": 1,
        "q1_gates": n + 1,
        "q2_gates": n + 1,
        "q3_gates": 2 * n + 1,
    }
    return ResourceReport(
        n=n,
        qubits=4 * n + 6,
        qubits_with_controls=4 * n + 9,
        gate_counts=gate_counts,
        w3_control_qubits=w3_controls,
        w3_elementary_depth=w3_depth,
        depth_total=depth_total,
    )
