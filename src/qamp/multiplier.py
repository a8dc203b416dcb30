"""The multiplication pipeline.

Starting from the joint state of the two encoded operands, the stages run
in this order:

  w0  contraction CNOTs: each first-operand column qubit toggles the
      matching second-operand row qubit, so terms whose inner indices agree
      land on R2 = 0
  w1  Hadamards over C1 fold the inner-index sum into the C1 = 0 slice
      (summed unscaled in c order, then scaled once by 2**(-n/2))
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
- w1's C1 = 0 row is the sum over c of w0's (C1 = c, R2 = 0) slice,
  added in c order from +0.0 and then multiplied once by 2**(-n/2);
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
one 2**(n+1) x 2**(n+1) array each, from each operand's entries, read in
place or in one copy transposed and conjugated as the manipulations ask,
and its slack pair, two Python floats (:func:`_operand_factors`, the one
operand reader); no component tensor is built.
The K1 = K2 = 0 quarter is +0.0 but for its 2 x 2 corner, the product of
the two slack pairs, taken in Python floats with the IEEE operations that
numpy would round alike, since an operand's K = 0 slab holds just the slack;
the K1 = K2 = 1 quarter sums one unscaled outer product per c, in c
order, in one two-operand einsum, and multiplies the sum by 2**(-n/2)
once.  :func:`flag_and_measure` writes w2's flagged output from the
quarters straight into the payload, a component tensor indexed [K1, R1,
C2, M1] (2**(2n+2) amplitudes), then weighs and renormalizes it.  The product is read through a complex view of the
payload's K1 = 1 slab, and the estimator's K1 = 0 weight straight off
that tensor.  A run builds no layout: it sizes itself from n, checked
once at its head (:func:`flagged_state`), and looks the measured qubit up
on ``layout_for(n)`` only to name it when the branch has zero weight.

The full-register stages that the run is held to, bit for bit, are in
:mod:`qamp.conjugator`; this module imports nothing of them, nor of the
gate engine or the encoding on a register state.  It holds what the run
and that reference share: the exactly rounded weight (:func:`_weight`,
an error-free extraction certified on each call, with ``math.fsum`` of
the sorted squares as its fallback),
the encoded norm check (:func:`_check_norm`) and the memory preflight
(:func:`require_memory`).

Before allocating, a run is refused when its :func:`peak_bytes` (what a
run holds at once and :data:`RUNTIME_BYTES`) exceed physical memory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .complexmat import ComplexMatrix, PreparedMatrix, _matmul
from .errors import DimensionError, MeasurementError, ParameterError, ValidationError, _width
from .registers import layout_for

MANIPULATIONS = frozenset({"dagger1", "dagger2", "swap_order"})

_SQRT1_2 = 1.0 / math.sqrt(2.0)

#: an encoded state whose squared norm strays further than this from 1 is
#: refused
ENCODE_NORM_TOL = 1e-10

#: resident bytes of the process around a run's or a stage's arrays: the
#: interpreter and numpy (36 MB before an n = 5 run on Python 3.11 with
#: numpy 2.4)
RUNTIME_BYTES = 64 << 20

#: the full-register stages that perfbench's replay imports from this
#: module; :func:`__getattr__` forwards them to :mod:`qamp.conjugator`
#: until the replay imports them from there
_FORWARDED = frozenset(
    ("build_initial", "apply_w0", "apply_w1", "apply_w2", "apply_w3", "conditional_measure")
)


def __getattr__(name: str):
    """Look a stage of :data:`_FORWARDED` up in :mod:`qamp.conjugator` on
    each access, without keeping it here."""
    if name not in _FORWARDED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import conjugator

    return getattr(conjugator, name)


def _squares(view: np.ndarray) -> np.ndarray:
    """The squares of a view's nonzero amplitudes, in a new float64 array
    that holds nothing else; the nonzero mask, an eighth of the view's
    bytes, is freed on return."""
    squares = view[view != 0]  # a copy, squared in place
    np.multiply(squares, squares, out=squares)
    return squares


def _sorted_fsum(view: np.ndarray) -> float:
    """``math.fsum`` of a view's nonzero squares: what :func:`_weight`
    returns where it cannot certify its own sum.  The squares reach it
    largest first, which keeps its partial sums few and raises
    ``OverflowError`` whenever the finite squares sum past float64, an
    overflowed square among them or not, through a memoryview of the
    float64 copy, which hands over one Python float at a time: beside the
    copy a dense view holds no Python float per amplitude."""
    squares = _squares(view)
    squares.sort()  # sorting the reversed view instead would copy it
    return math.fsum(memoryview(squares[::-1]))


def _weight(view: np.ndarray) -> float:
    """Exactly rounded sum of squares over a view: ``math.fsum`` of the
    squares of its nonzero amplitudes, bit for bit.  The result depends
    neither on the order of the amplitudes nor on how many zeros the view
    carries, so a subspace weighs the same, bit for bit, in every state
    that holds it.

    The sum is taken by error-free extraction (Rump, Ogita and Oishi,
    "Accurate floating-point summation part I: faithful rounding", SIAM J.
    Sci. Comput. 2008) in a few numpy passes, and certified on each call;
    a call that cannot be certified falls back to :func:`_sorted_fsum`.
    Let N be the count of nonzero squares, m = N.bit_length(), so that
    N < 2**m, u = 2**-53, and 2**e > |p| for every value p to be split,
    at first the squares (e from ``math.frexp`` of the largest).

    Split.  With sigma = 2**(m+e), each p splits as p = q + r with
    q = fl(fl(sigma + p) - sigma).  As |p| < 2**e <= sigma / 2,
    fl(sigma + p) lies in [sigma / 2, 2 sigma], so subtracting sigma is
    exact (Sterbenz), and q is p rounded to a multiple of u sigma, with
    |r| <= u sigma.  r = p - q is a float: it is p where q = 0, and
    otherwise a multiple of ulp(p) (which q is too, since |p| < sigma / 2)
    no larger than |p|, since q is nonzero only where |p| reaches half the
    grid's step.  Every |q| <= 2**e, so every partial sum of the q is a
    multiple of u sigma below N 2**e < sigma: each is a float, and tau,
    the sum of the q, is exact in any order, numpy's pairwise sum of each
    chunk and the chunk sums added in turn included.

    Certify.  The residuals' float sum R, taken the same way, is off from
    their exact sum by at most gamma(N - 1) times the sum of |r|, with
    gamma(k) = k u / (1 - k u) <= 2 k u, in any order; that is below
    2 N**2 u**2 sigma <= B = 2**(2m+1-106) sigma.  Addition rounds no
    result below the normal range, so neither the split nor the sums lose
    these properties there.  The exact sum S = tau + sum r thus lies in
    [tau + R - B, tau + R + B].  ``math.fsum`` rounds each end exactly, and
    rounding is monotone, so when the two ends round to the same float,
    that float is S rounded: the float that ``math.fsum`` of the squares
    gives.  Otherwise the residuals, each of magnitude at most
    u sigma < 2**(m+e-52), are split once more in place with that power of
    two as the new 2**e, and S = tau + tau' + sum r' is certified the same
    way with the new B.  The squares' array always holds what is left of
    S beside the parts already taken, so where it then holds only zeros,
    ``math.fsum`` of the parts is S rounded: a sum of few squares often
    lies exactly halfway between two floats, which no B > 0 certifies.

    Guards.  An overflowed square (inf) or NaN, a sigma beyond float64
    (m + e > 1023) and a B that underflows (below 2**-1074, so not a
    bound) each go straight to the fallback, which also raises what
    ``math.fsum`` raises when the squares' sum overflows.

    Memory.  The squares are one float64 copy of the nonzero amplitudes,
    split into their residuals in place.  The q go through one chunk
    buffer in the room of the freed nonzero mask, an eighth of the view's
    size in floats, but at least 640 (5 KiB), so that a run's payload at
    n = 4 (514 nonzero squares of 1024) takes one pass, and at most 2**16
    (512 KiB), so that a chunk and its q stay in cache between passes.  So
    beside the copy a dense view holds no Python float per amplitude and
    no second copy.
    """
    squares = _squares(view)
    count = squares.size
    if not count:
        return 0.0
    buffer = np.empty(min(count, max(640, min(view.size >> 3, 1 << 16))))
    m = count.bit_length()
    # the ufuncs' reduce, not ndarray.max or .sum: the method's first call
    # in a process keeps a small allocation in some processes only, so a
    # cold run's traced peak would vary
    top = float(np.maximum.reduce(squares))
    e = math.frexp(top)[1]  # 2**e > top
    parts = []  # tau of each split, exact
    for _ in range(2):
        bound = math.ldexp(1.0, 3 * m + e - 105)  # 2**(2m+1-106) sigma
        if not (top < math.inf and m + e <= 1023 and bound):  # also refuses NaN
            break
        sigma = math.ldexp(1.0, m + e)
        tau = rest = 0.0
        for start in range(0, count, buffer.size):
            chunk = squares[start : start + buffer.size]
            q = buffer[: chunk.size]
            np.add(chunk, sigma, out=q)
            np.subtract(q, sigma, out=q)
            tau += float(np.add.reduce(q))
            np.subtract(chunk, q, out=chunk)
            rest += float(np.add.reduce(chunk))
        parts.append(tau)
        low = math.fsum((*parts, rest, -bound))
        if low == math.fsum((*parts, rest, bound)):
            return low
        e += m - 52  # the residuals lie below u sigma = 2**(m+e-53)
    if not np.count_nonzero(squares):  # nothing is left of S beside the parts
        return math.fsum(parts)
    del squares, buffer
    return _sorted_fsum(view)


def _check_norm(squares: float) -> None:
    """Raise :class:`ValidationError` when an encoded state's squared norm
    ``squares`` strays from 1 by more than :data:`ENCODE_NORM_TOL`, or is
    NaN."""
    defect = abs(squares - 1.0)
    if not defect <= ENCODE_NORM_TOL:  # also refuses NaN
        raise ValidationError(f"encoded state norm defect {defect:.3e} exceeds {ENCODE_NORM_TOL}")


#: physical memory of this machine, read once at import
_PHYSICAL_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def physical_memory_bytes() -> int:
    """Physical memory of this machine (:data:`_PHYSICAL_MEMORY`)."""
    return _PHYSICAL_MEMORY


def require_memory(n: int, needed: int, what: str) -> None:
    """Raise :class:`ParameterError`, naming width ``n`` and the bytes, when
    ``needed`` bytes for ``what`` would not fit in physical memory."""
    available = physical_memory_bytes()
    if needed > available:
        raise ParameterError(
            f"n={n} needs {needed} bytes for {what}, "
            f"more than the {available} bytes of physical memory"
        )


def _check_widths(pm1: PreparedMatrix, pm2: PreparedMatrix) -> None:
    if pm1.n != pm2.n:
        raise DimensionError(f"operand widths differ: n={pm1.n} vs n={pm2.n}")


def _check_manipulations(manipulations) -> frozenset:
    """The manipulation set as a frozenset, once it is checked to be a
    collection of known names; a string is refused whole rather than read
    as one name per letter."""
    try:
        manips = None if isinstance(manipulations, str) else frozenset(manipulations)
    except TypeError:  # not iterable, or holding something unhashable
        manips = None
    if manips is None:
        raise ParameterError(f"manipulations must be a collection of names, got {manipulations!r}")
    unknown = manips - MANIPULATIONS
    if unknown:
        raise ParameterError(
            f"unknown manipulations {sorted(unknown, key=str)}; valid: {sorted(MANIPULATIONS)}"
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


def _orientation(pm1: PreparedMatrix, pm2: PreparedMatrix, manips):
    """Whether each operand's entries are read transposed and conjugated
    after the checked manipulations ``manips``: a (transposed, conjugated)
    pair per operand.

    The run takes each operand's entries with one row per value of its
    summed register, C1 for the first and R2 for the second, and entry
    (j, k) is encoded at R = j, C = k, so the plain first operand is read
    transposed and the plain second one is not.
    Manipulation 1 or 2 (:data:`qamp.conjugator.Q_ACTIONS`) trades its
    operand's row and column registers, which transposes that operand, and
    negates the label = 1 half of M1 or M2, which conjugates whichever
    operand's label sits there.  Manipulation 3 trades both operands'
    registers and crosses their labels, and in
    :data:`qamp.conjugator.MANIPULATION_STAGES` order it comes first, so
    that after it M1 holds the second operand's label and M2 the first's.
    """
    swap, d1, d2 = ("swap_order" in manips, "dagger1" in manips, "dagger2" in manips)
    return ((swap == d1, d2 if swap else d1), (swap != d2, d1 if swap else d2))


def _operand_factors(pm: PreparedMatrix, transposed: bool, conjugated: bool):
    """One operand's (slack, slab) pair, read straight from its entries.

    ``slack`` is the operand's K = 0 amplitudes at R = C = 0 as a tuple of
    two floats, (b.re, b.im) or, where the operand is conjugated,
    (b.re, -b.im); the rest of its K = 0 slab is zero.  ``slab`` is its
    K = 1 slab, a C-contiguous
    (2**n, 2**(n+1)) float64 view of complex entries read in one oriented
    call: the entries themselves, read in place, where neither bit is set,
    else one C-ordered copy of their transpose (``np.ascontiguousarray``),
    their conjugate or their conjugate transpose (``np.conjugate`` with
    ``order="C"``).  Both are bit for bit the operand's amplitudes
    after :func:`qamp.conjugator.apply_q` per manipulation, or after
    :func:`qamp.conjugator.hermitian_conjugate` when both bits are set,
    since copying, conjugating and negating are exact.  The encoded
    state's norm is checked as :func:`qamp.encoder.encode` checks it
    (:func:`_check_norm`): the slab's sum of squares (``np.vdot``) plus
    the slack's, taken in Python floats.
    """
    entries = pm.matrix.entries.T if transposed else pm.matrix.entries
    entries = np.conjugate(entries, order="C") if conjugated else np.ascontiguousarray(entries)
    slab = entries.view(np.float64)
    re, im = pm.b.real, -pm.b.imag if conjugated else pm.b.imag
    _check_norm(float(np.vdot(slab, slab)) + (re * re + im * im))
    return (re, im), slab


def _w1_diagonal(pm1: PreparedMatrix, pm2: PreparedMatrix, manipulations) -> np.ndarray:
    """The K1 = K2 diagonal of the C1 = R2 = 0 slice of
    :func:`qamp.conjugator.apply_w1` after :func:`qamp.conjugator.apply_w0`
    on :func:`qamp.conjugator.build_initial` and
    :func:`qamp.conjugator.apply_q` per manipulation, bit for bit, without
    that state: the two quarters of w1's row that w2's flagged output
    reads (:func:`flag_and_measure`).

    Returns the diagonal as an array indexed [k, R1, first label, C2,
    second label] at K1 = K2 = k: the first operand's label is M1 and the
    second's M2, or M2 and M1 when the operand exchange crossed them.

    On the product state w0 only moves amplitudes: at R2 = 0 its C1 = c
    slice is the first operand's factor at C1 = c times the second's at
    R2 = c, whatever the manipulations renamed, since C1 stays in the first
    operand's block and R2 in the second's.  Row 0 of the Hadamard matrix
    is 2**(-n/2) throughout, so the row is the sum over c of the outer
    product of those two factors, accumulated in c order from +0.0 and
    then multiplied once by 2**(-n/2), as :func:`qamp.conjugator.apply_w1`
    does.

    Each operand's two factors come straight from its entries
    (:func:`_operand_factors`, oriented by :func:`_orientation`): its
    slack pair, two floats, and its K = 1 slab, the entries or one copy of
    them transposed and conjugated as the manipulations ask, with a row per
    value of the register it is summed over (C1 for the first operand, R2
    for the second) and the other register and the label along the row.

    A manipulation never renames K, and an operand's K = 0 slab holds only
    the slack, at R = C = 0, so at K1 = K2 = 0 every term with c > 0, and
    every amplitude of the c = 0 term outside its 2 x 2 corner (R1 = C2 =
    0), is +-0.0.  Added to a sum that started at +0.0, those zeros give
    +0.0, and so does their scaling, so that quarter is +0.0 but for its
    corner: the product of the two slack pairs plus +0.0 (which turns a
    -0.0 into +0.0, as the sum does), times 2**(-n/2), each of its four
    amplitudes taken in Python floats, whose product, sum and product
    round as numpy's do.  The K1 = K2 = 1
    quarter takes the unscaled sum over every c in one two-operand einsum,
    written into the quarter, and then one in-place multiply by the scale.
    Both factors are C-contiguous, so numpy's iterator puts c outermost
    and every amplitude adds its terms in c order, in place, onto the +0.0
    that einsum writes first, as :func:`qamp.conjugator.apply_w1` does;
    each term is the rounded product of the two factors, fused with no
    addition.  At even n
    the scale is a power of two, so these are the bits that scaling each
    term would give, wherever nothing underflows.  The order canary
    (``test_fused_stages.py::test_w1_sums_in_c_order``) and the
    bit-for-bit tests against apply_w1 guard this on each platform and
    numpy version.
    """
    bits1, bits2 = _orientation(pm1, pm2, manipulations)
    slack1, first = _operand_factors(pm1, *bits1)
    slack2, second = _operand_factors(pm2, *bits2)
    dim = 1 << pm1.n
    scale = 2.0 ** (-pm1.n / 2)
    half = 2 * dim
    diagonal = np.zeros((2, half, half))
    (a0, a1), (b0, b1) = slack1, slack2
    corner = diagonal[0]
    corner[0, 0], corner[0, 1] = (a0 * b0 + 0.0) * scale, (a0 * b1 + 0.0) * scale
    corner[1, 0], corner[1, 1] = (a1 * b0 + 0.0) * scale, (a1 * b1 + 0.0) * scale
    np.einsum("cr,cs->rs", first, second, out=diagonal[1])
    np.multiply(diagonal[1], scale, out=diagonal[1])
    return diagonal.reshape(2, dim, 2, dim, 2)


def peak_bytes(n: int) -> int:
    """Resident bytes of a process at the peak of a run at width ``n``,
    bounded by everything a run holds at once: the two quarters of w1's
    row that it computes, 2**(2n+2) float64 amplitudes each, the payload
    and the squares of its weight (a quarter each), the two operands'
    entries (half a quarter each; w1 reads a plain operand's entries in
    place and one oriented copy of any other, freed before the payload is
    written), the weight's nonzero mask (an eighth of a quarter), then,
    once the mask is freed, the weight's chunk buffer in its room (at
    least 5 KiB, which :data:`RUNTIME_BYTES` covers), and
    :data:`RUNTIME_BYTES`, which also holds the buffers of w1's einsum
    (1.5 KiB traced at each n from 2 to 9); the sums of w1's row and of
    the oracle each write straight into their output.  The oracle runs
    once the row and the payload are freed: its two factors and its sums
    are 2**(2n) complex amplitudes, half a quarter, each, and it
    transposes no sum after the fact, so beside the operands and the
    decoded product it holds at most 3 quarters."""
    return (8 * 5 + 1) * 4 ** (n + 1) + RUNTIME_BYTES


def flag_and_measure(diagonal: np.ndarray) -> tuple[np.ndarray, float]:
    """:func:`qamp.conjugator.apply_w2`, :func:`qamp.conjugator.apply_w3`
    and :func:`qamp.conjugator.conditional_measure` from the K1 = K2
    diagonal of w1's row (:func:`_w1_diagonal`, with C1, R2 and the
    ancillae taken to be in |0>), kept to the payload.  The diagonal's axes
    are K1 = K2, R1, the first operand's label, C2 and the second's label.

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
    dim = diagonal.shape[1]
    payload = np.empty((2, dim, dim, 2))
    # the payload is [K1, R1, C2, M1]; out is [K1, M1, R1, C2]
    out = payload.transpose(0, 3, 1, 2)
    # diagonal[:, :, ma, :, mb] is the (R1, C2) matrix at each K1 = K2
    np.subtract(diagonal[:, :, 0, :, 0], diagonal[:, :, 1, :, 1], out=out[:, 0])
    np.add(diagonal[:, :, 1, :, 0], diagonal[:, :, 0, :, 1], out=out[:, 1])
    np.multiply(payload, _SQRT1_2, out=payload)
    weight = _weight(payload)
    if weight == 0.0:
        bt = layout_for(dim.bit_length() - 1).start("BT")
        raise MeasurementError(f"outcome 1 on qubit {bt} has zero probability")
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
      exchange + conjugate 1  -> transpose(A1 A2^dagger) = conj(A2) A1^T
      exchange + conjugate 2  -> transpose(A1^dagger A2) = A2^T conj(A1)
      exchange + both         -> (A1 A2)^dagger = A2^dagger A1^dagger

    Each is, bit for bit, :func:`qamp.complexmat.matmul_oracle` of
    :func:`qamp.complexmat.dagger_oracle` factors as on the left,
    transposed where shown, and is summed as the product on the right:
    :func:`qamp.complexmat._matmul` takes the first factor's transpose and
    the second factor, each the entries themselves or one C-contiguous
    copy of them, transposed or conjugated as the set asks.  transpose(XY)
    is Y^T X^T, and IEEE products and sums commute, so each entry adds the
    same terms in the same order as the transposed product does, and no
    sum is transposed after the fact.  Operands of different widths are
    refused once the manipulations are checked.
    """
    manips = _check_manipulations(manipulations)
    _check_widths(pm1, pm2)
    d1 = "dagger1" in manips
    d2 = "dagger2" in manips
    a1, a2 = pm1.matrix.entries, pm2.matrix.entries
    b1, b2 = complex(pm1.b), complex(pm2.b)
    if "swap_order" not in manips:  # op1(A1) op2(A2)
        x = np.conjugate(a1) if d1 else a1.T
        y = np.conjugate(a2.T, order="C") if d2 else a2
        b_hat = (b1.conjugate() if d1 else b1) * (b2.conjugate() if d2 else b2)
    elif d1 and d2:  # A2^dagger A1^dagger
        x, y, b_hat = np.conjugate(a2), np.conjugate(a1.T, order="C"), (b1 * b2).conjugate()
    elif d1:  # conj(A2) A1^T
        x, y, b_hat = np.conjugate(a2.T, order="C"), a1.T, b1 * b2.conjugate()
    elif d2:  # A2^T conj(A1)
        x, y, b_hat = a2, np.conjugate(a1), b1.conjugate() * b2
    else:  # A2 A1
        x, y, b_hat = a2.T, a1, b1 * b2
    entries = _matmul(np.ascontiguousarray(x), np.ascontiguousarray(y))
    del x, y  # the factors are freed before the sums are scanned
    return ComplexMatrix._fresh(pm1.n, entries), b_hat


def flagged_state(pm1: PreparedMatrix, pm2: PreparedMatrix, manipulations) -> tuple[np.ndarray, float]:
    """Run the circuit up to and including the conditional measurement.

    Returns the renormalized payload of the flagged branch, a float64
    tensor indexed [K1, R1, C2, M1] of shape (2, 2**n, 2**n, 2), and the
    branch's pre-projection weight.  Only the K1 = K2 quarters of w1's row
    (:func:`_w1_diagonal`) and the payload (:func:`flag_and_measure`) are
    computed.  Each input is checked once, here or by the caller: a width
    n below 1 is refused first, then operands of different widths, and
    then a run whose :func:`peak_bytes` would not fit in physical memory,
    before anything is allocated.  ``manipulations`` must already be
    checked (:func:`_check_manipulations`), as :func:`run_pipeline` and
    :func:`qamp.estimator.estimate_g` check them.
    """
    _width(pm1.n)
    _check_widths(pm1, pm2)
    require_memory(pm1.n, peak_bytes(pm1.n), "what a run holds at once and the runtime")
    return flag_and_measure(_w1_diagonal(pm1, pm2, manipulations))


def run_pipeline(
    pm1: PreparedMatrix, pm2: PreparedMatrix, manipulations=(), *, verify: bool = True
) -> ProductResult:
    """Run the whole circuit, decode, and verify against the classical oracle.

    Manipulations apply in the order of
    :data:`qamp.conjugator.MANIPULATION_STAGES`.  The product and the slack are read off the flagged payload's K1 = 1 and
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
    # a fresh complex128 array, finite since the payload is normalized
    matrix_hat = ComplexMatrix._fresh(pm1.n, entries, finite=True)
    b_hat = complex(payload[0, 0, 0, 0], payload[0, 0, 0, 1]) * g_exact
    # only the decoded product is held through the oracle
    del payload, product, entries

    oracle_error = math.nan
    if verify:
        expected, _expected_b = oracle_product(pm1, pm2, manips)
        # the ufunc's reduce, as in _weight, not ndarray.max
        error = np.abs(matrix_hat.entries - expected.entries)
        oracle_error = float(np.maximum.reduce(error, axis=None))
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
    control count.  ``qubits_with_controls`` adds the abstract circuit's
    three optional flag qubits, one to control each manipulation; the
    simulator does not model them, since it takes the manipulations as
    classical choices per run.
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
    disjoint-qubit gates.  ``n`` must be a matrix register width
    (:func:`qamp.errors._width`).
    """
    n = _width(n)
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
