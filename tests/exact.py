"""The exact product of two operands for each manipulation set, in rational
arithmetic.

Every float64 is a dyadic rational, so ``fractions.Fraction`` holds each
component of an operand's entries exactly, and sums and products of them
round nowhere.  The product for a manipulation set is the composition in
the README's table of the eight subsets:

  no exchange             -> op1(A1) op2(A2), opi the conjugate transpose
                             when daggeri is set, else the identity
  exchange alone          -> A2 A1
  exchange + dagger1      -> transpose(A1 A2^dagger)
  exchange + dagger2      -> transpose(A1^dagger A2)
  exchange + both         -> A2^dagger A1^dagger

Like ``bruteforce.py`` this module shares no arithmetic with the package:
it imports nothing from qamp but the matrix type, whose entries it reads.

The bounds, proved as follows.  u = 2^-53 is the unit roundoff.  Entry
(j, k) of a product XY is Z = sum over l of x_l y_l, with x_l = X[j, l]
= (x0, x1) and y_l = Y[l, k] = (y0, y1) in components.  Let P =
(|X||Y|)_jk = sum |x_l| |y_l|, A = sum (|x0 y0| + |x1 y1|) and B = sum
(|x0 y1| + |x1 y0|).  Per term, (|x0 y0| + |x1 y1|)^2 + (|x0 y1| +
|x1 y0|)^2 = |x|^2 |y|^2 + 4 |x0 x1 y0 y1| <= 2 |x|^2 |y|^2, so
sqrt(A^2 + B^2) <= sqrt(2) P (Minkowski).  Conjugating and transposing
are exact; with no overflow or underflow every rounding is a factor
1 + d, |d| <= u, and a real sum whose terms each carry at most k of them
is within gamma_k = k u / (1 - k u) of its exact value, relative to the
sum of its terms' moduli.  Rounding both components of a complex value z,
each to within u of itself, moves z by at most u |z|.

- The oracle rounds each term's two products and their difference or
  sum, then adds the terms in l order onto +0.0, whose first addition is
  exact: k = dim + 1 for each component, so the error is at most
  sqrt(2) gamma_(dim+1) P.
- The run sums each pair of components' products x_a y_b times s, the
  float 2.0 ** (-n / 2), in order onto +0.0: a rounding for the product,
  one for the scaling unless n is even (s is then a power of two) and
  dim - 1 additions, so k <= dim + 1, and the complex value that w2
  combines is within sqrt(2) gamma_(dim+1) s P of s Z.  Four roundings
  of each component follow: w2's difference or sum, its product by the
  float h of 1/sqrt(2), the division by r = fl(sqrt(W)), W the branch
  weight, and the product by g = fl(sqrt(W 2^(n+1))).  Their constant
  C = s h g / r is 1 in exact arithmetic.  For odd n, g = r 2^((n+1)/2)
  exactly, since scaling by a power of two commutes with rounding, and s
  is within one ulp, 2u, of 2^(-n/2); for even n, s is exact and g / r is
  sqrt(2) 2^(n/2) within a factor (1 + u) / (1 - u).  h is within 0.80 u
  of 1/sqrt(2).  So |C - 1| <= 2.8 u + 4 u^2, and the run's error is at
  most (sqrt(2) (dim + 1) + 4 + 2.8) u P + 4 (dim + 4)^2 u^2 P.

Both are at most (2 dim + 8) u P: (2 - sqrt(2)) dim + 8 - sqrt(2) - 6.8
is at least 0.95 for dim >= 2, and the second-order term is below
0.001 u P for dim <= 2^20.  Since sum |x_l| |y_l| <= ||X||_F ||Y||_F
(Cauchy-Schwarz on row j and column k), the same constant bounds the
error by (2 dim + 8) u ||A1||_F ||A2||_F as well.  The tests compute each
error and each bound in floating point, off by a few u relative, well
inside the 8 % margin that the entrywise bound leaves at dim = 2.
"""

import math
from fractions import Fraction

from qamp.complexmat import ComplexMatrix


def exact_entries(a: ComplexMatrix) -> list:
    """Rows of (re, im) Fraction pairs, each the exact value of a float64."""
    return [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in a.entries.tolist()]


def dagger(m: list) -> list:
    return [[(re, -im) for re, im in column] for column in zip(*m)]


def transpose(m: list) -> list:
    return [list(column) for column in zip(*m)]


def matmul(a: list, b: list) -> list:
    columns = list(zip(*b))
    out = []
    for row in a:
        out.append([])
        for column in columns:
            re = sum(x0 * y0 - x1 * y1 for (x0, x1), (y0, y1) in zip(row, column))
            im = sum(x0 * y1 + x1 * y0 for (x0, x1), (y0, y1) in zip(row, column))
            out[-1].append((Fraction(re), Fraction(im)))
    return out


def exact_product(a1: ComplexMatrix, a2: ComplexMatrix, manipulations=()) -> list:
    """The exact product of ``a1`` and ``a2`` for a manipulation set, rows
    of (re, im) Fraction pairs."""
    x1, x2 = exact_entries(a1), exact_entries(a2)
    d1, d2 = "dagger1" in manipulations, "dagger2" in manipulations
    if "swap_order" not in manipulations:
        return matmul(dagger(x1) if d1 else x1, dagger(x2) if d2 else x2)
    if d1 and d2:
        return matmul(dagger(x2), dagger(x1))
    if d1:
        return transpose(matmul(x1, dagger(x2)))
    if d2:
        return transpose(matmul(dagger(x1), x2))
    return matmul(x2, x1)


def frobenius(a: ComplexMatrix) -> float:
    """||a||_F from its exact squared sum, rounded once."""
    return math.sqrt(float(sum(re * re + im * im for row in exact_entries(a) for re, im in row)))


def error_bound(a1: ComplexMatrix, a2: ComplexMatrix) -> float:
    """The normwise forward-error bound (2 dim + 8) 2^-53 ||A1||_F ||A2||_F
    on every entry of a decoded product and of the oracle's, which the
    entrywise bound of :func:`entry_bounds` implies."""
    return (2 * a1.dim + 8) * 2.0**-53 * frobenius(a1) * frobenius(a2)


def entry_bounds(a1: ComplexMatrix, a2: ComplexMatrix, manipulations=()) -> list:
    """The entrywise bound (2 dim + 8) 2^-53 (|X||Y|)_jk on each entry
    (j, k) of the product XY that :func:`exact_product` forms for the
    manipulation set, rows of floats: the exact product of the entries'
    moduli, composed as for the set (an entry and its conjugate have one
    modulus), rounded once and scaled."""
    moduli = [ComplexMatrix(a.n, abs(a.entries)) for a in (a1, a2)]
    scale = (2 * a1.dim + 8) * 2.0**-53
    return [[scale * float(re) for re, _im in row] for row in exact_product(*moduli, manipulations)]


def entry_errors(got: ComplexMatrix, exact: list) -> list:
    """The modulus of each entry of ``got`` minus the exact product, rows of
    floats, each difference taken exactly and rounded once per component."""
    return [
        [math.hypot(float(re - exact_re), float(im - exact_im)) for (re, im), (exact_re, exact_im) in zip(*rows)]
        for rows in zip(exact_entries(got), exact)
    ]


def max_error(got: ComplexMatrix, exact: list) -> float:
    """The largest modulus of an entry of ``got`` minus the exact product."""
    return max(map(max, entry_errors(got, exact)))
