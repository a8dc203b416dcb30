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
    """The forward-error bound of a float64 product of two dim x dim
    matrices, (2 dim + 8) 2^-53 ||A1||_F ||A2||_F, that a decoded product
    and the oracle's are held to."""
    return (2 * a1.dim + 8) * 2.0**-53 * frobenius(a1) * frobenius(a2)


def max_error(got: ComplexMatrix, exact: list) -> float:
    """The largest modulus of an entry of ``got`` minus the exact product,
    each difference taken exactly and rounded once per component."""
    worst = 0.0
    for row, want_row in zip(exact_entries(got), exact):
        for (re, im), (want_re, want_im) in zip(row, want_row):
            worst = max(worst, math.hypot(float(re - want_re), float(im - want_im)))
    return worst
