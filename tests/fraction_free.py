"""Fraction-free linear solving over LaurentPoly3: the test-only reference.

The family generating function was once the component sum of the
fraction-free (Bareiss/Montante) solution of (I - zT) u = v. The package now
derives it from the minimal recurrence of the members; this solve stays
here, unchanged, as the independent reference that ``family_gf`` is
compared against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from sldgf.algebra import (AlgebraError, Exponent, LaurentPoly3, PolyMatrix,
                           RatFunc3, ratfunc_normalize)

Z = LaurentPoly3.monomial(0, 0, 1)


class SingularMatrixError(AlgebraError):
    """Fraction-free elimination hit a matrix with zero determinant."""


class ExactDivisionError(AlgebraError):
    """Polynomial division was requested where the quotient is not exact."""


def divexact(num: LaurentPoly3, den: LaurentPoly3) -> LaurentPoly3:
    """Exact division in the Laurent polynomial ring.

    Raises ExactDivisionError if den does not divide num exactly; this is a
    hard internal error when triggered from fraction-free elimination.
    """
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero():
        return LaurentPoly3()
    # Shift both operands so all exponents are nonnegative; minimal exponents
    # are additive under multiplication, so the quotient picks up the offset.
    na = num.min_exponents()
    nb = den.min_exponents()
    a = num.shift((-na[0], -na[1], -na[2]))
    b = den.shift((-nb[0], -nb[1], -nb[2]))
    lead_b, lc_b = max(b.terms.items())
    quotient: dict[Exponent, Fraction] = {}
    rem = a
    while rem.terms:
        lead_r, lc_r = max(rem.terms.items())
        e = (lead_r[0] - lead_b[0], lead_r[1] - lead_b[1], lead_r[2] - lead_b[2])
        if e[0] < 0 or e[1] < 0 or e[2] < 0:
            raise ExactDivisionError("inexact polynomial division")
        c = lc_r / lc_b
        quotient[e] = c
        rem = rem - b.shift(e).scale(c)
    result = LaurentPoly3(quotient)
    offset = (na[0] - nb[0], na[1] - nb[1], na[2] - nb[2])
    return result.shift(offset)


def _fraction_free_jordan(aug: list[list[LaurentPoly3]],
                          n: int) -> list[list[LaurentPoly3]]:
    """Fraction-free Gauss-Jordan (Montante) elimination in place.

    ``aug`` has n rows and at least n columns; the first n columns are the
    square system. On return every diagonal entry equals the determinant up
    to the sign of the row swaps, and column j >= n holds the row's
    diagonal entry times solution_j. All intermediate divisions are exact.
    """
    width = len(aug[0])
    prev = LaurentPoly3.const(1)
    for k in range(n):
        if aug[k][k].is_zero():
            for r in range(k + 1, n):
                if not aug[r][k].is_zero():
                    aug[k], aug[r] = aug[r], aug[k]
                    break
            else:
                raise SingularMatrixError("zero determinant")
        pivot = aug[k][k]
        pivot_row = aug[k]
        for i in range(n):
            if i == k:
                continue
            row = aug[i]
            factor = row[k]
            if factor.is_zero():
                for j in range(width):
                    if j == k:
                        continue
                    entry = row[j]
                    if not entry.is_zero():
                        row[j] = divexact(pivot * entry, prev)
            else:
                for j in range(width):
                    if j == k:
                        continue
                    row[j] = divexact(pivot * row[j] - factor * pivot_row[j], prev)
                row[k] = LaurentPoly3.zero()
        prev = pivot
    return aug


def solve_linear_raw(m: PolyMatrix,
                     b: Sequence[LaurentPoly3]) -> tuple[list[LaurentPoly3], LaurentPoly3]:
    """Solve m @ u = b exactly; returns (numerators, common denominator).

    The solution is u_i = numerators[i] / denominator with denominator equal
    to det(m) up to sign. Raises SingularMatrixError when det(m) == 0.
    """
    if m.rows != m.cols:
        raise AlgebraError("solve_linear needs a square matrix")
    n = m.rows
    if len(b) != n:
        raise AlgebraError("right-hand side has wrong length")
    aug = [list(m.data[i]) + [b[i]] for i in range(n)]
    aug = _fraction_free_jordan(aug, n)
    det = aug[n - 1][n - 1]
    nums = []
    for i in range(n):
        num = aug[i][n]
        if aug[i][i] != det:
            # Diagonal entries can only differ by the bookkeeping sign of row
            # swaps; rescale so every numerator is relative to one denominator.
            num = divexact(num * det, aug[i][i])
        nums.append(num)
    return nums, det


def solve_linear(m: PolyMatrix, b: PolyMatrix) -> list[RatFunc3]:
    """Solve m @ u = b for a column matrix b, componentwise as RatFunc3."""
    nums, den = solve_linear_raw(m, b.column(0))
    return [ratfunc_normalize(num, den) for num in nums]


def identity(n: int) -> PolyMatrix:
    m = PolyMatrix.zeros(n, n)
    for i in range(n):
        m.data[i][i] = LaurentPoly3.const(1)
    return m


def resolvent_matrix(t: PolyMatrix) -> PolyMatrix:
    """I - z T, whose solution against v sums the iterates T^r v z^r."""
    eye = identity(t.rows)
    return PolyMatrix([[a - b * Z for a, b in zip(row_i, row_t)]
                       for row_i, row_t in zip(eye.data, t.data)])
