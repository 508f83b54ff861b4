"""Threshold searches of earlier designs: the test-only references.

The package once found each critical noise strength by scanning a dyadic
grid for a bracket (1024 cells in mu for members, 64 cells in lam for the
member-independent limit) and bisecting it. Both criteria change sign at
most once, so the package then bisected from [0, 1] directly; the scans
stay here, unchanged, as the reference that the member bisection is
compared against. critical_lambda_bisection_from_sld is that bisection
as it was, over Fraction brackets, and bisection_cell its last cell; it is
the reference at tolerances coarser than the scan's cell. Their sign test
is the package's earlier one, _poly_sign_at, a Horner pass at the
numerator and denominator of a Fraction point, so the reference shares no
sign code with the package's integer halving.

The limit's bisection, critical_lambda_asymptotic_bisection, is the
reference for the package's exact crossing search on the same dyadic
grid: both must end on the same cell, and so return the same float.

criterion_vanishes_at_one is the package's earlier decision whether every
member's criterion vanishes at lam = 1, by GF calculus on the closed form;
the package now reads it off the members' integer sector lengths.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath as mp

from sldgf.algebra import _univariate
from sldgf.analysis import (WORKING_DPS, AnalysisError,
                            DegenerateSingularityError, NoThresholdError,
                            criterion_asymptotic_ratio)
from sldgf.family import SLD
from sldgf.transfer import TransferSystem, family_gf


def _poly_sign_at(coeffs: list[int], mu: Fraction) -> int:
    """Exact sign of an integer polynomial at mu, in pure integers:
    evaluates b^deg * P(a/b) by Horner."""
    a, b = mu.numerator, mu.denominator
    value = coeffs[-1]
    b_power = 1
    for c in reversed(coeffs[:-1]):
        b_power *= b
        value = value * a + c * b_power
    return (value > 0) - (value < 0)


def critical_lambda_from_sld(sld: SLD, tol: float) -> float | None:
    if tol <= 0:
        raise AnalysisError("tolerance must be positive")
    # integer coefficients of Q = Q1 - Q2 as a polynomial in mu = lam^2
    coeffs = [(sld.n - 2 * k) * a for k, a in enumerate(sld)]
    if _poly_sign_at(coeffs, Fraction(1)) >= 0:
        return None
    grid = 1024
    lo = None
    for k in range(grid - 1, -1, -1):
        mu = Fraction(k, grid)
        if _poly_sign_at(coeffs, mu) >= 0:
            lo, hi = mu, Fraction(k + 1, grid)
            break
    if lo is None:  # Q(0) = n > 0, so a sign change always exists
        raise AnalysisError("criterion sign change not found")
    for _ in range(200):
        if math.sqrt(hi) - math.sqrt(lo) < tol:
            break
        mid = (lo + hi) / 2
        if _poly_sign_at(coeffs, mid) < 0:
            hi = mid
        else:
            lo = mid
    return math.sqrt((lo + hi) / 2)


def bisection_cell(sld: SLD,
                   tol: float) -> tuple[Fraction, Fraction] | None:
    """The last cell [lo, hi] of halving [0, 1] with Fraction brackets, as
    the package halved before its bracket became grid integers: the stop
    test reads the Fraction ends as floats. None when the member has no
    threshold."""
    if not 0 < tol < math.inf:
        raise AnalysisError("tolerance must be positive and finite")
    coeffs = [(sld.n - 2 * k) * a for k, a in enumerate(sld)]
    if _poly_sign_at(coeffs, Fraction(1)) >= 0:
        return None
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(200):
        if math.sqrt(hi) - math.sqrt(lo) < tol:
            break
        mid = (lo + hi) / 2
        if _poly_sign_at(coeffs, mid) < 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def critical_lambda_bisection_from_sld(sld: SLD,
                                      tol: float) -> float | None:
    """The member threshold by halving [0, 1] with Fraction brackets: sqrt
    of the midpoint of bisection_cell, read as a float."""
    cell = bisection_cell(sld, tol)
    return None if cell is None else math.sqrt(sum(cell) / 2)


def binomial_sld(n: int) -> SLD:
    """An SLD on n qubits with A_k about C(n, k) 3^k / 2^n and A_0 = 1, its
    crossing near mu = 1/3. Past about 1000 qubits its largest A_k is out
    of a float's range, and past about 2500 every shifted term of the float
    guess's sums underflows near the crossing."""
    sectors = [1] + [math.comb(n, k) * 3 ** k >> n for k in range(1, n + 1)]
    sectors[-1] += (1 << n) - sum(sectors)
    return SLD(tuple(sectors))


def critical_lambda_asymptotic(sys: TransferSystem,
                               tol: float = 1e-10) -> float:
    with mp.workdps(WORKING_DPS):
        def h(lam: Fraction) -> mp.mpf:
            return criterion_asymptotic_ratio(sys, lam) - 1

        grid = 64
        bracket = None
        previous = None
        for k in range(1, grid):
            lam = Fraction(k, grid)
            try:
                value = h(lam)
            except DegenerateSingularityError:
                previous = None
                continue
            if previous is not None and mp.sign(value) != mp.sign(previous[1]):
                bracket = (previous[0], lam)
                break
            previous = (lam, value)
        if bracket is None:
            edge = Fraction(1) - Fraction(1, 1 << 20)
            try:
                edge_value = h(edge)
            except DegenerateSingularityError:
                edge_value = None
            if edge_value is not None and abs(edge_value) < 1e-3:
                return 1.0
            raise NoThresholdError(
                "asymptotic criterion ratio has no sign change in [0, 1]")
        lo, hi = bracket
        sign_lo = mp.sign(h(lo))
        for _ in range(200):
            if float(hi - lo) < tol:
                break
            mid = (lo + hi) / 2
            if mp.sign(h(mid)) == sign_lo:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def criterion_vanishes_at_one(sys: TransferSystem) -> bool:
    """Whether sum_r P_r(1) z^r = (W_x - W_y)(1, 1, z) is identically 0,
    with P_r(1) = sum_k (n - 2k) A_k: q^2 times it is (p_x - p_y) q -
    p (q_x - q_y) at (1, 1) for the closed form W = p/q."""
    gf = family_gf(sys)
    num, den = gf.num, gf.den
    p, q, p_x, p_y, q_x, q_y = (
        _univariate(f, Fraction(1), Fraction(1))
        for f in (num, den, num.partial("x"), num.partial("y"),
                  den.partial("x"), den.partial("y")))
    return ((p_x - p_y) * q - p * (q_x - q_y)).is_zero()


def critical_lambda_asymptotic_bisection(sys: TransferSystem,
                                         tol: float = 1e-10) -> float:
    """The limit by halving [0, 1], one pole search per halving, after the
    edge point 1 - 2^-20 and with the same boundary rules as the package."""
    if sys.spec.qubit_step == 0:
        raise AnalysisError(f"family {sys.spec.name} does not grow: its "
                            f"qubit_count.step is 0")
    if not 0 < tol < math.inf:
        raise AnalysisError("tolerance must be positive and finite")
    with mp.workdps(WORKING_DPS):
        @functools.cache
        def h(lam: Fraction) -> mp.mpf:
            return criterion_asymptotic_ratio(sys, lam) - 1

        edge = Fraction(1) - Fraction(1, 1 << 20)
        if h(edge) <= 0:
            lo, hi = Fraction(0), Fraction(1)
            for _ in range(200):
                if float(hi - lo) < tol:
                    break
                mid = (lo + hi) / 2
                if h(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            return float((lo + hi) / 2)
        if h(edge) < 1e-3:
            if criterion_vanishes_at_one(sys):
                raise NoThresholdError(
                    "no member has a threshold: the criterion vanishes at "
                    "lam = 1 on every member")
            return 1.0
        raise NoThresholdError(
            "asymptotic criterion ratio has no sign change in [0, 1]")
