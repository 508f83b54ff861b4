"""Grid-scan threshold searches: the test-only reference.

The package once found each critical noise strength by scanning a dyadic
grid for a bracket (1024 cells in mu for members, 64 cells in lam for the
member-independent limit) and bisecting it. Both criteria change sign at
most once, so the package now bisects from [0, 1] directly; these scans
stay here, unchanged, as the reference that the bisection is compared
against.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from sldgf.analysis import (WORKING_DPS, AnalysisError,
                            DegenerateSingularityError, NoThresholdError,
                            _poly_sign_at, criterion_asymptotic_ratio)
from sldgf.family import SLD
from sldgf.transfer import TransferSystem


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
