"""The float pole kernel and the Fraction specialisation that feeds it: the
test-only reference.

The package decides the dominant pole by exact signs on integer
polynomials, and specialises a generating function at (x0, y0) in
integers. This module keeps the earlier forms: companion-matrix (np.roots)
estimates polished by Newton on mpc and mpf objects, with the modulus
taken again at each use and every decision a distance tolerance
(ROOT_CLUSTER_RTOL, MODULUS_TIE_RTOL, REAL_AXIS_RTOL); and each term's
c x0^ex y0^ey as a Fraction product, scaled back to integers by one
rational (normalise). Where this kernel isolates a simple pole, the
package must find the same one, and the specialisation must give the same
pairs.

A polynomial in z is a list of coefficients, low degree first, as in the
package. The Fraction arithmetic on such lists that the references need
(product, difference, derivative, long division and the Euclid gcd) lives
here, in one place; the package itself computes only in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from sldgf.algebra import (AlgebraError, LaurentPoly3, RatFunc3,
                           ZeroDenominatorError, _rational, uni_reduce)
from sldgf.analysis import (WORKING_DPS, AnalysisError,
                            DegenerateSingularityError, LeadingTerm,
                            _mpf_from_fraction, _noise_parameter)
from sldgf.transfer import TransferSystem, _gf_den_partials, family_gf

ROOT_CLUSTER_RTOL = 1e-8
MODULUS_TIE_RTOL = 1e-8
REAL_AXIS_RTOL = 1e-10


def bits(value) -> tuple:
    """The raw libmp tuple of an mpf or mpc, to compare two kernels by."""
    return getattr(value, "_mpc_", None) or value._mpf_


# -- polynomials in z over the rationals -------------------------------------


def trim(f) -> list[Fraction]:
    """f as Fractions, without trailing zeros."""
    f = [Fraction(c) for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def product(f, g) -> list[Fraction]:
    f, g = trim(f), trim(g)
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim(out)


def difference(f, g) -> list[Fraction]:
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)
                 for i in range(n)])


def derivative(f) -> list[Fraction]:
    return trim([k * c for k, c in enumerate(f)][1:])


def long_division(f, g) -> tuple[list[Fraction], list[Fraction]]:
    """(quotient, remainder) of f by the nonzero g over the rationals."""
    rem, g = trim(f), trim(g)
    if not g:
        raise ZeroDivisionError("univariate division by zero")
    quot = [Fraction(0)] * max(0, len(rem) - len(g) + 1)
    for i in range(len(rem) - len(g), -1, -1):
        factor = rem[i + len(g) - 1] / g[-1]
        quot[i] = factor
        for j, b in enumerate(g):
            rem[i + j] -= factor * b
    return trim(quot), trim(rem)


def euclid_gcd(f, g) -> list[Fraction]:
    """The monic gcd of f and g by Euclid over the rationals; [] where both
    are zero."""
    f, g = trim(f), trim(g)
    while g:
        f, g = g, long_division(f, g)[1]
    return [c / f[-1] for c in f] if f else f


def normalise(p, q) -> tuple[list[int], list[int]]:
    """p and q, q nonzero, scaled by one rational to integers with joint
    content 1 and a positive lowest nonzero coefficient of q."""
    p, q = trim(p), trim(q)
    coeffs = p + q
    denom_lcm = math.lcm(*(c.denominator for c in coeffs))
    numer_gcd = math.gcd(*(c.numerator * (denom_lcm // c.denominator)
                           for c in coeffs))
    factor = Fraction(denom_lcm, numer_gcd)
    if next(c for c in q if c) < 0:
        factor = -factor
    return [int(c * factor) for c in p], [int(c * factor) for c in q]


def reduce_pair(p, q) -> tuple[list[int], list[int]]:
    """p/q with the common factor cancelled over the rationals, normalised:
    the reduction that uni_reduce computes in integers."""
    if not trim(q):
        raise ZeroDenominatorError("univariate pair with zero denominator")
    if trim(p):
        g = euclid_gcd(p, q)
        p, q = long_division(p, g)[0], long_division(q, g)[0]
    return normalise(p, q)


# -- specialisation ------------------------------------------------------------


def z_coefficients(poly: LaurentPoly3, x0: int | Fraction,
                   y0: int | Fraction) -> list[Fraction]:
    """Coefficients, low degree first, of the polynomial in z left by
    substituting exact (x0, y0) into poly: one pass adding c x0^ex y0^ey to
    the coefficient of z^ez for each term. Raises AlgebraError for 0 to a
    negative power."""
    x0, y0 = _rational(x0), _rational(y0)
    for idx, value in enumerate((x0, y0)):
        if value == 0 and any(exp[idx] < 0 for exp in poly.terms):
            raise AlgebraError(f"evaluating at {'xy'[idx]} = 0 with a "
                               "negative exponent")
    coeffs = [Fraction(0)] * (poly.max_degree_z() + 1)
    for (ex, ey, ez), coeff in poly.terms.items():
        coeffs[ez] += coeff * x0 ** ex * y0 ** ey
    return coeffs


def univariate(poly: LaurentPoly3, x0, y0) -> list[Fraction]:
    return trim(z_coefficients(poly, x0, y0))


def uni_specialize(f: RatFunc3, x0, y0) -> tuple[list[int], list[int]]:
    p = univariate(f.num, x0, y0)
    q = univariate(f.den, x0, y0)
    if not q:
        raise ZeroDenominatorError("denominator vanishes at the given point")
    return normalise(p, q)


# -- the pole kernel -------------------------------------------------------------


def _mp_poly(poly):
    """poly, rational coefficients low degree first, as a Horner evaluator
    at mpmath points, its coefficients converted to mpf once, at the
    working precision of the call."""
    coeffs = [_mpf_from_fraction(c) for c in reversed(trim(poly))]

    def at(z) -> mp.mpc:
        acc = mp.mpc(0)
        for c in coeffs:
            acc = acc * z + c
        return acc
    return at


def _all_roots(q) -> list[mp.mpc]:
    """All complex roots: companion-matrix estimates polished by Newton."""
    import numpy as np

    # scale exactly before any float conversion so huge integer coefficients
    # cannot overflow a double
    q = trim(q)
    scale = max(abs(c) for c in q)
    coeffs_high_first = [float(c / scale) for c in reversed(q)]
    estimates = np.roots(coeffs_high_first)
    q_at, dq_at = _mp_poly(q), _mp_poly(derivative(q))
    roots = []
    for est in estimates:
        z = mp.mpc(est)
        for _ in range(8):
            d = dq_at(z)
            if abs(d) < mp.mpf("1e-30"):
                break
            step = q_at(z) / d
            z = z - step
            if abs(step) < mp.mpf("1e-35") * max(1, abs(z)):
                break
        roots.append(z)
    roots.sort(key=lambda w: (mp.fabs(w), mp.re(w), mp.im(w)))
    return roots


@dataclass
class SingularityReport:
    """Smallest-modulus root of a denominator polynomial and its
    neighbourhood, as the float kernel judges them."""

    z_star: mp.mpc
    real_positive: bool
    multiplicity: int
    unique: bool
    modulus_gap: float


def dominant_singularity(q) -> SingularityReport:
    """Locate the smallest-modulus root of q and judge its uniqueness.

    Ties in modulus and multiplicities are reported, not resolved: callers
    that need a unique simple dominant root must check the report.
    """
    q = trim(q)
    if not q:
        raise AnalysisError("zero polynomial has no singularities")
    if q[0] == 0:
        raise AnalysisError("q(0) = 0: series expansion point is singular")
    if len(q) == 1:
        raise AnalysisError("constant denominator has no singularities")
    with mp.workdps(WORKING_DPS):
        roots = _all_roots(q)
    min_mod = min(mp.fabs(r) for r in roots)
    near = [r for r in roots
            if mp.fabs(r) <= min_mod * (1 + MODULUS_TIE_RTOL)]
    real_positive_candidates = [
        r for r in near
        if abs(mp.im(r)) <= REAL_AXIS_RTOL * max(1, mp.fabs(r)) and mp.re(r) > 0]
    z_star = real_positive_candidates[0] if real_positive_candidates else near[0]
    cluster = [r for r in roots
               if mp.fabs(r - z_star) <= ROOT_CLUSTER_RTOL * max(1, mp.fabs(z_star))]
    outside = [r for r in roots
               if mp.fabs(r - z_star) > ROOT_CLUSTER_RTOL * max(1, mp.fabs(z_star))]
    if outside:
        second = min(mp.fabs(r) for r in outside)
        gap = float(second / min_mod)
    else:
        gap = math.inf
    real_positive = bool(
        abs(mp.im(z_star)) <= REAL_AXIS_RTOL * max(1, mp.fabs(z_star))
        and mp.re(z_star) > 0)
    return SingularityReport(
        z_star=z_star, real_positive=real_positive,
        multiplicity=len(cluster), unique=gap > 1 + MODULUS_TIE_RTOL,
        modulus_gap=gap)


def _residue(p, dq, z) -> mp.mpc:
    """Residue -p(z)/q'(z) of p/q at a simple root z of q."""
    return -_mp_poly(p)(z) / _mp_poly(dq)(z)


def _simple_pole(q) -> SingularityReport:
    """Dominant root of q, which must be unique and simple."""
    report = dominant_singularity(q)
    if not report.unique or report.multiplicity != 1:
        raise DegenerateSingularityError(
            report, "dominant singularity is not unique and simple")
    return report


def _reduced_specialisation(sys: TransferSystem, x0, y0):
    return uni_reduce(*uni_specialize(family_gf(sys), x0, y0))


# -- the asymptotics on this kernel ------------------------------------------


def fidelity_leading_term(sys: TransferSystem, lam) -> LeadingTerm:
    lam = _noise_parameter(lam)
    p, q = _reduced_specialisation(sys, Fraction(1, 2), lam / 2)
    report = _simple_pole(q)
    with mp.workdps(WORKING_DPS):
        return LeadingTerm(report, _residue(p, derivative(q), report.z_star))


def fidelity_asymptotic(sys: TransferSystem, lam, r: int) -> mp.mpf:
    return fidelity_leading_term(sys, lam).coefficient(r)


def criterion_asymptotic_ratio(sys: TransferSystem, lam) -> mp.mpf:
    mu = _noise_parameter(lam) ** 2
    with mp.workdps(WORKING_DPS):
        _, q = _reduced_specialisation(sys, Fraction(1), mu)
        report = _simple_pole(q)
        z = report.z_star
        q_x, q_y = _gf_den_partials(sys)
        num = _mp_poly(univariate(q_x, Fraction(1), mu))(z)
        den = _mp_poly(univariate(q_y, Fraction(1), mu))(z)
        if abs(den) <= mp.mpf("1e-25") * max(1, abs(num)):
            raise DegenerateSingularityError(
                report, f"criterion ratio is indeterminate at lam = {lam}")
        return mp.re(num / (_mpf_from_fraction(mu) * den))
