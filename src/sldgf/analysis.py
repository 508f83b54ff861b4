"""Entanglement and noise analysis built on the family generating functions.

Exact quantities (concentratable entanglement, depolarizing fidelity, the
purity-criterion polynomial and its roots) are computed with rational
arithmetic end to end. Floating point enters only through polynomial root
finding and the residue/asymptotic evaluations, done in mpmath at a working
precision well beyond double.

Singularity analysis operates on the univariate specialisation of the
family generating function after cancelling its common univariate factor.
The family generating functions are reduced by construction, so a common
factor appears only where numerator and denominator happen to share a root
at the chosen point; it is not a singularity of the function, and removing
it keeps the dominant root genuinely dominant (and real-positive, as
nonnegative series demand).

Every asymptotic goes through one pole kernel: `_simple_pole` (the dominant
root, required unique and simple) and `_residue` (-p(z*)/q'(z*)), which
`_leading_term` joins into a `LeadingTerm`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .algebra import UniPolyZ, _univariate, uni_reduce, uni_specialize
from .family import SLD, sld_from_wep, to_rational
from .transfer import (CE_POINT, TransferSystem, family_gf, iter_weps,
                       wep_by_iteration, wep_values_by_iteration)

WORKING_DPS = 40

ROOT_CLUSTER_RTOL = 1e-8
MODULUS_TIE_RTOL = 1e-8
REAL_AXIS_RTOL = 1e-10


class AnalysisError(ValueError):
    """Base class for analysis-layer failures."""


class DegenerateSingularityError(AnalysisError):
    """Dominant singularity is not unique or not simple; the purely
    exponential asymptotic form does not apply."""

    def __init__(self, report: "SingularityReport", message: str):
        super().__init__(message)
        self.report = report


class NoThresholdError(AnalysisError):
    """The asymptotic entanglement criterion has no root in [0, 1]."""


def _mpf_from_fraction(value: Fraction) -> mp.mpf:
    return mp.mpf(value.numerator) / mp.mpf(value.denominator)


def _mp_poly(poly: UniPolyZ):
    """poly as a Horner evaluator at mpmath points, its coefficients
    converted to mpf once, at the working precision of the call."""
    coeffs = [_mpf_from_fraction(c) for c in reversed(poly.coeffs)]

    def at(z) -> mp.mpc:
        acc = mp.mpc(0)
        for c in coeffs:
            acc = acc * z + c
        return acc
    return at


def _all_roots(q: UniPolyZ) -> list[mp.mpc]:
    """All complex roots: companion-matrix estimates polished by Newton."""
    import numpy as np

    # scale exactly before any float conversion so huge integer coefficients
    # cannot overflow a double
    scale = max(abs(c) for c in q.coeffs)
    coeffs_high_first = [float(c / scale) for c in reversed(q.coeffs)]
    estimates = np.roots(coeffs_high_first)
    q_at, dq_at = _mp_poly(q), _mp_poly(q.derivative())
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
    """Dominant root of a denominator polynomial and its neighbourhood."""

    z_star: mp.mpc
    real_positive: bool
    multiplicity: int
    unique: bool
    modulus_gap: float


def dominant_singularity(q: UniPolyZ) -> SingularityReport:
    """Locate the smallest-modulus root of q and judge its uniqueness.

    Ties in modulus and multiplicities are reported, not resolved: callers
    that need a unique simple dominant root must check the report.
    """
    if q.is_zero():
        raise AnalysisError("zero polynomial has no singularities")
    if q.coeffs[0] == 0:
        raise AnalysisError("q(0) = 0: series expansion point is singular")
    if q.degree() == 0:
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


def _reduced_specialisation(sys: TransferSystem, x0: Fraction,
                            y0: Fraction) -> tuple[UniPolyZ, UniPolyZ]:
    gf = family_gf(sys)
    p, q = uni_specialize(gf, x0, y0)
    return uni_reduce(p, q)


def _simple_pole(q: UniPolyZ) -> SingularityReport:
    """Dominant root of q, which must be unique and simple."""
    report = dominant_singularity(q)
    if not report.unique or report.multiplicity != 1:
        raise DegenerateSingularityError(
            report, "dominant singularity is not unique and simple")
    return report


def _residue(p: UniPolyZ, dq: UniPolyZ, z) -> mp.mpc:
    """Residue -p(z)/q'(z) of p/q at a simple root z of q."""
    return -_mp_poly(p)(z) / _mp_poly(dq)(z)


@dataclass
class LeadingTerm:
    """Simple dominant pole of p/q and its residue: the coefficient of z^r
    is residue * z*^(-r-1) plus terms smaller by (1/modulus_gap)^r."""

    report: SingularityReport
    residue: mp.mpc

    def coefficient(self, r: int) -> mp.mpf:
        if r < 0:
            raise ValueError("member index must be nonnegative")
        with mp.workdps(WORKING_DPS):
            return mp.re(self.residue * self.report.z_star ** (-r - 1))


def _leading_term(p: UniPolyZ, q: UniPolyZ) -> LeadingTerm:
    """The leading term of p/q, reduced by uni_reduce: p is coprime to q,
    so p(z*) is never zero and the residue is the whole pole."""
    report = _simple_pole(q)
    with mp.workdps(WORKING_DPS):
        return LeadingTerm(report, _residue(p, q.derivative(), report.z_star))


# -- concentratable entanglement ---------------------------------------------


def concentratable_entanglement(sys: TransferSystem,
                                r: int) -> tuple[Fraction, Fraction]:
    """(complement, value) of the concentratable entanglement of member r.

    The complement is the exact evaluation of the member's weight enumerator
    at (3/4, 1/4); the entanglement itself is one minus that.
    """
    cbar = wep_values_by_iteration(sys, *CE_POINT, r)[r]
    return cbar, 1 - cbar


# -- fidelity under uniform depolarizing noise --------------------------------


def _noise_parameter(lam) -> Fraction:
    lam = to_rational(lam)
    if not 0 <= lam <= 1:
        raise AnalysisError("noise parameter must lie in [0, 1]")
    return lam


def fidelity_exact(sys: TransferSystem, lam, r: int) -> Fraction:
    """Exact fidelity of member r under depolarizing noise strength lam:
    the member's weight enumerator evaluated at (1/2, lam/2)."""
    return fidelity_sweep(sys, lam, r)[r]


def fidelity_sweep(sys: TransferSystem, lam, r_max: int) -> list[Fraction]:
    """Exact fidelities of members 0..r_max (one specialised iteration)."""
    lam = _noise_parameter(lam)
    return wep_values_by_iteration(sys, Fraction(1, 2), lam / 2, r_max)


def fidelity_leading_term(sys: TransferSystem, lam) -> LeadingTerm:
    """Leading singular term of the fidelity generating function at lam.

    Requires the reduced specialised denominator to have a unique simple
    dominant root z*. The relative error of the approximation to member r
    decays like (1/modulus_gap)^r, with modulus_gap taken from the term's
    report: for star at lam = 0.8 it is exactly (8/9)^r + (1/9)^r.
    """
    lam = _noise_parameter(lam)
    return _leading_term(*_reduced_specialisation(sys, Fraction(1, 2), lam / 2))


def fidelity_asymptotic(sys: TransferSystem, lam, r: int) -> mp.mpf:
    """Leading-singularity approximation of the fidelity of member r:
    -p(z*)/q'(z*) * z*^(-r-1), see fidelity_leading_term."""
    return fidelity_leading_term(sys, lam).coefficient(r)


# -- purity-based entanglement criterion --------------------------------------


def criterion_q(sys: TransferSystem, lam,
                r: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (Q1, Q2, Q1 - Q2) of member r at noise strength lam.

    Q1 = sum_k (n-k) lam^(2k) A_k and Q2 = sum_k k lam^(2k) A_k; the state
    is certified entangled when the difference is negative.
    """
    lam = _noise_parameter(lam)
    sld = sld_from_wep(wep_by_iteration(sys, r))
    mu = lam * lam
    n = sld.n
    power = Fraction(1)
    q1 = Fraction(0)
    q2 = Fraction(0)
    for k, a in enumerate(sld):
        if a:
            q1 += (n - k) * a * power
            q2 += k * a * power
        power *= mu
    return q1, q2, q1 - q2


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


def _bisect(right_of_crossing, width, tol: float,
            edge: Fraction) -> Fraction | None:
    """Midpoint of a dyadic bracket of width below tol around the one
    crossing in (0, 1), or None when edge is not right of the crossing.

    Both threshold criteria change sign at most once on (0, 1), so the
    points right of the crossing form one interval reaching up to 1, and
    halving [0, 1] needs no scan for a bracket. width(lo, hi) < tol stops
    the halving, after 200 halvings at the latest; the dyadic brackets are
    those a scan on any coarser dyadic grid would have found and bisected.
    """
    if not tol > 0:
        raise AnalysisError("tolerance must be positive")
    if not right_of_crossing(edge):
        return None
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(200):
        if width(lo, hi) < tol:
            break
        mid = (lo + hi) / 2
        if right_of_crossing(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def _critical_lambda_from_sld(sld: SLD, tol: float) -> float | None:
    # integer coefficients of Q = Q1 - Q2 as a polynomial in mu = lam^2
    coeffs = [(sld.n - 2 * k) * a for k, a in enumerate(sld)]
    mu = _bisect(lambda mu: _poly_sign_at(coeffs, mu) < 0,
                 lambda lo, hi: math.sqrt(hi) - math.sqrt(lo), tol, Fraction(1))
    return None if mu is None else math.sqrt(mu)


def critical_lambda(sys: TransferSystem, r: int,
                    tol: float = 1e-10) -> float | None:
    """Largest noise strength at which member r's criterion changes sign;
    None when member r is never certified entangled (see
    critical_lambda_sweep)."""
    return critical_lambda_sweep(sys, [r], tol)[0][1]


def critical_lambda_sweep(sys: TransferSystem, r_values,
                          tol: float = 1e-10) -> list[tuple[int, float | None]]:
    """Critical noise strengths for several members in one iteration pass.

    Each is sqrt(mu_c), with mu_c the root of P(mu) = sum_k (n-2k) A_k mu^k
    found by bisection, and None when P(1) >= 0 (the member is never
    certified entangled). P has one sign change at most on (0, inf):
    P = W * (n - 2 kbar) with W = sum_k A_k mu^k > 0 and kbar = mu W'/W
    the mean of k under the weights A_k mu^k, and d kbar / d ln mu is their
    variance, so kbar never decreases.
    """
    wanted = sorted(set(r_values))
    if not wanted:
        return []
    if wanted[0] < 1:
        raise AnalysisError("criterion thresholds need a member with qubits")
    wanted_set = set(wanted)
    out = []
    for r, wep in enumerate(iter_weps(sys, wanted[-1])):
        if r in wanted_set:
            out.append((r, _critical_lambda_from_sld(sld_from_wep(wep), tol)))
    return out


def criterion_asymptotic_ratio(sys: TransferSystem, lam) -> mp.mpf:
    """Large-member limit of Q1/Q2 at noise strength lam.

    Evaluated as dq/dx over lam^2 * dq/dy at (1, lam^2, z*), with z* the
    dominant root of the reduced specialised denominator; the numerator
    factors cancel against the denominator at any genuine simple pole.
    """
    mu = _noise_parameter(lam) ** 2
    with mp.workdps(WORKING_DPS):
        _, q = _reduced_specialisation(sys, Fraction(1), mu)
        report = _simple_pole(q)
        z = report.z_star
        gf_den = family_gf(sys).den
        num = _mp_poly(_univariate(gf_den.partial("x"), Fraction(1), mu))(z)
        den = _mp_poly(_univariate(gf_den.partial("y"), Fraction(1), mu))(z)
        if abs(den) <= mp.mpf("1e-25") * max(1, abs(num)):
            raise DegenerateSingularityError(
                report, f"criterion ratio is indeterminate at lam = {lam}")
        return mp.re(num / (_mpf_from_fraction(mu) * den))


def critical_lambda_asymptotic(sys: TransferSystem,
                               tol: float = 1e-10) -> float:
    """Member-independent limit of the critical noise strength.

    Bisects the crossing of the asymptotic criterion ratio through 1. The
    ratio is lim_r Q1_r/Q2_r = lim_r (n/kbar_r - 1), a limit of functions
    that never increase in lam (see critical_lambda_sweep), so it crosses 1
    once at most. The edge point 1 - 2^-20 is evaluated first: when the
    ratio is still above 1 there, no interior crossing exists, and when it
    approaches 1 only at the right boundary (within 1e-3, as for star-like
    families) the threshold sits at the boundary and 1.0 is returned.

    The per-member thresholds approach an interior limit at rate Theta(1/r),
    because the criterion generating functions have a double dominant pole.
    They approach the boundary value 1.0 at rate Theta(W(r)/r), with W the
    Lambert W function.
    """
    with mp.workdps(WORKING_DPS):
        @functools.cache
        def h(lam: Fraction) -> mp.mpf:
            return criterion_asymptotic_ratio(sys, lam) - 1

        edge = Fraction(1) - Fraction(1, 1 << 20)
        lam = _bisect(lambda lam: h(lam) <= 0, lambda lo, hi: float(hi - lo),
                      tol, edge)
        if lam is not None:
            return float(lam)
        if h(edge) < 1e-3:
            return 1.0
        raise NoThresholdError(
            "asymptotic criterion ratio has no sign change in [0, 1]")
