"""Entanglement and noise analysis built on the family generating functions.

Exact quantities (concentratable entanglement, depolarizing fidelity, the
purity-criterion polynomial and its roots) are computed with rational
arithmetic end to end. Floating point enters only through polynomial root
finding and the residue/asymptotic evaluations, done in mpmath at a working
precision well beyond double; mpmath is imported only by the functions
that compute with it, so the exact quantities never load it. The
thresholds' guesses in doubles (_crossing_guess for a member,
_limit_guess for the limit) only choose where the exact searches probe
first.

Singularity analysis operates on the univariate specialisation of the
family generating function after cancelling its common univariate factor.
The family generating functions are reduced by construction, so a common
factor appears only where numerator and denominator happen to share a root
at the chosen point; it is not a singularity of the function, and removing
it keeps the dominant root genuinely dominant (and real-positive, as
nonnegative series demand).

Every asymptotic goes through one pole kernel: `_simple_pole` (the dominant
root, required unique and simple) and `_residue` (-p(z*)/q'(z*)), which
`_leading_term` joins into a `LeadingTerm`. The kernel's Horner evaluations
and Newton polish run on mpmath's raw libmp values (`_mpc_` and `_mpf_`
tuples) through the same libmp functions that mpc and mpf arithmetic
calls, at the context's precision, so they give the same bits as that
arithmetic without building an object per operation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import UniPolyZ, _univariate, uni_reduce, uni_specialize
from .family import SLD, FamilyError, to_rational
from .transfer import (CE_POINT, TransferSystem, _gf_den_partials,
                       _member_index, _sector_lengths, family_gf,
                       wep_values_by_iteration)

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
    """The asymptotic entanglement criterion has no root in [0, 1], or no
    member has a threshold."""


def _mpf_from_fraction(value: Fraction) -> mp.mpf:
    import mpmath as mp
    return mp.mpf(value.numerator) / mp.mpf(value.denominator)


def _mp_poly(poly: UniPolyZ):
    """poly as a Horner evaluator at raw libmp complex values (_mpc_
    tuples), its coefficients converted to raw mpf values once, at the
    context's precision and rounding when called. Each step is the
    mpc_mul and mpc_add_mpf that mpc's * and + with an mpf run, so the
    value is that of Horner on mpc and mpf objects, bit for bit; an
    integral coefficient converts by from_int alone, which is what
    dividing it by mpf(1) leaves."""
    import mpmath as mp
    from mpmath.libmp import fzero, from_int, mpc_add_mpf, mpc_mul, mpf_div
    prec, rnd = mp.mp._prec_rounding
    coeffs = [from_int(c.numerator, prec, rnd) if c.denominator == 1
              else mpf_div(from_int(c.numerator, prec, rnd),
                           from_int(c.denominator, prec, rnd), prec, rnd)
              for c in reversed(poly.coeffs)]

    def at(z: tuple) -> tuple:
        acc = (fzero, fzero)
        for c in coeffs:
            acc = mpc_add_mpf(mpc_mul(acc, z, prec, rnd), c, prec, rnd)
        return acc
    return at


def _root_estimates(coeffs: list) -> np.ndarray:
    """Companion-matrix (np.roots) estimates of the roots of the polynomial
    with coefficients coeffs, low degree first: integers, Fractions or
    floats, scaled by the largest magnitude before any float conversion so
    that huge integer coefficients cannot overflow a double."""
    import numpy as np
    scale = max(abs(c) for c in coeffs)
    return np.roots([float(c / scale) for c in reversed(coeffs)])


def _all_roots(q: UniPolyZ) -> list[mp.mpc]:
    """All complex roots, by modulus, real part and imaginary part:
    companion-matrix estimates polished by at most 8 Newton steps.

    The polish runs on raw libmp values at the context's precision: each
    step is the mpc_div and mpc_sub of mpc's / and -, and the stop tests
    compare |q'(z)| and |step| (mpc_abs, as abs on an mpc) with 1e-30 and
    1e-35 max(1, |z|), converted once per call. So the roots are those of
    the same Newton on mpc objects, bit for bit.
    """
    import mpmath as mp
    from mpmath.libmp import (fone, from_float, from_str, mpc_abs, mpc_div,
                              mpc_sub, mpf_gt, mpf_lt, mpf_mul)

    estimates = _root_estimates(q.coeffs)
    prec, rnd = mp.mp._prec_rounding
    tiny, eps = from_str("1e-30", prec, rnd), from_str("1e-35", prec, rnd)
    q_at, dq_at = _mp_poly(q), _mp_poly(q.derivative())
    roots = []
    for est in estimates:
        z = from_float(est.real, prec, rnd), from_float(est.imag, prec, rnd)
        for _ in range(8):
            d = dq_at(z)
            if mpf_lt(mpc_abs(d, prec, rnd), tiny):
                break
            step = mpc_div(q_at(z), d, prec, rnd)
            z = mpc_sub(z, step, prec, rnd)
            size = mpc_abs(z, prec, rnd)
            bound = mpf_mul(eps, size, prec, rnd) if mpf_gt(size, fone) else eps
            if mpf_lt(mpc_abs(step, prec, rnd), bound):
                break
        roots.append(mp.make_mpc(z))
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
    import mpmath as mp
    with mp.workdps(WORKING_DPS):
        roots = _all_roots(q)
    # each modulus and each distance to z* once, at the caller's precision
    mods = [mp.fabs(r) for r in roots]
    min_mod = min(mods)

    def real_positive(i: int) -> bool:
        return bool(abs(mp.im(roots[i])) <= REAL_AXIS_RTOL * max(1, mods[i])
                    and mp.re(roots[i]) > 0)
    near = [i for i, m in enumerate(mods)
            if m <= min_mod * (1 + MODULUS_TIE_RTOL)]
    star = next((i for i in near if real_positive(i)), near[0])
    z_star = roots[star]
    reach = ROOT_CLUSTER_RTOL * max(1, mods[star])
    dists = [mp.fabs(r - z_star) for r in roots]
    outside = [m for m, d in zip(mods, dists) if d > reach]
    gap = float(min(outside) / min_mod) if outside else math.inf
    return SingularityReport(
        z_star=z_star, real_positive=real_positive(star),
        multiplicity=sum(d <= reach for d in dists),
        unique=gap > 1 + MODULUS_TIE_RTOL, modulus_gap=gap)


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


def _residue(p: UniPolyZ, dq: UniPolyZ, z: mp.mpc) -> mp.mpc:
    """Residue -p(z)/q'(z) of p/q at a simple root z of q, by the mpc_neg
    and mpc_div of mpc's - and /."""
    import mpmath as mp
    from mpmath.libmp import mpc_div, mpc_neg
    prec, rnd = mp.mp._prec_rounding
    return mp.make_mpc(mpc_div(mpc_neg(_mp_poly(p)(z._mpc_), prec, rnd),
                               _mp_poly(dq)(z._mpc_), prec, rnd))


@dataclass
class LeadingTerm:
    """Simple dominant pole of p/q and its residue: the coefficient of z^r
    is residue * z*^(-r-1) plus terms smaller by (1/modulus_gap)^r."""

    report: SingularityReport
    residue: mp.mpc

    def coefficient(self, r: int) -> mp.mpf:
        r = _member_index(r)
        if r < 0:
            raise ValueError("member index must be nonnegative")
        import mpmath as mp
        with mp.workdps(WORKING_DPS):
            return mp.re(self.residue * self.report.z_star ** (-r - 1))


def _leading_term(p: UniPolyZ, q: UniPolyZ) -> LeadingTerm:
    """The leading term of p/q, reduced by uni_reduce: p is coprime to q,
    so p(z*) is never zero and the residue is the whole pole."""
    import mpmath as mp
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
    sld = _sld(*next(_sector_lengths(sys, r, r)))
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


def _check_tolerance(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise AnalysisError("tolerance must be positive and finite")


def _grid_sign(coeffs: list[int], k: int, depth: int) -> int:
    """Exact sign of an integer polynomial at the grid point k / 2^depth:
    evaluates 2^(depth deg) P(k / 2^depth) by Horner, in integers."""
    value = shift = 0
    for c in reversed(coeffs):
        value = value * k + (c << shift)
        shift += depth
    return (value > 0) - (value < 0)


_MAX_DEPTH = 200  # halvings of [0, 1] at most, in a member threshold


def _crossing_guess(sld: SLD) -> float:
    """Float estimate of the crossing mu of kbar(mu) = n/2, the member
    criterion's root (see critical_lambda_sweep), by Newton in t = ln mu.

    The sums S_j = sum_k (k - n/2)^j a_k mu^k are one float Horner pass
    each, with a_k = A_k / 2^s, s the least shift that brings the largest
    below 2^960. Each a_k is rounded on its own, so a small A_k such as
    A_0 = 1 stays in the sums, where it can weigh as much as all the rest.
    kbar - n/2 is S_1/S_0, and its derivative in t is the variance
    S_2/S_0 - (S_1/S_0)^2. Newton runs on ln(kbar / (n - kbar)), which
    has the same root and is linear in t for a binomial SLD. A step that
    leaves the bracket [t_lo, t_hi] on the crossing, or that cannot be
    taken, halves the bracket instead: t_hi = 0 because P(1) < 0, and t_lo
    puts mu below 2^-201, whose cell is 0 at every depth. The iteration
    stops once a step is no shorter than the one before it, below 2^-30,
    which is where rounding takes over from convergence; far from the root
    a step that does not shrink is an overshoot, and the iteration goes on.

    Past about 2500 qubits the one shift leaves every term of S_0 below
    the float range near the crossing. At such a point alone the sums are
    taken again over the weights exp(ln A_k + k t - top), top the largest
    exponent, which keep their ratios and put the largest at 1.
    """
    n, half = sld.n, sld.n / 2
    scale = 1 << max(0, max(sld).bit_length() - 960)
    a = [c / scale for c in reversed(sld.sectors)]
    b = [(k - half) * c for k, c in zip(range(n, -1, -1), a)]
    c2 = [(k - half) * c for k, c in zip(range(n, -1, -1), b)]
    t_lo, t_hi = -(_MAX_DEPTH + 1) * math.log(2) - 1, 0.0
    t, last = 0.0, math.inf
    for _ in range(100):
        mu = math.exp(t)
        s0 = s1 = s2 = 0.0
        for c in a:
            s0 = s0 * mu + c
        for c in b:
            s1 = s1 * mu + c
        for c in c2:
            s2 = s2 * mu + c
        if s0 == 0:  # every term underflowed: weigh them by logs
            logs = [(k - half, math.log(c) + k * t)
                    for k, c in enumerate(sld.sectors) if c]
            top = max(e for _, e in logs)
            w = [(d, math.exp(e - top)) for d, e in logs]
            s0 = sum(x for _, x in w)
            s1 = sum(d * x for d, x in w)
            s2 = sum(d * d * x for d, x in w)
        f, var = s1 / s0, s2 / s0 - (s1 / s0) ** 2
        if f > 0:
            t_hi = t
        else:
            t_lo = t
        step = math.inf
        if var > 0 and -half < f < half:
            step = (-math.log((half + f) / (half - f))
                    * (half + f) * (half - f) / (n * var))
        if not t_lo <= t + step <= t_hi:
            step = (t_lo + t_hi) / 2 - t
        if step == 0 or abs(step) >= last and last < 2.0 ** -30:
            break
        last = abs(step)
        t += step
    return math.exp(t)


def _narrow(cell: int, depth: int, tol: float) -> bool:
    """The halving's stop test: the cell [cell, cell + 1] 2^-depth in mu is
    narrower than tol in lam = sqrt(mu), in correctly rounded floats."""
    return (math.sqrt((cell + 1) / (1 << depth))
            - math.sqrt(cell / (1 << depth)) < tol)


def _critical_lambda_from_sld(sld: SLD, tol: float) -> float | None:
    """sqrt of the midpoint of the last cell [lo, lo + 1] 2^-depth of halving
    [0, 1] around the member criterion's one crossing in mu, once the cell
    is narrower than tol in lam = sqrt(mu) or after 200 halvings; None when
    mu = 1 is not right of the crossing.

    The criterion changes sign at most once on (0, 1) (see
    critical_lambda_sweep), so the points right of the crossing form one
    interval reaching up to 1, and the halving's cell at depth d is
    floor(mu_c 2^d) for the crossing mu_c < 1. Its cells form one chain, each
    the floor of the next one's half, and it stops at the first that passes
    the stop test. So the search does not halve from [0, 1]. It reads the
    chain off a float guess of mu_c (_crossing_guess), takes the depth D at
    which that chain stops, and checks the guessed cell at D by the exact
    signs at its two ends: if they hold, its ancestors are the halving's,
    and so are D and the result. An end at 0 or 1 has a known sign and is
    not probed.

    On a miss the probes gallop on the same grid away from the end whose
    sign failed, at 1, 3, 7, ... cells from the guessed cell, for at most 8
    probes in all, and then halve at the points with the most trailing
    zeros, which are the halving's own. The bracket [lo, hi] is kept on
    the grid of spacing 2^-200, and the stop test is applied to each cell
    of the chain as soon as the bracket lies inside it, so a miss ends
    where the halving would, at most 8 probes after it.

    The floats are correctly rounded quotients of integers, as a Fraction's
    are, so the result is that of halving with Fraction ends.
    """
    _check_tolerance(tol)
    n = sld.n
    # integer coefficients of Q = Q1 - Q2 as a polynomial in mu = lam^2
    coeffs = [(n - 2 * k) * a for k, a in enumerate(sld)]
    if sum(coeffs) >= 0:
        return None
    # a cell at depth d is at least 2^-(d + 1) wide in lam, and rounding
    # moves the float difference by less than 2^-50, so no depth shallower
    # than the first d with 2^-(d + 1) <= tol + 2^-48 passes the stop test
    first = max(0, -math.frexp(tol + 2.0 ** -48)[1])
    top = 1 << _MAX_DEPTH
    guess = min(int(math.ldexp(_crossing_guess(sld), _MAX_DEPTH)), top - 1)
    depth = next((d for d in range(first, _MAX_DEPTH)
                  if _narrow(guess >> _MAX_DEPTH - d, d, tol)), _MAX_DEPTH)
    unit = 1 << _MAX_DEPTH - depth  # a cell at the guessed depth
    # grid points in units of 2^-200, with P(lo) >= 0 > P(hi)
    lo, hi, tested, probes = 0, top, first, 0
    k = guess - guess % unit
    step = unit if k == 0 else 0  # the sign at 0 is known
    k += step
    while True:
        # the depth of the cell holding the bracket, and the chain's stop
        # test on every cell down to it; the halving stops at 200 anyway
        common = _MAX_DEPTH - (lo ^ (hi - 1)).bit_length()
        for d in range(tested, common + 1):
            cell = lo >> _MAX_DEPTH - d
            if d == _MAX_DEPTH or _narrow(cell, d, tol):
                return math.sqrt((2 * cell + 1) / (2 << d))
        tested = max(tested, common + 1)
        if step is None or probes == 8 or not lo < k < hi:
            step = None
            split = _MAX_DEPTH - 1 - common
            k = (hi - 1) >> split << split
        zeros = (k & -k).bit_length() - 1
        probes += 1
        left = _grid_sign(coeffs, k >> zeros, _MAX_DEPTH - zeros) >= 0
        if left:
            lo = k
        else:
            hi = k
        if step is not None:
            # the gallop goes on while it stays on the side it started from
            if step and (step > 0) != left:
                step = None
            else:
                step = 2 * step or (unit if left else -unit)
                k += step


def _sld(n: int, shift: int, digits: list[int]) -> SLD:
    """The SLD of a member of degree n from its digits (_sector_lengths),
    refused with FamilyError where sld_from_wep refuses the member."""
    sectors = digits[shift:]
    if any(digits[:shift]) or len(sectors) > n + 1:
        raise FamilyError("weight enumerator must have nonnegative exponents")
    return SLD((*sectors, *[0] * (n + 1 - len(sectors))))


def critical_lambda(sys: TransferSystem, r: int,
                    tol: float = 1e-10) -> float | None:
    """Largest noise strength at which member r's criterion changes sign;
    None when member r is never certified entangled (see
    critical_lambda_sweep)."""
    return critical_lambda_sweep(sys, [r], tol)[0][1]


def critical_lambda_sweep(sys: TransferSystem, r_values,
                          tol: float = 1e-10) -> list[tuple[int, float | None]]:
    """Critical noise strengths for several members in one iteration pass.

    Each is sqrt(mu_c), with mu_c the root of P(mu) = sum_k (n-2k) A_k mu^k,
    and None when P(1) >= 0 (the member is never certified entangled).
    The value is that of halving [0, 1] in exact integers: the midpoint of
    the last grid cell [lo, lo + 1] 2^-d, once it is narrower than tol in
    lam. P has one sign change at most on (0, inf):
    P = W * (n - 2 kbar) with W = sum_k A_k mu^k > 0 and kbar = mu W'/W
    the mean of k under the weights A_k mu^k, and d kbar / d ln mu is their
    variance, so kbar never decreases. So the last cell depends only on
    where mu_c lies. A float Newton on kbar = n/2 guesses mu_c, and the
    exact signs of P at the two ends of the guessed cell confirm it, each
    from one Horner pass on 2^(d deg P) P(k 2^-d) in integers
    (_critical_lambda_from_sld). Every member's A_k are the integers of
    the one member stream (_sector_lengths).
    """
    wanted = sorted({_member_index(r) for r in r_values})
    if not wanted:
        return []
    if wanted[0] < 1:
        raise AnalysisError("criterion thresholds need a member with qubits")
    wanted_set, out = set(wanted), []
    for r, member in enumerate(_sector_lengths(sys, wanted[-1])):
        if r in wanted_set:
            out.append((r, _critical_lambda_from_sld(_sld(*member), tol)))
    return out


def _criterion_vanishes_at_one(sys: TransferSystem) -> bool:
    """Whether P_r(1) = sum_e (n - 2e) c_e, member r's criterion at lam = 1,
    is 0 for every member r, read off the members' integer digits.

    sum_r P_r(1) z^r is (W_x - W_y)(1, 1, z) = N/q(1, 1, z)^2 for the
    closed form W = p/q, with deg N <= deg_z p + deg_z q and q(1, 1, 0) != 0,
    so it is identically 0 exactly when P_r(1) is 0 up to that degree.
    """
    gf = family_gf(sys)
    bound = gf.num.max_degree_z() + gf.den.max_degree_z()
    return not any(sum((n - 2 * e) * c for e, c in enumerate(digits, -shift))
                   for n, shift, digits in _sector_lengths(sys, bound))


def _float_criterion(sys: TransferSystem):
    """h = ratio - 1 of criterion_asymptotic_ratio as a function of a float
    lam, in floats and unreduced: the z-coefficients of family_gf's
    denominator q at (1, lam^2), the smallest-modulus root z of their
    companion estimate (_root_estimates, as _all_roots starts from), and
    the real part of q_x / (lam^2 q_y) - 1 at z. Raises ArithmeticError or
    ValueError (numpy's LinAlgError) where floats fail."""
    polys = (family_gf(sys).den, *_gf_den_partials(sys))
    tables = []
    for poly in polys:
        sums = {}  # x summed out at x = 1, exactly
        for (_, ey, ez), c in poly.terms.items():
            sums[ey, ez] = sums.get((ey, ez), 0) + c
        tables.append((poly.max_degree_z(),
                       [(ey, ez, float(c)) for (ey, ez), c in sums.items()]))

    def at(mu: float) -> list[list[float]]:
        out = []
        for degree, terms in tables:
            coeffs = [0.0] * (degree + 1)
            for ey, ez, c in terms:
                coeffs[ez] += c * mu ** ey
            out.append(coeffs)
        return out

    def horner(coeffs: list[float], z: complex) -> complex:
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    def h(lam: float) -> float:
        mu = lam * lam
        q, q_x, q_y = at(mu)
        z = complex(min(_root_estimates(q), key=abs))
        return (horner(q_x, z) / (mu * horner(q_y, z))).real - 1
    return h


# the float guess's grid: its points and their cells' midpoints, multiples
# of 2^-53 in [0, 1], are floats, so the float criterion sees them exactly
_GUESS_DEPTH = 52


def _limit_guess(sys: TransferSystem) -> float | None:
    """Float estimate of the limit's crossing lam_c: the midpoint of the
    cell of spacing 2^-52 that _crossing_cell finds on the float criterion
    (_float_criterion), once that is > 0 at 2^-10 and <= 0 at 1 - 2^-20.
    None where the floats fail or show no sign change there: the guess is a
    hint, and no failure of it is an error."""
    try:
        h = _float_criterion(sys)
        if not h(2.0 ** -10) > 0 >= h(1 - 2.0 ** -20):
            return None

        def g(lam: Fraction) -> float:
            value = h(float(lam))
            if math.isnan(value):
                raise ArithmeticError("the float criterion is NaN")
            return value
        return float(_crossing_cell(g, _GUESS_DEPTH, None))
    except (ArithmeticError, ValueError):
        return None


def _crossing_cell(h, depth: int, guess: int | None) -> Fraction:
    """Midpoint of the cell, on the grid of spacing 2^-depth, that holds the
    one crossing of h in (0, 1), with h > 0 left of it and h <= 0 right of
    it. The cell is the last bracket of halving [0, 1] depth times. The
    first two probes are the ends of the guessed cell [guess, guess + 1],
    when given, and the rest are guided by a secant (see
    critical_lambda_asymptotic); so a right guess takes two probes, and a
    wrong one goes on from the bracket they leave. h takes the grid points
    as Fractions and gives mpf or, in _limit_guess, float values."""
    import mpmath as mp
    lo, hi = 0, 1 << depth  # the bracket, in units of 2^-depth
    probes = []  # (grid point, h) of each probe
    while hi - lo > 1:
        # ceil(log2(hi - lo)) <= depth + 2 - len(probes) holds, so at most
        # depth + 2 probes are made; a probe within reach of both ends keeps
        # it, the midpoint always is, and the first two may lie anywhere
        reach = 1 << (depth + 1 - len(probes))
        k = (lo + hi) // 2
        if guess is not None and len(probes) < 2:
            k = guess + len(probes)
        elif len(probes) >= 2 and probes[-1][1] != probes[-2][1]:
            (k0, h0), (k1, h1) = probes[-2:]
            # the secant step on g = 1/(h + 2) - 1/2, written in h
            step = h1 * (h0 + 2) * (k1 - k0) / (2 * (h1 - h0))
            k = k1 - int(mp.nint(step))
        k = min(max(k, lo + 1, hi - reach), hi - 1, lo + reach)
        value = h(Fraction(k, 1 << depth))
        probes.append((k, value))
        if value <= 0:
            hi = k
        else:
            lo = k
    return Fraction(2 * lo + 1, 2 << depth)


def criterion_asymptotic_ratio(sys: TransferSystem, lam) -> mp.mpf:
    """Large-member limit of Q1/Q2 at noise strength lam.

    Evaluated as dq/dx over lam^2 * dq/dy at (1, lam^2, z*), with z* the
    dominant root of the reduced specialised denominator; the numerator
    factors cancel against the denominator at any genuine simple pole.
    """
    import mpmath as mp
    mu = _noise_parameter(lam) ** 2
    with mp.workdps(WORKING_DPS):
        _, q = _reduced_specialisation(sys, Fraction(1), mu)
        report = _simple_pole(q)
        z = report.z_star
        q_x, q_y = _gf_den_partials(sys)
        num = mp.make_mpc(_mp_poly(_univariate(q_x, Fraction(1), mu))(z._mpc_))
        den = mp.make_mpc(_mp_poly(_univariate(q_y, Fraction(1), mu))(z._mpc_))
        if abs(den) <= mp.mpf("1e-25") * max(1, abs(num)):
            raise DegenerateSingularityError(
                report, f"criterion ratio is indeterminate at lam = {lam}")
        return mp.re(num / (_mpf_from_fraction(mu) * den))


def critical_lambda_asymptotic(sys: TransferSystem,
                               tol: float = 1e-10) -> float:
    """Member-independent limit of the critical noise strength.

    The limit is where h = ratio - 1 crosses 0, with ratio the asymptotic
    criterion ratio. The ratio is lim_r Q1_r/Q2_r = lim_r (n/kbar_r - 1), a
    limit of functions that never increase in lam (see
    critical_lambda_sweep), so it crosses 1 once at most. The edge point
    1 - 2^-20 is evaluated first: when the ratio is still above 1 there, no
    interior crossing exists, and when it approaches 1 only at the right
    boundary (within 1e-3, as for star-like families) the threshold sits at
    the boundary and 1.0 is returned, unless the criterion vanishes at
    lam = 1 on every member, as decided exactly on the members' integer
    sector lengths up to a degree bound read off the closed form (as for
    isolated vertices, see _criterion_vanishes_at_one): NoThresholdError
    then.

    Otherwise the crossing is pinned to one cell of the dyadic grid of
    spacing 2^-D, with D the first depth at which 2^-D < tol (at most 200),
    and the cell's midpoint is returned. That cell is the last bracket of
    halving [0, 1] D times, so the result is the bisection's. Each probe is
    one pole search. A float guess of the crossing comes first
    (_limit_guess: the same search on the float criterion, to a cell of
    2^-52), and the first two probes are the ends of the grid cell
    that holds it, when that cell lies in (0, edge]: h > 0 at its lower end
    and h <= 0 at its upper end put the crossing in it, and h never
    increases, so it is the bisection's cell. Each later probe is the grid
    point nearest the secant root, through the last two probes, of
    g = 1/(h + 2) - 1/2. g is the limit of kbar/n - 1/2, smooth where h is
    steeply convex (on path, h(1/2) is about 8.1 and h(edge) about -0.67).
    A probe is moved towards the bracket's midpoint as far as needed to
    keep the bracket closable by halving within D + 2 probes, so no
    tolerance costs more than two pole searches beyond the bisection. At
    the default tol the interior built-in limits take 3 pole searches, the
    edge and the guessed cell's two ends, where the bisection takes 35.
    Below about 1e-15 a cell is narrower than the guess is accurate, and
    the secant takes over from the bracket the guessed cell leaves (5 pole
    searches on path at 1e-16, where the bisection takes 55).

    The per-member thresholds approach an interior limit at rate Theta(1/r),
    because the criterion generating functions have a double dominant pole.
    They approach the boundary value 1.0 at rate Theta(W(r)/r), with W the
    Lambert W function. A family that does not grow raises AnalysisError.
    """
    if sys.spec.qubit_step == 0:
        raise AnalysisError(f"family {sys.spec.name} does not grow: its "
                            f"qubit_count.step is 0")
    _check_tolerance(tol)
    import mpmath as mp
    with mp.workdps(WORKING_DPS):
        @functools.cache
        def h(lam: Fraction) -> mp.mpf:
            return criterion_asymptotic_ratio(sys, lam) - 1

        edge = Fraction(1) - Fraction(1, 1 << 20)
        edge_value = h(edge)
        if edge_value <= 0:
            depth = next((d for d in range(200) if 2.0 ** -d < tol), 200)
            guess = _limit_guess(sys)
            cell = None
            if guess is not None:
                cell = math.floor(math.ldexp(guess, depth))
                if not (0 < cell and Fraction(cell + 1, 1 << depth) <= edge):
                    cell = None
            return float(_crossing_cell(h, depth, cell))
        if edge_value < 1e-3:
            if _criterion_vanishes_at_one(sys):
                raise NoThresholdError(
                    "no member has a threshold: the criterion vanishes at "
                    "lam = 1 on every member")
            return 1.0
        raise NoThresholdError(
            "asymptotic criterion ratio has no sign change in [0, 1]")
