"""Entanglement and noise analysis built on the family generating functions.

Exact quantities (concentratable entanglement, depolarizing fidelity, the
purity-criterion polynomial and its roots) are computed with rational
arithmetic end to end. Every decision about a pole is an exact sign too:
the dominant pole of a specialised denominator is its smallest positive
root (Pringsheim), isolated by a Sturm chain of integer polynomials and
proven unique by an exact Schur-Cohn count (dominant_singularity). Floating
point enters only through the value of that pole to the working precision
and the residue/asymptotic evaluations, done in mpmath at a precision well
beyond double; mpmath is imported only by the functions that compute with
it, so the exact quantities never load it, and no other numerical library
is loaded. The thresholds' guesses in doubles (_crossing_guess for a
member, _limit_guess for the limit) only choose where their one exact
search (_crossing_search) probes first.

Singularity analysis operates on the univariate specialisation of the
family generating function after cancelling its common univariate factor.
The family generating functions are reduced by construction, so a common
factor appears only where numerator and denominator happen to share a root
at the chosen point; it is not a singularity of the function, and removing
it keeps the dominant root genuinely dominant (and real-positive, as
nonnegative series demand).

Every asymptotic goes through one pole kernel: `_simple_pole` (the dominant
root, required unique and simple) and `_residue` (-p(z*)/q'(z*)), which
`_leading_term` joins into a `LeadingTerm`. The residue's Horner
evaluations run on mpmath's raw libmp values (`_mpc_` and `_mpf_` tuples)
through the same libmp functions that mpc and mpf arithmetic calls, at the
context's precision, so they give the same bits as that arithmetic without
building an object per operation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (UniPolyZ, _cleared, _integer_z_coefficients,
                      _primitive, _quotient, _remainder, _univariate,
                      uni_reduce, uni_specialize)
from .family import SLD, FamilyError, to_rational
from .transfer import (CE_POINT, TransferSystem, _gf_den_partials,
                       _member_index, _sector_lengths, family_gf,
                       wep_values_by_iteration)

WORKING_DPS = 40


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


# -- the pole kernel: exact signs on integer polynomials ---------------------


def _grid_value(coeffs: list[int], k: int, depth: int) -> int:
    """2^(depth deg) P(k / 2^depth) for the integer polynomial P with
    coefficients coeffs, low degree first, by Horner in integers."""
    value = shift = 0
    for c in reversed(coeffs):
        value = value * k + (c << shift)
        shift += depth
    return value


def _grid_sign(coeffs: list[int], k: int, depth: int) -> int:
    """Exact sign of an integer polynomial at the grid point k / 2^depth."""
    value = _grid_value(coeffs, k, depth)
    return (value > 0) - (value < 0)


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """The Sturm chain of p: p, p' and then each entry the negated
    remainder of the two before it, every one a primitive integer
    polynomial and a positive multiple of the classical entry. Its last
    entry is gcd(p, p') up to a constant. The sign changes along it at a
    point a that is no root of p, less those at b > a, are the number of
    distinct roots of p in (a, b], b counted when it is one."""
    chain = [p, _primitive([k * c for k, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        r = [-c for c in _remainder(chain[-2], chain[-1])]
        if not r:
            break
        chain.append(r)
    return chain


def _variations(chain: list[list[int]], k: int, depth: int) -> int:
    """Sign changes along chain at k / 2^depth, zeros skipped."""
    count = last = 0
    for poly in chain:
        sign = _grid_sign(poly, k, depth)
        if sign:
            count += last == -sign
            last = sign
    return count


def _isolate(chain: list[list[int]]) -> tuple[int, int, int]:
    """(lo, hi, depth) with the smallest positive root of chain[0] the only
    root in (lo, hi] / 2^depth, 0 < lo < hi <= 2 lo, and lo no root: the
    binade (2^e, 2^(e+1)] that holds it, found by doubling or halving from
    1, bisected on root counts until it holds that root alone."""
    at_zero = _variations(chain, 0, 0)
    signs = [(poly[-1] > 0) - (poly[-1] < 0) for poly in chain]
    if at_zero == sum(a != b for a, b in zip(signs, signs[1:])):
        raise AnalysisError("q has no positive root")

    def roots_below(e: int) -> int:  # distinct roots in (0, 2^e]
        return at_zero - (_variations(chain, 1 << e, 0) if e >= 0
                          else _variations(chain, 1, -e))
    e = 0
    if roots_below(0):
        e = -1
        while roots_below(e):
            e -= 1
    else:
        while not roots_below(e + 1):
            e += 1
    depth = max(0, -e)
    lo, hi = 1 << (e + depth), 2 << (e + depth)
    at_hi = _variations(chain, hi, depth)
    while at_zero - at_hi > 1:
        lo, hi, depth = 2 * lo, 2 * hi, depth + 1
        mid = (lo + hi) // 2
        at_mid = _variations(chain, mid, depth)
        if at_mid < at_zero:
            hi, at_hi = mid, at_mid
        else:
            lo = mid
    return lo, hi, depth


def _refine(s: list[int], lo: int, hi: int, depth: int,
            bits: int) -> tuple[int, int, int]:
    """Narrow (lo, hi] / 2^depth, which holds one root of s, a simple one,
    and whose lower end is no root, to a relative width of 2^-bits at
    most. The probes are Newton steps on the grid, in integers, each kept
    only inside the bracket, and the bracket's midpoint otherwise; once
    Newton stops moving, the grid points two cells either side are probed.
    Every probe moves an end by its exact sign, so the result is certified
    however the steps behave: (lo, hi, depth) with s(lo) and s(hi) of
    opposite signs, or lo = hi at an exact dyadic root."""
    e = lo.bit_length() - 1 - depth  # 2^e <= lo / 2^depth
    grow = max(0, bits - e + 2 - depth)
    lo, hi, depth = lo << grow, hi << grow, depth + grow
    if not _grid_sign(s, hi, depth):
        return hi, hi, depth
    width = 1 << (depth - bits + e)  # 2^(e - bits), in cells
    ds = [k * c for k, c in enumerate(s)][1:]
    low = _grid_sign(s, lo, depth)

    def probe(x: int) -> int:
        nonlocal lo, hi
        value = _grid_value(s, x, depth)
        if not value:
            lo = hi = x
        elif (value > 0) == (low > 0):
            lo = x
        else:
            hi = x
        return value
    x = (lo + hi) // 2
    for steps in itertools.count():
        if hi - lo <= width:
            return lo, hi, depth
        value = probe(x)
        slope = _grid_value(ds, x, depth) if value and steps < 64 else 0
        # the step s/s' in cells, rounded to the grid
        y = x - (2 * value + slope) // (2 * slope) if slope else x
        if slope and abs(y - x) <= 1:
            for p in (y - 2, y + 2):
                if lo < p < hi:
                    probe(p)
        x = y if lo < y < hi else (lo + hi) // 2


def _positive_root(coeffs: list[int], bits: int):
    """The smallest positive root of the integer polynomial coeffs, low
    degree first, to a relative width of 2^-bits: (chain, s, isolated,
    refined), with chain the Sturm chain of coeffs, s its squarefree part
    coeffs / gcd(coeffs, coeffs'), isolated the bracket (lo, hi, depth)
    that _isolate leaves and refined the one _refine narrows it to. Raises
    AnalysisError where there is none."""
    if not any(coeffs):
        raise AnalysisError("zero polynomial has no singularities")
    if coeffs[0] == 0:
        raise AnalysisError("q(0) = 0: series expansion point is singular")
    coeffs = _primitive(coeffs)
    if len(coeffs) == 1:
        raise AnalysisError("constant denominator has no singularities")
    chain = _sturm_chain(coeffs)
    s, s_chain = coeffs, chain
    if len(chain[-1]) > 1:
        # at a multiple root every entry vanishes: isolate on the
        # squarefree part, an integer polynomial by Gauss's lemma
        s = _quotient(coeffs, chain[-1])
        s_chain = _sturm_chain(s)
    isolated = _isolate(s_chain)
    return chain, s, isolated, _refine(s, *isolated, bits)


def _disc_count(coeffs: list[int], k: int, depth: int) -> int | None:
    """The number of roots of the integer polynomial coeffs, with
    multiplicity, in the open disc |z| < k / 2^depth; None where the count
    meets a vanishing constant Tf(0), as a root on the circle makes it, or
    two roots mirrored in it, or an equal size of the ends of some Tf.

    This is the Schur-Cohn recursion (Henrici, Applied and Computational
    Complex Analysis I, section 6.8) on f(w) = 2^(depth n) q(k w / 2^depth),
    n = deg q. Its Schur transform Tf = f(0) f - lc(f) f*, with f* the
    reversed f, has one degree less and Tf(0) = f(0)^2 - lc(f)^2. Where
    Tf(0) > 0, f has as many roots in the disc as Tf, and where Tf(0) < 0,
    n less that many (Rouche's theorem on the circle, where |f*| = |f|).
    Each transform of the integer polynomials is taken
    fraction free: from the third on, it divides exactly by the constant
    term of the polynomial two steps back, which scales every later one by
    a square and keeps the signs, and keeps the coefficients' size linear
    in the step."""
    n = len(coeffs) - 1
    g = [c * k ** i << depth * (n - i) for i, c in enumerate(coeffs)]
    steps, constants = [], []
    for m in range(n, 0, -1):
        t = [g[0] * g[i] - g[m] * g[m - i] for i in range(m)]
        if not t[0]:
            return None
        steps.append((t[0] > 0, m))
        if len(constants) >= 2:
            divisor = constants[-2]
            t = [c // divisor for c in t]
        constants.append(t[0])
        g = t
    count = 0
    for inside, m in reversed(steps):
        count = count if inside else m - count
    return count


@dataclass
class SingularityReport:
    """The dominant root of a denominator polynomial q, decided exactly.

    z_star is the smallest positive root of q, to WORKING_DPS digits, as an
    mpc with zero imaginary part; multiplicity is its multiplicity as a root
    of q. unique is True only where every other root of q is proven to lie
    farther from 0, and real_positive is True where no root of q is nearer
    to 0 than the working precision can tell apart from z* (see
    dominant_singularity).
    """

    z_star: mp.mpc
    real_positive: bool
    multiplicity: int
    unique: bool
    _squarefree: list = field(default_factory=list, repr=False,
                              compare=False)

    @functools.cached_property
    def modulus_gap(self) -> float:
        """|z| / z* for the next root z of q in modulus, math.inf where q
        has no other root: for display only, as no decision reads it. The
        roots are mpmath.polyroots of q's squarefree part at WORKING_DPS
        digits, the nearest to z* dropped, and the moduli and their ratio
        are taken at the caller's precision."""
        import mpmath as mp
        with mp.workdps(WORKING_DPS):
            roots = mp.polyroots(self._squarefree[::-1], maxsteps=200,
                                 extraprec=60)
            roots.remove(min(roots, key=lambda r: abs(r - self.z_star)))
        mods = [mp.fabs(r) for r in roots]
        return float(min(mods) / mp.fabs(self.z_star)) if mods else math.inf


def dominant_singularity(q: UniPolyZ) -> SingularityReport:
    """The smallest positive root z* of q, its multiplicity, and whether it
    is the only root of q of least modulus, each decided by exact signs.

    q is cleared to a primitive integer polynomial. Its Sturm chain isolates
    z* by bisection on root counts, and _refine narrows the bracket to
    2^-(prec + 4) in relative terms at the working precision's prec bits;
    z* is the bracket's midpoint. The chain's last entry is gcd(q, q'); the
    multiplicity is one more than that of z* in it, counted the same way.

    Uniqueness is an exact Schur-Cohn count (_disc_count) of the roots of q
    in |z| < R, for radii R above z* that close in on it: the isolating
    bracket's upper end, below which q has no other positive root; then
    R - z* about 2^-j z* for j = 4, 8, 16, ...; and last the refined
    bracket's upper end plus one cell. z* is unique once a count equals
    its multiplicity: then every other root lies outside |z| < R. A tie
    that survives to the last radius, 2^-(prec + 4) above z*, is reported
    as not unique (unique False), so no uniqueness is ever claimed without
    proof. Each radius is paired with one as far below z*, where a count
    that is not 0 proves a root of smaller modulus than z*: that ends the
    search with unique and real_positive False.

    By Pringsheim's theorem a series with nonnegative coefficients has a
    dominant singularity at z*, so every pole search of the package meets
    such a q. A q whose root of least modulus is not positive real, such as
    (1 + 2z)(1 - z), gives its smallest positive root with unique and
    real_positive False; a q with no positive root, such as 1 + z^2,
    raises AnalysisError. So do the zero polynomial, a constant, and
    q(0) = 0.
    """
    import mpmath as mp
    with mp.workdps(WORKING_DPS):
        bits = mp.mp.prec + 4
        chain, s, isolated, (lo, hi, depth) = _positive_root(_cleared(q),
                                                             bits)
        z_star = mp.mpc(mp.ldexp(mp.mpf(lo + hi), -depth - 1))

    # z* is a root of gcd(q, q') exactly when it is a multiple root, and so on
    multiplicity, gcd = 1, chain[-1]
    while len(gcd) > 1:
        sub = _sturm_chain(gcd)
        if lo == hi:
            root = not _grid_sign(gcd, lo, depth)
        else:
            root = _variations(sub, lo, depth) > _variations(sub, hi, depth)
        if not root:
            break
        multiplicity, gcd = multiplicity + 1, sub[-1]
    # pairs of radii closing in on z*: the isolating bracket's ends, below
    # whose upper end q has no other positive root; then hi (1 + 2^-j) and
    # lo (1 - 2^-j), rounded away from z* to the grid 2^-d, d = j + 2 - e
    # at least 0 for hi >= 2^e; and last the refined bracket's ends, one
    # cell out. A root nearer 0 than z* settles both answers at once.
    bottom, top, top_depth = isolated
    e = hi.bit_length() - 1 - depth
    pairs = [(top, bottom, top_depth)]
    for j in (4 << i for i in range(bits.bit_length())):
        d = max(0, j + 2 - e)
        shift = depth + j - d
        up = -(-hi * ((1 << j) + 1) >> shift)
        if j < bits and up << top_depth < top << d:
            pairs.append((up, lo * ((1 << j) - 1) >> shift, d))
    pairs.append((hi + 1, lo - 1, depth))
    unique = nearer = False
    for up, down, d in pairs:
        unique = _disc_count(chain[0], up, d) == multiplicity
        nearer = not unique and bool(_disc_count(chain[0], down, d))
        if unique or nearer:
            break
    real_positive = not nearer
    return SingularityReport(z_star, real_positive, multiplicity, unique, s)


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


_MAX_DEPTH = 200  # halvings of [0, 1] at most, in a threshold search


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


def _crossing_search(sign, cap: int, stop, hint: tuple[int, int] | None,
                     known: int, most: int) -> tuple[int, int]:
    """The last cell (cell, depth), [cell, cell + 1] 2^-depth, of halving
    [0, 1] around the one crossing of a monotone sign: sign(k) is True left
    of the crossing and False right of it at k / 2^cap; 0 is left, and
    every point from known up is right. The halving stops at the first
    cell that passes stop(cell, depth), as one must at depth cap.

    The halving's cells form one chain, each the floor of the next one's
    half, so the search keeps a bracket [lo, hi] of probed points and
    applies the stop rule to each cell of the chain once the bracket lies
    inside it. It probes the two ends of the hint cell, an end of known
    sign skipped, gallops on from the lower end the way the signs point at
    1, 3, 7, ... hint widths, for 8 probes at most in all, and then halves
    at the points with the most trailing zeros, the halving's own. Each
    probe is moved towards the bracket's middle as far as needed to lie
    within 2^(most - 1 - j) of both its ends, j the probes before it, so
    the search makes most probes at most. Where most >= cap + 8 no probe
    is moved, and the search ends at most 8 probes after the halving would.
    """
    lo, hi, probes, tested, step = 0, known, 0, 0, None
    if hint is not None:
        k, unit = hint[0], hint[1] - hint[0]
        step = unit if k <= lo else -unit if k >= hi else 0
        k += step
    while True:
        # the depth of the cell holding the bracket, and the stop rule on
        # every cell of the chain down to it
        common = cap - (lo ^ (hi - 1)).bit_length()
        for d in range(tested, common + 1):
            if stop(lo >> cap - d, d):
                return lo >> cap - d, d
        tested = common + 1
        if step is None or probes == 8 or not lo < k < hi:
            step = None
            split = cap - 1 - common
            k = (hi - 1) >> split << split
        reach = 1 << most - 1 - probes
        probes += 1
        point = min(max(k, hi - reach), lo + reach)
        left = sign(point)
        if left:
            lo = point
        else:
            hi = point
        if step is not None:
            # the gallop goes on while it stays on the side it started from
            if step and (step > 0) != left:
                step = None
            else:
                step = 2 * step or (unit if left else -unit)
                k += step


def _critical_lambda_from_sld(sld: SLD, tol: float) -> float | None:
    """sqrt of the midpoint of the last cell [lo, lo + 1] 2^-depth of halving
    [0, 1] around the member criterion's one crossing in mu (see
    critical_lambda_sweep), once the cell is narrower than tol in
    lam = sqrt(mu) (_narrow) or after 200 halvings; None when mu = 1 is not
    right of the crossing. _crossing_search finds it from exact signs of P
    on the grid 2^-200, hinted by the cell of a float guess
    (_crossing_guess) at the depth where the chain of the guess's cells
    stops, so a right guess takes two signs. The floats are correctly
    rounded quotients of integers, as a Fraction's are, so the result is
    that of halving with Fraction ends.
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

    def stop(cell: int, d: int) -> bool:
        return d >= first and (d == _MAX_DEPTH or _narrow(cell, d, tol))

    def left(k: int) -> bool:
        zeros = (k & -k).bit_length() - 1
        return _grid_sign(coeffs, k >> zeros, _MAX_DEPTH - zeros) >= 0
    top = 1 << _MAX_DEPTH
    guess = min(int(math.ldexp(_crossing_guess(sld), _MAX_DEPTH)), top - 1)
    depth = next(d for d in itertools.count(first)
                 if stop(guess >> _MAX_DEPTH - d, d))
    start = guess >> _MAX_DEPTH - depth << _MAX_DEPTH - depth
    cell, d = _crossing_search(left, _MAX_DEPTH, stop,
                               (start, start + (1 << _MAX_DEPTH - depth)),
                               top, _MAX_DEPTH + 8)
    return math.sqrt((2 * cell + 1) / (2 << d))


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
    where mu_c lies, and the exact search that the limit shares finds it
    (_critical_lambda_from_sld): a float Newton on kbar = n/2 hints the
    cell, two exact signs of P confirm a right hint, and no member takes
    more than 8 signs beyond the halving. Each sign is one Horner pass on
    2^(d deg P) P(k 2^-d) in integers. Every member's A_k are the integers
    of the one member stream (_sector_lengths).
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
    lam, unreduced and mostly in floats: z is the smallest positive root of
    family_gf's denominator q at (1, mu), mu = lam^2 at its exact dyadic
    value, which the exact kernel (_positive_root) isolates and stops at
    53 bits, and h is the value of q_x / (mu q_y) - 1 at z in floats.
    Raises ArithmeticError or ValueError (an AnalysisError where q has no
    positive root) where floats or the root fail."""
    den = family_gf(sys).den
    tables = []
    for poly in _gf_den_partials(sys):
        sums = {}  # x summed out at x = 1, exactly
        for (_, ey, ez), c in poly.terms.items():
            sums[ey, ez] = sums.get((ey, ez), 0) + c
        tables.append((poly.max_degree_z(),
                       [(ey, ez, float(c)) for (ey, ez), c in sums.items()]))

    def at(degree: int, terms: list, mu: float, z: float) -> float:
        coeffs = [0.0] * (degree + 1)
        for ey, ez, c in terms:
            coeffs[ez] += c * mu ** ey
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    def h(lam: float) -> float:
        mu = lam * lam
        (q,), _ = _integer_z_coefficients((den,), 1, Fraction(mu))
        *_, (lo, hi, depth) = _positive_root(q, 53)
        z = float(Fraction(lo + hi, 2 << depth))
        (dx, x_terms), (dy, y_terms) = tables
        return at(dx, x_terms, mu, z) / (mu * at(dy, y_terms, mu, z)) - 1
    return h


# the float guess's grid: its points and their cells' midpoints, multiples
# of 2^-53 in [0, 1], are floats, so the float criterion sees them exactly
_GUESS_DEPTH = 52
# the limit's first probe, where a crossing is told from a boundary limit
_EDGE = Fraction(1) - Fraction(1, 1 << 20)


def _limit_guess(sys: TransferSystem) -> float | None:
    """Float estimate of the limit's crossing lam_c: the midpoint of the
    cell of spacing 2^-52 that _crossing_cell finds on the float criterion
    (_float_criterion), where that cell lies inside (0, edge]. None where
    the floats fail or the cell lies elsewhere, as where they show no sign
    change: the guess is a hint, and no failure of it is an error."""
    try:
        h = _float_criterion(sys)

        def g(lam: float) -> float:
            value = h(lam)
            if math.isnan(value):
                raise ArithmeticError("the float criterion is NaN")
            return value
        cell = _crossing_cell(g, _GUESS_DEPTH)
    except (ArithmeticError, ValueError):
        return None
    if 0 < cell and Fraction(cell + 1, 1 << _GUESS_DEPTH) <= _EDGE:
        return math.ldexp(2 * cell + 1, -_GUESS_DEPTH - 1)
    return None


def _crossing_cell(h, depth: int) -> int:
    """The lower end k of the cell [k, k + 1] 2^-depth that holds the one
    crossing of the float function h in (0, 1), h > 0 left of it and
    h <= 0 right of it: the last bracket of halving [0, 1] depth times.
    Each probe, a grid point passed as a float, is the bracket's midpoint
    until two probes differ in h, and then the secant root through the last
    two of g = 1/(h + 2) - 1/2, the limit of kbar/n - 1/2, smooth where h
    is steeply convex (on path, h(1/2) is about 8.1 and h(edge) about
    -0.67). It is moved towards the bracket's midpoint as far as needed to
    keep the bracket closable by halving within depth + 2 probes."""
    lo, hi = 0, 1 << depth  # the bracket, in units of 2^-depth
    probes = []  # (grid point, h) of each probe
    while hi - lo > 1:
        # ceil(log2(hi - lo)) <= depth + 2 - len(probes) holds; a probe
        # within reach of both ends keeps it, and the midpoint always is
        reach = 1 << (depth + 1 - len(probes))
        k = (lo + hi) // 2
        if len(probes) >= 2 and probes[-1][1] != probes[-2][1]:
            (k0, h0), (k1, h1) = probes[-2:]
            k = k1 - round(h1 * (h0 + 2) * (k1 - k0) / (2 * (h1 - h0)))
        k = min(max(k, lo + 1, hi - reach), hi - 1, lo + reach)
        value = h(math.ldexp(k, -depth))
        probes.append((k, value))
        if value <= 0:
            hi = k
        else:
            lo = k
    return lo


def _error_bound(poly: UniPolyZ, z: mp.mpc) -> mp.mpf:
    """A bound on the error of poly at a pole z of dominant_singularity, as
    _mp_poly evaluates it at the context's precision p: Horner's rounding,
    at most 4 (deg + 1) 2^-p sum |c_i| |z|^i, and z's own distance from
    the root, at most 2^(1 - p) |z|, times twice sum i |c_i| |z|^(i - 1)."""
    import mpmath as mp
    x, size, slope = abs(z), mp.mpf(0), mp.mpf(0)
    for c in reversed(poly.coeffs):
        slope = slope * x + size
        size = size * x + abs(_mpf_from_fraction(c))
    return mp.ldexp(len(poly.coeffs) * size + x * slope, 2 - mp.mp.prec)


def criterion_asymptotic_ratio(sys: TransferSystem, lam) -> mp.mpf:
    """Large-member limit of Q1/Q2 at noise strength lam.

    Evaluated as dq/dx over lam^2 * dq/dy at (1, lam^2, z*), with z* the
    dominant root of the reduced specialised denominator; the numerator
    factors cancel against the denominator at any genuine simple pole. The
    ratio is indeterminate, a DegenerateSingularityError, where dq/dy at z*
    is within its error bound (_error_bound) of 0.
    """
    import mpmath as mp
    mu = _noise_parameter(lam) ** 2
    with mp.workdps(WORKING_DPS):
        _, q = _reduced_specialisation(sys, Fraction(1), mu)
        report = _simple_pole(q)
        z = report.z_star
        q_x, q_y = (_univariate(p, Fraction(1), mu)
                    for p in _gf_den_partials(sys))
        num = mp.make_mpc(_mp_poly(q_x)(z._mpc_))
        den = mp.make_mpc(_mp_poly(q_y)(z._mpc_))
        if abs(den) <= _error_bound(q_y, z):
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
    and the cell's midpoint, the bisection's, is returned. _crossing_search
    finds it as it finds a member's: each probe is the exact sign of h at a
    grid point, one pole search, and the first grid point from the edge up
    is known to be right of the crossing. The hint is the cell of a float
    guess of the crossing (_limit_guess), or its own cell of 2^-52 where
    the grid is finer. The probes stay within D + 2, two beyond the
    bisection's. At the default tol the interior built-in limits take 3
    pole searches, the edge and the guessed cell's two ends, where the
    bisection takes 35; at 1e-16 they take 5, the search halving on inside
    the guess's cell, where the bisection takes 55.

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
        edge_value = criterion_asymptotic_ratio(sys, _EDGE) - 1
        if edge_value <= 0:
            depth = next((d for d in range(_MAX_DEPTH) if 2.0 ** -d < tol),
                         _MAX_DEPTH)
            guess, hint = _limit_guess(sys), None
            if guess is not None:
                coarse = min(depth, _GUESS_DEPTH)
                start = math.floor(math.ldexp(guess, coarse)) << depth - coarse
                hint = start, start + (1 << depth - coarse)

            def left(k: int) -> bool:
                lam = Fraction(k, 1 << depth)
                return criterion_asymptotic_ratio(sys, lam) > 1
            cell, _ = _crossing_search(
                left, depth, lambda cell, d: d == depth, hint,
                math.ceil(_EDGE * (1 << depth)), depth + 2)
            return float(Fraction(2 * cell + 1, 2 << depth))
        if edge_value < 1e-3:
            if _criterion_vanishes_at_one(sys):
                raise NoThresholdError(
                    "no member has a threshold: the criterion vanishes at "
                    "lam = 1 on every member")
            return 1.0
        raise NoThresholdError(
            "asymptotic criterion ratio has no sign change in [0, 1]")
