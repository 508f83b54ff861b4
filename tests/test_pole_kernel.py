"""The exact pole kernel against the float kernel it replaced
(tests/pole_reference.py), and on polynomials whose roots are known.

Wherever the float kernel isolates a simple pole, the exact kernel must
find it too, with the same multiplicity and uniqueness and z* within
2^-120 in relative terms; the residues at the float kernel's roots and the
values built on the pole must agree to the working precision. The integer
specialisation that feeds both gives the pairs and values of the Fraction
one."""

import math
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sldgf import (BUILTIN_FAMILIES, AlgebraError, AnalysisError,
                   DegenerateSingularityError, RatFunc3,
                   build_transfer_system, poly_from_terms, uni_reduce,
                   uni_specialize)
from sldgf import analysis
from sldgf.algebra import _integer_z_coefficients
from sldgf.transfer import family_gf

import pole_reference as reference
from pole_reference import bits
from test_algebra import laurent_polys
from test_transfer import family_specs

# the benchmark's noise strengths: 4/5 and the seeded k/32, k odd in 17..29
LAMBDAS = [F(4, 5), *(F(k, 32) for k in range(17, 31, 2))]
FIDELITY_MEMBER = 60  # the benchmark's; fig3 reads members 1..60


def outcome(compute):
    """compute()'s value, or the type and message of the AnalysisError it
    raises, so that two kernels are compared on failures too."""
    try:
        return compute()
    except AnalysisError as exc:
        return type(exc), str(exc)


def close(value, expected, rel_bits: int) -> bool:
    """|value - expected| <= 2^-rel_bits |expected|, at the working
    precision."""
    with mp.workdps(analysis.WORKING_DPS):
        return abs(value - expected) <= abs(expected) * mp.mpf(2) ** -rel_bits


def isolates_simple_pole(report) -> bool:
    return report.unique and report.multiplicity == 1 and report.real_positive


def assert_same_kernel(p, q):
    """Where the float kernel isolates a simple pole of q, the exact kernel
    reports it unique and simple, with z* within 2^-120 in relative terms,
    widened by the float polish's conditioning; and the residue of
    p/q at each of the float kernel's roots is the reference's, bit for
    bit, since both evaluate it the same way."""
    with mp.workdps(analysis.WORKING_DPS):
        roots = reference._all_roots(q)
        dq = [k * c for k, c in enumerate(q)][1:]
        assert [bits(analysis._residue(p, dq, z)) for z in roots] == \
            [bits(reference._residue(p, dq, z)) for z in roots]
    expected = outcome(lambda: reference.dominant_singularity(q))
    if isinstance(expected, tuple) or not isolates_simple_pole(expected):
        return
    report = analysis.dominant_singularity(q)
    assert (report.multiplicity, report.unique, report.real_positive) == \
        (1, True, True)
    # the float polish of z* loses the bits that a second root at relative
    # distance gap - 1 costs it: 26 on the near pair below
    with mp.workdps(analysis.WORKING_DPS):
        assert abs(report.z_star - expected.z_star) <= abs(expected.z_star) \
            * mp.mpf(2) ** -120 / min(1, expected.modulus_gap - 1)


def same_value(compute, compute_reference, rel_bits: int = 90) -> None:
    """Where the reference gives a value through a simple pole, the package
    gives one within 2^-rel_bits; a reference failure is not compared. The
    bound leaves room for cancellation: at the edge probe lam = 1 - 2^-20
    of the star-like families, the criterion ratio's partials nearly vanish
    together, and the two kernels' ratios differ by 2^-97 there."""
    expected = outcome(compute_reference)
    if isinstance(expected, tuple):
        return
    assert close(compute(), expected, rel_bits)


def assert_same_asymptotics(sys_, lam):
    same_value(lambda: analysis.fidelity_asymptotic(sys_, lam,
                                                    FIDELITY_MEMBER),
               lambda: reference.fidelity_asymptotic(sys_, lam,
                                                     FIDELITY_MEMBER))
    same_value(lambda: analysis.criterion_asymptotic_ratio(sys_, lam),
               lambda: reference.criterion_asymptotic_ratio(sys_, lam))


@pytest.mark.parametrize("name", BUILTIN_FAMILIES)
def test_builtins_at_the_benchmark_points(systems, name):
    # the fidelity point (1/2, lam/2), the criterion point (1, lam^2) and
    # the entanglement point (3/4, 1/4)
    sys_ = systems[name]
    gf = family_gf(sys_)
    points = [(F(3, 4), F(1, 4))]
    for lam in LAMBDAS:
        points += [(F(1, 2), lam / 2), (F(1), lam * lam)]
        assert_same_asymptotics(sys_, lam)
    for point in points:
        pair = uni_reduce(*uni_specialize(gf, *point))
        assert pair == uni_reduce(*reference.uni_specialize(gf, *point))
        assert_same_kernel(*pair)


@pytest.mark.parametrize("name", BUILTIN_FAMILIES)
def test_builtin_thresholds_probe_the_same_values(systems, name,
                                                  monkeypatch):
    # critical_lambda_asymptotic (closed_forms, fig4) probes the criterion
    # ratio at grid points; the limit is the reference's, and so is every
    # probe to the working precision
    sys_ = systems[name]
    probes = []
    real = analysis.criterion_asymptotic_ratio

    def recorded(sys_, lam):
        probes.append(lam)
        return real(sys_, lam)
    monkeypatch.setattr(analysis, "criterion_asymptotic_ratio", recorded)
    limit = outcome(lambda: analysis.critical_lambda_asymptotic(sys_))
    monkeypatch.setattr(analysis, "criterion_asymptotic_ratio",
                        reference.criterion_asymptotic_ratio)
    assert outcome(lambda: analysis.critical_lambda_asymptotic(sys_)) == limit
    assert probes
    for lam in probes:
        same_value(lambda: real(sys_, lam),
                   lambda: reference.criterion_asymptotic_ratio(sys_, lam))


@pytest.mark.parametrize("name", ["path", "star", "cycle"])
def test_fig3_leading_terms(systems, name):
    # the pole, its residue and the members' terms to the working
    # precision, and the same gap as a float, which fig3 and fidelity print
    lead = analysis.fidelity_leading_term(systems[name], F(4, 5))
    ref = reference.fidelity_leading_term(systems[name], F(4, 5))
    assert close(lead.report.z_star, ref.report.z_star, 120)
    assert lead.report.modulus_gap == ref.report.modulus_gap
    assert close(lead.residue, ref.residue, 110)
    for r in (1, 30, 60):
        assert close(lead.coefficient(r), ref.coefficient(r), 110)


def from_roots(roots) -> list[int]:
    """The primitive integer polynomial with the given rational roots."""
    coeffs = [F(1)]
    for root in roots:
        coeffs = [F(0), *coeffs]
        for i in range(len(coeffs) - 1):
            coeffs[i] -= root * coeffs[i + 1]
    scale = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * scale) for c in coeffs]


@pytest.mark.parametrize("roots", [
    # far outside the unit circle, and two simple roots 1.5e-8 apart in
    # relative terms, which the float kernel's cluster radius 1e-8 max(1,
    # |z*|) just separates
    range(1, 13), [5, 1000, 1001, 1002],
    [F(2), 2 * (1 + F(15, 10 ** 9))]], ids=["1..12", "spread", "near_pair"])
def test_hand_made_denominators(roots):
    q = from_roots(roots)
    assert_same_kernel([1], q)
    assert analysis.dominant_singularity(q).multiplicity == 1


def test_close_simple_roots_are_separated():
    # 1.2e-8 apart in relative terms: the float kernel's 8-step Newton left
    # them unconverged, at 1.4978 with multiplicity 2
    q = from_roots([F(3, 2), F(3, 2) * (1 + F(12, 10 ** 9))])
    report = analysis.dominant_singularity(q)
    with mp.workdps(analysis.WORKING_DPS):
        assert abs(report.z_star - F(3, 2)) < mp.mpf("1e-30")
    assert (report.multiplicity, report.unique) == (1, True)


class TestExactKernel:
    """The exact kernel on polynomials whose roots are known."""

    @pytest.mark.parametrize("coeffs", [[1], [-1]])
    def test_constant_has_no_pole(self, coeffs):
        with pytest.raises(AnalysisError, match="constant denominator"):
            analysis.dominant_singularity(coeffs)

    def test_no_positive_root(self):
        # 1 + z^2: no series with nonnegative coefficients has it as its
        # reduced denominator (Pringsheim), and the kernel refuses it
        with pytest.raises(AnalysisError, match="no positive root"):
            analysis.dominant_singularity([1, 0, 1])

    def test_tie_on_the_circle_is_not_unique(self):
        # (1 - z)(1 + z^2): the roots 1 and +-i share the modulus
        report = analysis.dominant_singularity([1, -1, 1, -1])
        assert report.z_star == 1
        assert (report.multiplicity, report.unique, report.real_positive) \
            == (1, False, True)
        assert report.modulus_gap == 1.0

    def test_smaller_negative_root(self):
        # (1 + 2z)(1 - z): the root of least modulus is -1/2, not positive;
        # the report keeps the smallest positive root and says so
        report = analysis.dominant_singularity([1, 1, -2])
        assert report.z_star == 1
        assert (report.unique, report.real_positive) == (False, False)
        with pytest.raises(DegenerateSingularityError):
            analysis._simple_pole([1, 1, -2])

    @pytest.mark.parametrize("roots, multiplicity", [
        ([1, 1], 2), ([F(1, 2), F(1, 2), 1], 2), ([3, 3, 3, 5], 3)])
    def test_multiple_root(self, roots, multiplicity):
        report = analysis.dominant_singularity(from_roots(roots))
        assert report.z_star == roots[0]
        assert (report.multiplicity, report.unique) == (multiplicity, True)

    def test_irrational_pole_to_the_working_precision(self):
        # path's denominator -(z - 2)(z^2 + 2z - 4): z* = sqrt(5) - 1, with
        # the root 2 on the first circle the count tries
        report = analysis.dominant_singularity([-8, 8, 0, -1])
        with mp.workdps(2 * analysis.WORKING_DPS):
            assert close(report.z_star, mp.sqrt(5) - 1, 130)
        assert report.unique and report.multiplicity == 1

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.fractions(-4, 4, max_denominator=9),
                              st.integers(1, 3)), max_size=3),
           st.lists(st.tuples(st.integers(1, 4), st.integers(-8, 8),
                              st.integers(-8, 8)), max_size=2),
           st.integers(1, 64))
    def test_products_of_known_factors(self, linear, quadratic, radius):
        # rational roots with multiplicities, and irreducible quadratics
        # a z^2 + b z + c, whose roots are a complex pair of modulus
        # sqrt(c/a) or two irrational reals
        linear = [(root, m) for root, m in linear if root]
        quadratic = [(a, b, c) for a, b, c in quadratic
                     if c and not is_square(b * b - 4 * a * c)]
        assume(linear or quadratic)
        q = [1]
        for root, m in linear:
            for _ in range(m):
                q = reference.product(q, [-root.numerator, root.denominator])
        for a, b, c in quadratic:
            q = reference.product(q, [c, b, a])
        with mp.workdps(100):
            roots = [(mp.mpf(root.numerator) / root.denominator, m)
                     for root, m in linear]
            for a, b, c in quadratic:
                d = mp.sqrt(mp.mpf(b * b - 4 * a * c))
                roots += [((-b + d) / (2 * a), 1), ((-b - d) / (2 * a), 1)]
            positive = [z for z, _ in roots if mp.im(z) == 0 and z > 0]
            if not positive:
                with pytest.raises(AnalysisError, match="no positive root"):
                    analysis.dominant_singularity(q)
                return
            star = min(positive)
            tiny = mp.mpf(10) ** -60
            multiplicity = sum(m for z, m in roots if abs(z - star) < tiny)
            others = [abs(z) for z, _ in roots if abs(z - star) >= tiny]
            coeffs = [int(c) for c in q]
            report = analysis.dominant_singularity(q)
            *_, (lo, hi, depth) = analysis._positive_root(coeffs, 60)
            assert lo / mp.mpf(2) ** depth <= star <= hi / mp.mpf(2) ** depth
            assert (hi - lo) * 2 ** 60 <= lo
            assert close(report.z_star, star, 120)
            assert report.multiplicity == multiplicity
            assert report.unique == all(z > star + tiny for z in others)
            assert report.real_positive == all(z > star - tiny
                                               for z in others)
            # the Schur-Cohn count in |z| < radius / 16, where it counts
            count = analysis._disc_count(coeffs, radius, 4)
            if count is not None:
                r = mp.mpf(radius) / 16
                assert count == sum(m for z, m in roots if abs(z) < r)

    @pytest.mark.parametrize("coeffs", [[1, 0, 1], [1, -3, 1], [1, 2, -1]],
                             ids=["on_circle", "mirrored", "equal_ends"])
    def test_disc_count_refuses_singular_cases(self, coeffs):
        # +-i on the unit circle; roots r and 1/r, mirrored in it; and
        # |q(0)| = |lc q|, a vanishing first constant with neither
        assert analysis._disc_count(coeffs, 1, 0) is None


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


@settings(max_examples=25, deadline=None)
@given(family_specs(), st.sampled_from(LAMBDAS))
def test_generated_families(spec, lam):
    sys_ = build_transfer_system(spec)
    gf = family_gf(sys_)
    pair = uni_reduce(*uni_specialize(gf, F(1, 2), lam / 2))
    assert pair == uni_reduce(*reference.uni_specialize(gf, F(1, 2), lam / 2))
    if len(pair[1]) > 1:
        assert_same_kernel(*pair)
    assert_same_asymptotics(sys_, lam)


def points():
    """Coordinates that are 0, negative, integral or not."""
    return st.one_of(st.sampled_from([F(0), F(1), F(-1), F(-3, 2)]),
                     st.fractions(min_value=-3, max_value=3,
                                  max_denominator=12))


def scaled_back(poly, x0, y0) -> list[F]:
    """The integers of _integer_z_coefficients over their scale."""
    (coeffs,), scale = _integer_z_coefficients((poly,), x0, y0)
    return [F(c, scale) for c in coeffs]


def specialised(compute):
    """compute()'s value, or the type and message of the AlgebraError it
    raises."""
    try:
        return compute()
    except AlgebraError as exc:
        return type(exc), str(exc)


class TestIntegerSpecialisation:
    # the integer power tables against c x0^ex y0^ey as Fraction products,
    # scaled back to integers by one rational, as pole_reference has them
    @settings(max_examples=150, deadline=None)
    @given(laurent_polys(), laurent_polys(), points(), points())
    def test_matches_the_fraction_reference(self, p, q, x0, y0):
        f = RatFunc3(p, q)
        assert specialised(lambda: uni_specialize(f, x0, y0)) == \
            specialised(lambda: reference.uni_specialize(f, x0, y0))
        for poly in (p, q):
            assert specialised(lambda: scaled_back(poly, x0, y0)) == \
                specialised(lambda: reference.z_coefficients(poly, x0, y0))
            flat = poly.z_slice(0)
            assert specialised(lambda: flat.eval_xy(x0, y0)) == specialised(
                lambda: reference.z_coefficients(flat, x0, y0)[0])

    def test_specialised_pair_has_content_one(self):
        # 2/3 x y^-1 + 4/9 z over 8/3 - 4/3 x z at (-3/2, 1/2): the pair
        # is scaled to integers with gcd 1 and a positive q(0)
        p = poly_from_terms([(1, -1, 0, F(2, 3)), (0, 0, 1, F(4, 9))])
        q = poly_from_terms([(0, 0, 0, F(8, 3)), (1, 0, 1, F(-4, 3))])
        pair = uni_specialize(RatFunc3(p, q), F(-3, 2), F(1, 2))
        assert pair == reference.uni_specialize(RatFunc3(p, q), F(-3, 2),
                                                F(1, 2))
        assert pair == ([-9, 2], [12, 9])
        assert uni_specialize(RatFunc3(p, -q), F(-3, 2), F(1, 2)) == \
            ([9, -2], [12, 9])
