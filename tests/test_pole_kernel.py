"""The pole kernel on raw libmp values gives the bits of the kernel on mpc
objects (tests/pole_reference.py): the roots, the dominant-singularity
report, the residues, the fidelity asymptotic and the criterion ratio. The
integer specialisation that feeds it gives the pairs and values of the
Fraction one."""

import math
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sldgf import (BUILTIN_FAMILIES, AlgebraError, AnalysisError, RatFunc3,
                   UniPolyZ, build_transfer_system, poly_from_terms,
                   uni_reduce, uni_specialize)
from sldgf import analysis
from sldgf.algebra import _univariate
from sldgf.transfer import family_gf

import pole_reference as reference
from pole_reference import bits
from test_algebra import laurent_polys
from test_transfer import family_specs

# the benchmark's noise strengths: 4/5 and the seeded k/32, k odd in 17..29
LAMBDAS = [F(4, 5), *(F(k, 32) for k in range(17, 31, 2))]
FIDELITY_MEMBER = 60  # the benchmark's; fig3 reads members 1..60


def report_bits(report):
    return (bits(report.z_star), report.real_positive, report.multiplicity,
            report.unique, report.modulus_gap)


def outcome(compute):
    """compute()'s value, or the type and message of the AnalysisError it
    raises, so that two kernels are compared on failures too."""
    try:
        return compute()
    except AnalysisError as exc:
        return type(exc), str(exc)


def assert_same_kernel(p, q):
    """_all_roots, the residue of p/q at every root and the dominant
    singularity of q agree bit for bit with the reference kernel."""
    with mp.workdps(analysis.WORKING_DPS):
        roots = analysis._all_roots(q)
        assert [bits(r) for r in roots] == \
            [bits(r) for r in reference._all_roots(q)]
        dq = q.derivative()
        assert [bits(analysis._residue(p, dq, z)) for z in roots] == \
            [bits(reference._residue(p, dq, z)) for z in roots]
    assert outcome(lambda: report_bits(analysis.dominant_singularity(q))) \
        == outcome(lambda: report_bits(reference.dominant_singularity(q)))


def assert_same_asymptotics(sys_, lam):
    assert outcome(lambda: bits(analysis.fidelity_asymptotic(
        sys_, lam, FIDELITY_MEMBER))) == outcome(lambda: bits(
            reference.fidelity_asymptotic(sys_, lam, FIDELITY_MEMBER)))
    assert outcome(lambda: bits(analysis.criterion_asymptotic_ratio(
        sys_, lam))) == outcome(lambda: bits(
            reference.criterion_asymptotic_ratio(sys_, lam)))


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
def test_builtin_thresholds_probe_the_same_bits(systems, name, monkeypatch):
    # critical_lambda_asymptotic (closed_forms, fig4) probes the criterion
    # ratio at grid points; every probe and the limit are the reference's
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
        assert outcome(lambda: bits(real(sys_, lam))) == outcome(
            lambda: bits(reference.criterion_asymptotic_ratio(sys_, lam)))


@pytest.mark.parametrize("name", ["path", "star", "cycle"])
def test_fig3_leading_terms(systems, name):
    lead = analysis.fidelity_leading_term(systems[name], F(4, 5))
    ref = reference.fidelity_leading_term(systems[name], F(4, 5))
    assert report_bits(lead.report) == report_bits(ref.report)
    assert bits(lead.residue) == bits(ref.residue)
    for r in (1, 30, 60):
        assert bits(lead.coefficient(r)) == bits(ref.coefficient(r))


def from_roots(roots) -> UniPolyZ:
    """The primitive integer polynomial with the given rational roots."""
    coeffs = [F(1)]
    for root in roots:
        coeffs = [F(0), *coeffs]
        for i in range(len(coeffs) - 1):
            coeffs[i] -= root * coeffs[i + 1]
    scale = math.lcm(*(c.denominator for c in coeffs))
    return UniPolyZ([c * scale for c in coeffs])


@pytest.mark.parametrize("roots", [
    # far outside the unit circle, where the step bound 1e-35 max(1, |z|)
    # decides when the polish stops
    range(1, 13), [5, 1000, 1001, 1002],
    # two simple roots 1.5e-8 apart in relative terms, where the cluster
    # radius 1e-8 max(1, |z*|) decides the multiplicity
    [F(2), 2 * (1 + F(15, 10 ** 9))]], ids=["1..12", "spread", "near_pair"])
def test_hand_made_denominators(roots):
    q = from_roots(roots)
    assert_same_kernel(UniPolyZ([1]), q)
    assert analysis.dominant_singularity(q).multiplicity == 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the 8-step Newton from the np.roots estimates "
                   "leaves two simple roots 1.2e-8 apart in relative terms "
                   "unconverged, at 1.4978 with multiplicity 2 (FOUND, "
                   "CHANGES.md:392); an exact root kernel separates them")
def test_close_simple_roots_are_separated():
    q = from_roots([F(3, 2), F(3, 2) * (1 + F(12, 10 ** 9))])
    report = analysis.dominant_singularity(q)
    with mp.workdps(analysis.WORKING_DPS):
        assert abs(report.z_star - F(3, 2)) < mp.mpf("1e-30")
    assert report.multiplicity == 1


@settings(max_examples=25, deadline=None)
@given(family_specs(), st.sampled_from(LAMBDAS))
def test_generated_families(spec, lam):
    sys_ = build_transfer_system(spec)
    gf = family_gf(sys_)
    pair = uni_reduce(*uni_specialize(gf, F(1, 2), lam / 2))
    assert pair == uni_reduce(*reference.uni_specialize(gf, F(1, 2), lam / 2))
    if pair[1].degree() > 0:
        assert_same_kernel(*pair)
    assert_same_asymptotics(sys_, lam)


def points():
    """Coordinates that are 0, negative, integral or not."""
    return st.one_of(st.sampled_from([F(0), F(1), F(-1), F(-3, 2)]),
                     st.fractions(min_value=-3, max_value=3,
                                  max_denominator=12))


def specialised(compute):
    """compute()'s value, or the type and message of the AlgebraError it
    raises."""
    try:
        return compute()
    except AlgebraError as exc:
        return type(exc), str(exc)


class TestIntegerSpecialisation:
    # the integer power tables against c x0^ex y0^ey as Fraction products,
    # scaled back to integers by _normalise_pair, as pole_reference has them
    @settings(max_examples=150, deadline=None)
    @given(laurent_polys(), laurent_polys(), points(), points())
    def test_matches_the_fraction_reference(self, p, q, x0, y0):
        f = RatFunc3(p, q)
        assert specialised(lambda: uni_specialize(f, x0, y0)) == \
            specialised(lambda: reference.uni_specialize(f, x0, y0))
        for poly in (p, q):
            assert specialised(lambda: _univariate(poly, x0, y0)) == \
                specialised(lambda: reference.univariate(poly, x0, y0))
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
        assert pair == (UniPolyZ([-9, 2]), UniPolyZ([12, 9]))
        assert uni_specialize(RatFunc3(p, -q), F(-3, 2), F(1, 2)) == \
            (UniPolyZ([9, -2]), UniPolyZ([12, 9]))
