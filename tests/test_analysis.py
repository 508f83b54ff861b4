"""Entanglement, fidelity, singularity, and threshold computations."""

import ast
import json
import math
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sldgf import (BUILTIN_FAMILIES, SLD, AnalysisError,
                   DegenerateSingularityError, FamilySpec, Graph,
                   LaurentPoly3, NoThresholdError,
                   build_transfer_system, builtin, concentratable_entanglement,
                   criterion_asymptotic_ratio, criterion_q, critical_lambda,
                   critical_lambda_asymptotic, critical_lambda_sweep,
                   dominant_singularity, fidelity_asymptotic, fidelity_exact,
                   fidelity_leading_term, fidelity_sweep, iter_weps,
                   parse_family_spec, realize, sld_from_wep, wep_by_iteration,
                   wep_values_by_iteration)
from sldgf import analysis

import threshold_reference as reference
from ce_reference import ce_closed_form_check
from conftest import brute_sectors
from test_custom_family import CATERPILLAR, LADDER_3
from test_family import isolated_vertex_document, still_document
from test_transfer import family_specs


def named_system(name):
    """The system of a custom family document used across the tests."""
    doc = {"caterpillar": CATERPILLAR, "ladder_3": LADDER_3,
           "isolated_vertex": isolated_vertex_document()}[name]
    return build_transfer_system(parse_family_spec(json.dumps(doc)))


class TestConcentratableEntanglement:
    def test_star_member_five(self, systems):
        cbar, c = concentratable_entanglement(systems["star"], 5)
        assert cbar == F(17, 32)
        assert c == F(15, 32)

    def test_cycle_member_six(self, systems):
        # Lucas recurrence: 2, 1, 3, 4, 7, 11, 18
        cbar, _ = concentratable_entanglement(systems["cycle"], 6)
        assert cbar == F(18 + 1, 64)

    def test_single_qubit_is_unentangled(self, systems):
        for name in ("path", "star", "cycle"):
            cbar, c = concentratable_entanglement(systems[name], 1)
            assert cbar == 1 and c == 0

    def test_star_closed_form(self, systems):
        for r in range(1, 31):
            cbar, _ = concentratable_entanglement(systems["star"], r)
            assert cbar == F(1, 2) + F(1, 2 ** r)

    def test_cycle_lucas_closed_form(self, systems):
        lucas = [2, 1]
        while len(lucas) <= 30:
            lucas.append(lucas[-1] + lucas[-2])
        for r in range(1, 31):
            cbar, _ = concentratable_entanglement(systems["cycle"], r)
            assert cbar == F(lucas[r] + 1, 2 ** r)

    def test_path_radical_closed_form(self, systems):
        with mp.workdps(40):
            s5 = mp.sqrt(5)
            for r in range(0, 31):
                cbar, _ = concentratable_entanglement(systems["path"], r)
                radical = ((5 + s5) / (5 * (-1 + s5) ** (r + 1))
                           + (5 - s5) / (5 * (-1 - s5) ** (r + 1)))
                exact = mp.mpf(cbar.numerator) / cbar.denominator
                assert abs(radical - exact) < 1e-10


@pytest.mark.parametrize("r", [-1, -2])
@pytest.mark.parametrize("entry", [
    lambda sys_, r: list(iter_weps(sys_, r)),
    lambda sys_, r: wep_values_by_iteration(sys_, 1, 1, r),
    lambda sys_, r: fidelity_exact(sys_, "0.5", r),
    lambda sys_, r: concentratable_entanglement(sys_, r),
    lambda sys_, r: fidelity_asymptotic(sys_, "0.5", r),
], ids=["iter_weps", "wep_values_by_iteration", "fidelity_exact",
        "concentratable_entanglement", "fidelity_asymptotic"])
def test_negative_member_bound_rejected(systems, entry, r):
    # a negative bound must not slice the prefix members from the end
    with pytest.raises(ValueError, match="member index must be nonnegative"):
        entry(systems["path"], r)


@pytest.mark.parametrize("r", [2.5, 3.0, F(5, 2), True])
@pytest.mark.parametrize("entry", [
    lambda sys_, r: critical_lambda_sweep(sys_, [r, 2]),
    lambda sys_, r: critical_lambda(sys_, r),
    lambda sys_, r: wep_by_iteration(sys_, r),
    lambda sys_, r: list(iter_weps(sys_, r)),
    lambda sys_, r: criterion_q(sys_, "0.5", r),
    lambda sys_, r: fidelity_exact(sys_, "0.5", r),
    lambda sys_, r: fidelity_sweep(sys_, 0, r),
    lambda sys_, r: wep_values_by_iteration(sys_, 1, 1, r),
    lambda sys_, r: concentratable_entanglement(sys_, r),
    lambda sys_, r: fidelity_asymptotic(sys_, "0.5", r),
], ids=["critical_lambda_sweep", "critical_lambda", "wep_by_iteration",
        "iter_weps", "criterion_q", "fidelity_exact", "fidelity_sweep",
        "wep_values_by_iteration", "concentratable_entanglement",
        "fidelity_asymptotic"])
def test_member_index_must_be_an_integer(systems, entry, r):
    # a float or Fraction index, even a whole one, and a bool are refused,
    # not sliced with or taken as member 1; fidelity_sweep at lam = 0 reads
    # cycle's members at a zero coordinate
    with pytest.raises(ValueError, match="member index must be an integer"):
        entry(systems["cycle"], r)


def test_member_index_may_be_any_integer_type(systems):
    import numpy as np
    path = systems["path"]
    assert critical_lambda_sweep(path, [np.int64(3), 2]) == \
        critical_lambda_sweep(path, [3, 2])
    assert criterion_q(path, "0.5", np.int8(4)) == criterion_q(path, "0.5", 4)


class TestClosedFormChecks:
    def test_path_roots_and_agreement(self, systems):
        report = ce_closed_form_check(systems["path"], 30)
        assert report.ok and report.max_abs_error < 1e-10
        got = sorted(z.real for z in report.roots)
        assert got == pytest.approx([-1 - 5 ** 0.5, -1 + 5 ** 0.5])

    def test_star_roots(self, systems):
        report = ce_closed_form_check(systems["star"], 30)
        assert report.ok
        assert sorted(z.real for z in report.roots) == pytest.approx([1.0, 2.0])

    def test_cycle_roots(self, systems):
        report = ce_closed_form_check(systems["cycle"], 30)
        assert report.ok
        assert sorted(z.real for z in report.roots) == pytest.approx(
            [-1 - 5 ** 0.5, -1 + 5 ** 0.5, 2.0])


class TestFidelityExact:
    def test_full_noise_is_perfect_fidelity(self, systems):
        for name in ("path", "cycle", "grid_2"):
            for r in (0, 1, 3, 6):
                assert fidelity_exact(systems[name], 1, r) == 1

    def test_bell_pair_formula(self, systems):
        for lam in (F(0), F(1, 3), F(4, 5), F(1)):
            expected = (1 + 3 * lam ** 2) / 4
            assert fidelity_exact(systems["path"], lam, 2) == expected

    def test_ten_chain_against_oracle(self, systems):
        g = realize(builtin("path"), 10)
        sectors = brute_sectors(g.vertex_count, g.sorted_edges())
        lam = F(4, 5)
        expected = sum(a * lam ** k for k, a in enumerate(sectors)) / 2 ** 10
        assert fidelity_exact(systems["path"], lam, 10) == expected

    def test_bounds_and_monotonicity(self, systems):
        sys_ = systems["joint_squares"]
        lams = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        for r in (1, 2, 3):
            n = sys_.spec.qubit_count(r)
            values = [fidelity_exact(sys_, lam, r) for lam in lams]
            assert values[0] == F(1, 2 ** n)
            assert values[-1] == 1
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_no_noise_leaves_the_all_white_colouring(self, systems):
        # W(1/2, 0) = 2^-n: cycle and complete_bipartite_2 have y^-1 step
        # entries, so the value is read from the members themselves
        for name in ("cycle", "complete_bipartite_2", "grid_2"):
            sys_ = systems[name]
            n = [0] + [sys_.spec.qubit_count(r) for r in range(1, 31)]
            assert fidelity_sweep(sys_, 0, 30) == [F(1, 2 ** k) for k in n]

    def test_sweep_matches_single_member(self, systems):
        sweep = fidelity_sweep(systems["star"], "0.8", 12)
        for r in (0, 5, 12):
            assert sweep[r] == fidelity_exact(systems["star"], "0.8", r)


class TestDominantSingularity:
    def test_linear_factor(self):
        report = dominant_singularity([1, -2])
        assert complex(report.z_star) == pytest.approx(0.5)
        assert report.multiplicity == 1 and report.unique

    def test_star_denominator(self):
        report = dominant_singularity([4, -6, 2])
        assert complex(report.z_star) == pytest.approx(1.0)
        assert report.multiplicity == 1
        assert report.modulus_gap == pytest.approx(2.0)

    def test_path_denominator_real_positive(self):
        report = dominant_singularity([-8, 8, 0, -1])
        assert complex(report.z_star) == pytest.approx(-1 + 5 ** 0.5)
        assert report.real_positive

    def test_rejects_vanishing_constant_term(self):
        with pytest.raises(ValueError):
            dominant_singularity([0, 1])

    def test_double_root_reported(self):
        report = dominant_singularity([1, -2, 1])
        assert report.multiplicity == 2

    def test_modulus_tie_not_unique(self):
        # roots at +1 and -1
        report = dominant_singularity([-1, 0, 1])
        assert not report.unique


class TestFidelityAsymptotic:
    def test_star_half_noise_member_forty(self, systems):
        exact = fidelity_exact(systems["star"], F(1, 2), 40)
        approx = fidelity_asymptotic(systems["star"], F(1, 2), 40)
        with mp.workdps(40):
            ratio = mp.mpf(exact.numerator) / exact.denominator / approx
            assert abs(ratio - 1) < 1e-6

    def test_ratio_tends_to_one_at_full_noise(self, systems):
        for name in ("path", "star", "pusteblume"):
            approx = fidelity_asymptotic(systems[name], 1, 40)
            assert abs(approx - 1) < 1e-12

    def test_path_error_decays(self, systems):
        lam = F(4, 5)
        exact = fidelity_sweep(systems["path"], lam, 31)
        with mp.workdps(40):
            deltas = []
            for r in range(20, 31):
                approx = fidelity_asymptotic(systems["path"], lam, r)
                deltas.append(abs(mp.mpf(exact[r].numerator)
                                  / exact[r].denominator - approx))
            assert all(b < a for a, b in zip(deltas, deltas[1:]))

    @pytest.mark.parametrize("lam", [F(2), F(-1, 2)])
    @pytest.mark.parametrize("entry", [
        fidelity_leading_term,
        lambda sys_, lam: fidelity_asymptotic(sys_, lam, 10),
        criterion_asymptotic_ratio,
    ], ids=["leading_term", "asymptotic", "criterion_ratio"])
    def test_noise_outside_unit_interval_rejected(self, systems, entry, lam):
        # the same range check as fidelity_sweep and criterion_q
        with pytest.raises(AnalysisError, match="noise parameter"):
            entry(systems["path"], lam)


class TestCriterion:
    def test_bell_polynomial(self, systems):
        for lam in (F(0), F(1, 2), F(9, 10)):
            q1, q2, q = criterion_q(systems["path"], lam, 2)
            assert q == 2 - 6 * lam ** 4
            assert q1 - q2 == q

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_criterion_reads_the_weight_enumerator(self, systems, name):
        # criterion_q reads its SLD off the member stream; the weight
        # enumerator's SLD gives the same three values
        sys_ = systems[name]
        for r in range(21):
            sld = sld_from_wep(wep_by_iteration(sys_, r))
            for lam in (F(0), F(3, 7), F(21, 32), F(37, 100), F(1)):
                weights = [a * lam ** (2 * k) for k, a in enumerate(sld)]
                q1 = sum((sld.n - k) * w for k, w in enumerate(weights))
                q2 = sum(k * w for k, w in enumerate(weights))
                assert criterion_q(sys_, lam, r) == (q1, q2, q1 - q2)

    def test_zero_noise_never_triggers(self, systems):
        for name, r in (("path", 5), ("star", 4), ("joint_squares", 2)):
            sys_ = systems[name]
            _, _, q = criterion_q(sys_, 0, r)
            assert q == sys_.spec.qubit_count(r)

    def test_shared_member_agrees_across_families(self, systems):
        for lam in (F(1, 4), F(1, 2), F(3, 4)):
            assert criterion_q(systems["path"], lam, 2) == \
                criterion_q(systems["star"], lam, 2)

    def test_bell_threshold(self, systems):
        value = critical_lambda(systems["path"], 2)
        assert value == pytest.approx(3 ** -0.25, abs=1e-9)

    def test_entangled_exactly_above_threshold(self, systems):
        threshold = 3 ** -0.25
        for lam, expect_negative in ((F(7, 10), False), (F(8, 10), True)):
            _, _, q = criterion_q(systems["path"], lam, 2)
            assert (q < 0) is expect_negative
            assert (float(lam) > threshold) is expect_negative

    def test_single_qubit_has_no_threshold(self, systems):
        assert critical_lambda(systems["path"], 1) is None

    def test_asymptotic_threshold_is_the_member_limit(self, systems):
        # the member thresholds must close in on the member-independent one
        approx = critical_lambda_asymptotic(systems["path"])
        gap_small = abs(critical_lambda(systems["path"], 40) - approx)
        gap_large = abs(critical_lambda(systems["path"], 400) - approx)
        assert gap_large < gap_small
        assert gap_large < 1e-3

    def test_joint_squares_threshold_converges(self, systems):
        approx = critical_lambda_asymptotic(systems["joint_squares"])
        assert abs(critical_lambda(systems["joint_squares"], 100) - approx) < 1e-3

    def test_star_threshold_sits_at_the_boundary(self, systems):
        approx = critical_lambda_asymptotic(systems["star"])
        assert approx == 1.0
        values = [critical_lambda(systems["star"], r) for r in (10, 40, 100)]
        assert values == sorted(values)
        assert values[-1] < 1.0

    @pytest.mark.parametrize("name, partner", [
        ("cycle", "path"), ("complete_bipartite_2", "pusteblume")])
    def test_shared_denominator_gives_shared_threshold(self, systems, name,
                                                       partner):
        # each pair shares its published denominator, so the asymptotic
        # thresholds coincide; both need the reduced generating function
        approx = critical_lambda_asymptotic(systems[name])
        assert approx == pytest.approx(
            critical_lambda_asymptotic(systems[partner]), abs=1e-8)

    def test_critical_lambda_sweep_collects_members(self, systems):
        entries = critical_lambda_sweep(systems["path"], [3, 1, 2, 3])
        assert [r for r, _ in entries] == [1, 2, 3]
        assert entries[0][1] is None
        assert entries[1][1] == pytest.approx(3 ** -0.25, abs=1e-9)
        assert entries[1][1] == critical_lambda(systems["path"], 2)

    def test_negative_member_rejected(self, systems):
        with pytest.raises(ValueError):
            wep_by_iteration(systems["path"], -1)

    def test_asymptotic_ratio_matches_exact_ratio_at_large_members(self, systems):
        # the exact Q1/Q2 sequence approaches the member-independent ratio
        # with a 1/r correction; check the trend and the limit
        from sldgf import criterion_asymptotic_ratio
        lam = F(7, 10)
        limit = float(criterion_asymptotic_ratio(systems["path"], lam))
        gaps = []
        for r in (50, 200):
            q1, q2, _ = criterion_q(systems["path"], lam, r)
            gaps.append(abs(float(q1 / q2) - limit))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 4.5 / 200


# -- threshold searches against the references of earlier designs ------------

# the limits as the 64-cell scan found them, at the default tolerance
LIMITS = {"path": 0.6896438679250423, "star": 1.0,
          "cycle": 0.6896438679250423, "pusteblume": 1.0,
          "complete_bipartite_2": 1.0, "joint_squares": 0.701259733439656,
          "grid_2": 0.6632184480840806}
BOUNDARY = ("star", "pusteblume", "complete_bipartite_2")
# a family_specs draw in the shape of generated family 217: float Horner
# cancels the criterion's partials to 0.0 at lam = 2^-10, so the float
# guess must not be taken there; without a guess the search takes 37 pole
# searches where the bisection takes 35
GUESS_AT_A_VANISHING_END = FamilySpec(
    name="generated", base_graph=Graph.from_edges(2, []), boundary=(0, 1),
    replacement=Graph.from_edges(4, [(0, 1), (0, 3)]),
    glue_map={0: 0, 1: 1}, next_boundary_map={0: 3, 1: 1},
    prefix_weps=(LaurentPoly3.const(1),))


@st.composite
def valid_slds(draw):
    """A_0 = 1 and nonnegative A_1..A_n summing to 2^n - 1, n <= 40."""
    n = draw(st.integers(1, 40))
    weights = draw(st.lists(st.integers(0, 1 << 20), min_size=n,
                            max_size=n).filter(any))
    total = (1 << n) - 1
    rest = [total * w // sum(weights) for w in weights]
    rest[draw(st.integers(0, n - 1))] += total - sum(rest)
    return SLD((1, *rest))


def counted(module, name):
    """Patch module.name with a wrapper that counts its calls."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    return mock.patch.object(module, name, wrapper), calls


@st.composite
def crossing_searches(draw):
    """A monotone sign on the grid of spacing 2^-cap, its crossing in the
    cell [t, t + 1], a point known to lie right of it, a hint cell right, a
    few cells off, anywhere, at either end or none, and a stop rule with
    the probe budget that its caller gives: d == cap with cap + 2 (the
    limit's), or the member's _narrow test with cap + 8."""
    cap = draw(st.integers(1, 40))
    t = draw(st.integers(0, (1 << cap) - 1))
    known = draw(st.integers(t + 1, 1 << cap))
    width = 1 << draw(st.integers(0, cap))
    right = t // width * width
    start = draw(st.one_of(
        st.just(right), st.integers(-3, 3).map(lambda j: right + j * width),
        st.integers(0, (1 << cap) - 1).map(lambda k: k // width * width),
        st.sampled_from([0, (1 << cap) - width, known])))
    hint = draw(st.sampled_from([(start, start + width), None]))
    if draw(st.booleans()):
        return cap, t, known, hint, (lambda cell, d: d == cap), cap + 2
    tol = 2.0 ** -draw(st.floats(0, cap + 3))

    def narrow(cell, d):
        return d == cap or analysis._narrow(cell, d, tol)
    return cap, t, known, hint, narrow, cap + 8


class TestThresholdBisection:
    @settings(max_examples=300, deadline=None)
    @given(crossing_searches())
    def test_crossing_search_ends_on_the_halving_cell(self, case):
        # wherever the hint lies, the search ends on the plain halving's
        # cell, in no more probes than the bound, and probes only points
        # strictly inside the bracket that the probes before it leave
        cap, t, known, hint, stop, most = case
        depth = next(d for d in range(cap + 1) if stop(t >> cap - d, d))
        lo, hi, probes = 0, known, []

        def sign(k):
            nonlocal lo, hi
            assert lo < k < hi
            probes.append(k)
            if k <= t:
                lo = k
            else:
                hi = k
            return k <= t
        assert analysis._crossing_search(sign, cap, stop, hint, known,
                                         most) == (t >> cap - depth, depth)
        assert len(probes) <= min(depth + 8, most)
        unit = 1 << cap - depth
        if hint == (t // unit * unit, t // unit * unit + unit):
            assert len(probes) <= 2

    @settings(max_examples=200, deadline=None)
    @given(valid_slds())
    @example(SLD((1, 4, 0, 0, 0, 1, 1476, 0, 0, 0, 0, 566)))
    def test_member_search_matches_the_scan(self, sld):
        # one sign change at most, so halving [0, 1] lands on the scan's
        # bracket; the scan alone costs up to 1024 sign evaluations. At
        # 1e-16 and 1e-300 the halving stops where both ends of the cell
        # round to one float, below the scan's cell. On the example the
        # float Newton's first steps do not shrink, far from its root: a
        # guess that stopped there missed the cell, and took 65 signs
        for tol in (1e-10, 1e-6, 1e-16, 1e-300):
            patch, calls = counted(analysis, "_grid_sign")
            with patch:
                value = analysis._critical_lambda_from_sld(sld, tol)
            assert value == reference.critical_lambda_from_sld(sld, tol)
            assert len(calls) <= 64

    @settings(max_examples=200, deadline=None)
    @given(valid_slds())
    def test_member_search_matches_the_fraction_bisection(self, sld):
        # the integer bracket probes the points the Fraction one did, so it
        # gives the same float at any tolerance; 0.5 and 5.0 stop after no
        # halving, above the scan's cell
        for tol in (1e-300, 1e-16, 1e-12, 1e-10, 1e-3, 0.5, 5.0):
            assert analysis._critical_lambda_from_sld(sld, tol) == \
                reference.critical_lambda_bisection_from_sld(sld, tol)

    def test_member_search_stops_at_the_halving_cap(self, monkeypatch):
        # a crossing below 2^-200 is out of reach of a real SLD; with every
        # probe right of it the cell stays at 0 for all 200 halvings
        sld = SLD((1, 0, 3))
        calls = []

        def always_right(coeffs, k, depth):
            calls.append((k, depth))
            return -1
        monkeypatch.setattr(analysis, "_grid_sign", always_right)
        assert analysis._critical_lambda_from_sld(sld, 1e-300) == \
            math.sqrt(F(1, 1 << 201))
        # the guessed cell, left of 1/sqrt(3), fails its check, and the
        # gallop left from it stops after 8 probes in all, at 1, 3, ..., 127
        # cells from it; then the halving's own probes at 1/2, 1/4, ... take
        # the cell down to 0 at depth 200
        points = [F(k, 1 << d) for k, d in calls[:8]]
        cell = points[0] - points[1]
        assert cell.numerator == 1 and cell.denominator > 1 << 50
        assert points[0] == math.floor(
            analysis._crossing_guess(sld) / cell) * cell
        assert points == [points[0] - j * cell
                          for j in (0, 1, 3, 7, 15, 31, 63, 127)]
        assert calls[8:] == [(1, d) for d in range(1, 201)]

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
    def test_member_search_rejects_bad_tolerance(self, systems, tol):
        # the tolerance is checked before P(1), so a member with no
        # threshold (path's first, a single qubit) still refuses it
        assert critical_lambda(systems["path"], 1) is None
        with pytest.raises(AnalysisError, match="tolerance"):
            critical_lambda_sweep(systems["path"], [1], tol)

    @pytest.mark.parametrize("name", sorted(LIMITS))
    def test_builtin_members_match_the_scan(self, systems, name):
        slds = [sld_from_wep(w) for w in iter_weps(systems[name], 60)][1:]
        patch, calls = counted(analysis, "_grid_sign")
        with patch:
            found = [analysis._critical_lambda_from_sld(s, 1e-10) for s in slds]
        assert found == [reference.critical_lambda_from_sld(s, 1e-10)
                         for s in slds]
        assert len(calls) <= 64 * len(slds)

    @pytest.mark.parametrize("name", sorted(LIMITS))
    def test_builtin_members_take_two_probes(self, systems, name):
        # the float guess lands in the halving's last cell, and its two ends
        # are the only exact signs taken
        for w in list(iter_weps(systems[name], 50))[1:]:
            patch, calls = counted(analysis, "_grid_sign")
            with patch:
                analysis._critical_lambda_from_sld(sld_from_wep(w), 1e-10)
            assert len(calls) <= 2

    @pytest.mark.parametrize("guess", [
        lambda mu: mu + 5e-10, lambda mu: mu - 5e-10, lambda mu: mu + 3e-9,
        lambda mu: mu - 5e-9, lambda mu: 0.0, lambda mu: 1.0],
        ids=["cells_right", "cells_left", "tens_of_cells_right",
             "tens_of_cells_left", "zero", "one"])
    @pytest.mark.parametrize("name", ["path", "star", "grid_2"])
    def test_wrong_guess_still_gives_the_bisection(self, systems, monkeypatch,
                                                   name, guess):
        # cells are 2^-33 to 2^-35 wide at tol 1e-10, so the guesses are a
        # few cells off, a few tens, or at either end; a miss gallops from
        # the guessed cell, or halves where the gallop would run far
        real = analysis._crossing_guess
        monkeypatch.setattr(analysis, "_crossing_guess",
                            lambda sld: guess(real(sld)))
        for w in list(iter_weps(systems[name], 30))[1:]:
            sld = sld_from_wep(w)
            patch, calls = counted(analysis, "_grid_sign")
            with patch:
                value = analysis._critical_lambda_from_sld(sld, 1e-10)
            assert value == reference.critical_lambda_bisection_from_sld(
                sld, 1e-10)
            assert len(calls) <= 64

    def test_sectors_beyond_the_float_range(self):
        # 1100 qubits with A_k about C(n, k) 3^k / 2^n, the largest near
        # 2^1056, out of a float's range before the shift. Without A_0 the
        # crossing would be mu = 1/3, where A_0 = 1 weighs as much as all
        # the rest, so the guess must keep it to land near 0.337
        sld = reference.binomial_sld(1100)
        assert max(sld).bit_length() > 1024
        for tol, most in ((1e-10, 2), (1e-16, 64)):
            patch, calls = counted(analysis, "_grid_sign")
            with patch:
                value = analysis._critical_lambda_from_sld(sld, tol)
            assert value == reference.critical_lambda_bisection_from_sld(
                sld, tol)
            assert abs(value ** 2 - 0.337) < 0.001
            assert len(calls) <= most

    def test_sums_beyond_the_float_range(self):
        # at 3000 qubits every shifted term A_k mu^k underflows near the
        # crossing, so the guess weighs them by logs; taken as far left of
        # the crossing, it landed near 1/2 and the search took 41 probes
        sld = reference.binomial_sld(3000)
        patch, calls = counted(analysis, "_grid_sign")
        with patch:
            value = analysis._critical_lambda_from_sld(sld, 1e-10)
        assert abs(value ** 2 - 0.335) < 0.001
        assert len(calls) <= 2

    @pytest.mark.parametrize("name", sorted(LIMITS))
    def test_limit_pinned_with_few_pole_searches(self, systems, name):
        patch, calls = counted(analysis, "dominant_singularity")
        with patch:
            value = critical_lambda_asymptotic(systems[name])
        assert value == LIMITS[name]
        # the edge point alone decides a boundary limit; an interior one
        # needs it plus the two ends of the cell the float guess lands in,
        # where halving down to 1e-10 takes 34
        if name in BOUNDARY:
            assert len(calls) == 1
        else:
            assert len(calls) <= 3

    @pytest.mark.parametrize("name", sorted(set(LIMITS) - set(BOUNDARY)))
    def test_limit_below_the_guess_takes_few_pole_searches(self, systems,
                                                           name):
        # at 1e-16 a cell of 2^-54 is narrower than the float guess is
        # accurate, so the exact search goes on from the guessed cell's
        # bracket; the guess is the float criterion's own cell of 2^-52,
        # which leaves a few exact probes, where the bisection takes 55
        patch, calls = counted(analysis, "dominant_singularity")
        with patch:
            critical_lambda_asymptotic(systems[name], 1e-16)
        assert len(calls) <= 5

    @pytest.mark.parametrize("tol", [0.1, 1e-10])
    @pytest.mark.parametrize("name", ["path", "grid_2"])
    def test_limit_probes_lie_on_the_dyadic_grid(self, systems, name, tol):
        # the search ends on a cell of the grid the bisection stops on, of
        # spacing 2^-depth, and probes only points of that grid, after the
        # edge; at the default tol the float guess lands in the last cell,
        # and its two ends are the only grid points probed
        depth = next(d for d in range(200) if 2.0 ** -d < tol)
        edge = F(1) - F(1, 1 << 20)
        patch, calls = counted(analysis, "criterion_asymptotic_ratio")
        with patch:
            value = critical_lambda_asymptotic(systems[name], tol)
        probes = [lam for _, lam in calls]
        assert probes[0] == edge
        assert all((lam * (1 << depth)).denominator == 1
                   for lam in probes[1:])
        assert len(set(probes)) == len(probes)
        if tol == 1e-10:
            # the midpoint of a cell 2^-34 wide is exact as a float
            lo = F(math.floor(value * (1 << depth)), 1 << depth)
            assert probes[1:] == [lo, lo + F(1, 1 << depth)]

    @pytest.mark.parametrize("guess", [
        lambda lam: lam + 2e-10, lambda lam: lam - 2e-10,
        lambda lam: lam + 1e-6, lambda lam: 2.0 ** -10,
        lambda lam: 1 - 2.0 ** -20, lambda lam: None],
        ids=["cells_right", "cells_left", "far_right", "low_end", "edge",
             "none"])
    @pytest.mark.parametrize("name", ["path", "grid_2"])
    def test_wrong_limit_guess_still_gives_the_bisection(
            self, systems, monkeypatch, name, guess):
        # cells are 2^-34 wide at the default tol, so the guesses are a few
        # cells off, thousands, or at either end of the float search; a
        # cell reaching past the edge is no guess, and none is probed. The
        # grid probes stay within depth + 2 = 36, two beyond the
        # bisection's, with the edge
        real = analysis._limit_guess
        monkeypatch.setattr(analysis, "_limit_guess",
                            lambda sys_: guess(real(sys_)))
        patch, calls = counted(analysis, "criterion_asymptotic_ratio")
        with patch:
            assert critical_lambda_asymptotic(systems[name]) == LIMITS[name]
        assert len(calls) <= 1 + 36
        assert all(lam <= F(1) - F(1, 1 << 20) for _, lam in calls)

    @pytest.mark.parametrize("h", [
        lambda lam: math.nan, lambda lam: math.inf, lambda lam: 1.0,
        lambda lam: {2.0 ** -10: 1.0, 1 - 2.0 ** -20: -0.5}.get(lam, math.nan),
        lambda lam: {2.0 ** -10: 1.0, 0.5: math.inf}.get(lam, -0.5),
        lambda lam: 10.0 ** 400, lambda lam: analysis._positive_root([], 53),
        lambda lam: analysis._positive_root([1, 0, 1], 53)],
        ids=["nan", "inf", "no_sign_change", "nan_inside", "inf_inside",
             "overflow", "zero_polynomial", "no_positive_root"])
    def test_float_failure_leaves_no_guess(self, systems, monkeypatch, h):
        # a float criterion that fails, or shows no crossing, leaves the
        # search without a guess, never with an error. Inside, the first
        # probe is 1/2: a NaN there is refused, and +inf next to the finite
        # second probe makes the secant step NaN. The root of q at (1, lam^2)
        # fails as an AnalysisError where q is 0 or has no positive root
        monkeypatch.setattr(analysis, "_float_criterion", lambda sys_: h)
        assert analysis._limit_guess(systems["path"]) is None
        assert critical_lambda_asymptotic(systems["path"]) == LIMITS["path"]

    @pytest.mark.parametrize("tol", [0.1, 1e-2, 1e-3, 1e-6, 1e-10, 1e-14,
                                     1e-16])
    @pytest.mark.parametrize("name", sorted(LIMITS))
    def test_limit_matches_the_bisection(self, systems, name, tol):
        # the same cell, so the same float, in no more pole searches
        found = []
        for search in (critical_lambda_asymptotic,
                       reference.critical_lambda_asymptotic_bisection):
            patch, calls = counted(analysis, "dominant_singularity")
            with patch:
                found.append((search(systems[name], tol), len(calls)))
        (value, calls), (expected, reference_calls) = found
        assert value == expected
        assert calls <= reference_calls

    def test_isolated_vertices_have_no_limit(self):
        # the ratio reaches 1 only at the edge, as on the boundary families,
        # but every member is a product state: sum_k (n - 2k) A_k is 0 on
        # each, so no member and no limit has a threshold
        spec = parse_family_spec(json.dumps(isolated_vertex_document()))
        sys_ = build_transfer_system(spec)
        assert [lam for _, lam in critical_lambda_sweep(sys_, range(1, 13))] \
            == [None] * 12
        with pytest.raises(NoThresholdError, match="no member has a thresh"):
            critical_lambda_asymptotic(sys_)

    @pytest.mark.parametrize("name", [*sorted(LIMITS), "caterpillar",
                                      "ladder_3", "isolated_vertex"])
    def test_vanishing_criterion_matches_the_closed_form(self, systems, name):
        # the members' integers up to deg_z p + deg_z q decide what the
        # cross-multiplied closed form decides
        sys_ = systems[name] if name in LIMITS else named_system(name)
        assert analysis._criterion_vanishes_at_one(sys_) \
            == reference.criterion_vanishes_at_one(sys_) \
            == (name == "isolated_vertex")

    @settings(max_examples=30, deadline=None)
    @given(family_specs())
    def test_generated_vanishing_criterion_matches_the_closed_form(self,
                                                                   spec):
        sys_ = build_transfer_system(spec)
        assert analysis._criterion_vanishes_at_one(sys_) \
            == reference.criterion_vanishes_at_one(sys_)

    @settings(max_examples=10, deadline=None)
    @given(family_specs().filter(lambda spec: spec.qubit_step > 0))
    @example(GUESS_AT_A_VANISHING_END)
    def test_generated_limit_matches_the_bisection(self, spec):
        # the same float or the same failure, in no more pole searches,
        # wherever the float guess lands
        sys_ = build_transfer_system(spec)
        found = []
        for search in (critical_lambda_asymptotic,
                       reference.critical_lambda_asymptotic_bisection):
            patch, calls = counted(analysis, "dominant_singularity")
            with patch:
                try:
                    outcome = search(sys_)
                except AnalysisError as exc:
                    outcome = type(exc)
            found.append((outcome, len(calls)))
        (outcome, calls), (expected, reference_calls) = found
        assert outcome == expected
        assert calls <= reference_calls

    def test_still_family_has_no_limit(self):
        # both partials of the ratio vanish when the qubit step is 0, so the
        # step is checked before any ratio is evaluated
        sys_ = build_transfer_system(
            parse_family_spec(json.dumps(still_document())))
        with pytest.raises(AnalysisError, match="^family still does not "
                           "grow: its qubit_count.step is 0$"):
            critical_lambda_asymptotic(sys_)

    @pytest.mark.parametrize("name", ["path", "grid_2"])
    def test_coarse_tolerance_stays_within_tolerance(self, systems, name):
        # above the scan's cell width of 1/64 the bisection stops at a
        # coarser bracket, whose midpoint is still within tol
        patch, calls = counted(analysis, "dominant_singularity")
        with patch:
            value = critical_lambda_asymptotic(systems[name], tol=0.1)
        assert abs(value - LIMITS[name]) < 0.1
        assert len(calls) <= 5

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["path", "star"])
    def test_limit_rejects_bad_tolerance(self, systems, name, tol):
        with pytest.raises(AnalysisError, match="tolerance"):
            critical_lambda_asymptotic(systems[name], tol=tol)

    def test_degenerate_ratio_propagates(self, systems, monkeypatch):
        # a degenerate pole on the way is reported, not stepped over: here
        # at the first probe after the edge
        real = analysis.criterion_asymptotic_ratio
        probes = []

        def degenerate_at_second(sys_, lam):
            probes.append(lam)
            if len(probes) == 2:
                raise DegenerateSingularityError(None, "degenerate at probe 2")
            return real(sys_, lam)

        monkeypatch.setattr(analysis, "criterion_asymptotic_ratio",
                            degenerate_at_second)
        with pytest.raises(DegenerateSingularityError, match="at probe 2"):
            critical_lambda_asymptotic(systems["path"])
        assert probes[0] == F(1) - F(1, 1 << 20) and len(probes) == 2

    def test_no_degenerate_singularity_is_caught(self):
        # analysis failures propagate to the caller instead of being skipped,
        # and no command turns a missing threshold into an empty value
        src = Path(analysis.__file__).parent
        caught = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ExceptHandler) and node.type:
                    names = {n.id if isinstance(n, ast.Name) else n.attr
                             for n in ast.walk(node.type)
                             if isinstance(n, (ast.Name, ast.Attribute))}
                    if names & {"DegenerateSingularityError",
                                 "NoThresholdError"}:
                        caught.append(f"{path.name}:{node.lineno}")
        assert caught == []
