"""Acceptance suite: every criterion at its stated tolerance.

Each test prints exactly one `ACCEPTANCE <k>: PASS|FAIL` line (visible with
pytest -s, and in the failure output otherwise) and then asserts the
criterion. Tolerances are pinned here, not calibrated.

Criteria 4 and 5 test asymptotics, so each of their bounds follows the law
the quantity converges by, not a fixed member size:

* Criterion 4 (fidelity at lambda = 0.8). Star member r is the r-qubit
  GHZ-class state, so F_r = (0.9^r + 0.8^r + 0.1^r)/2 exactly. The relative
  error of the leading term 0.9^r/2 is therefore exactly
  (8/9)^r + (1/9)^r, and the test asserts that closed form to 1e-30. Path
  has a wide modulus gap and meets the fixed 1e-6 pin at r = 60.
* Criterion 5 (critical noise thresholds). The criterion generating
  functions have a double dominant pole, so an interior threshold obeys
  lc(r) = lc_inf + a/r + O(1/r^2). Its Richardson extrapolant
  2 lc(100) - lc(50) cancels the 1/r term and must lie within 1e-3 of the
  limit. Star's limit is the boundary value 1, approached by the
  Lambert-W law 1 - lc(r) ~ W(r)/r. The test checks star's thresholds
  against their closed-form root to 1e-9, then checks that root at
  r = 10^4 against the limit to 1e-3.
"""

import time
from fractions import Fraction as F

import mpmath as mp

from sldgf import (BUILTIN_FAMILIES, Graph, LaurentPoly3,
                   critical_lambda, critical_lambda_asymptotic,
                   critical_lambda_sweep,
                   concentratable_entanglement, dominant_singularity,
                   family_gf, fidelity_asymptotic, fidelity_sweep, iter_weps,
                   poly_from_terms, ratfunc_equal, realize,
                   series_coefficients, sld_bruteforce_colouring,
                   sld_bruteforce_stabilizer, sld_from_wep, to_rational,
                   uni_reduce, uni_specialize, wep_by_iteration)

from golden_forms import GOLDEN_GF
from pairwise_build import pairwise_matrices


def report(criterion: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_1_golden_generating_functions(systems):
    start = time.time()
    failures = [name for name in BUILTIN_FAMILIES
                if not ratfunc_equal(family_gf(systems[name]), GOLDEN_GF[name])]
    detail = (f"7 closed forms by cross-multiplication, "
              f"{time.time() - start:.1f}s"
              + (f"; mismatches: {failures}" if failures else ""))
    line = report("1 golden generating functions", not failures, detail)
    assert not failures, line


def test_criterion_2_oracle_agreement(systems):
    start = time.time()
    mismatches = []
    checked = 0
    for name in BUILTIN_FAMILIES:
        sys_ = systems[name]
        spec = sys_.spec
        r_max = 0
        r = 1
        while spec.qubit_count(r) <= 20:
            r_max = r
            r += 1
        series = series_coefficients(family_gf(sys_), r_max)
        for r, wep in enumerate(iter_weps(sys_, r_max)):
            graph = realize(spec, r)
            colouring = sld_bruteforce_colouring(graph)
            stabilizer = sld_bruteforce_stabilizer(graph)
            agree = (series[r] == wep
                     and colouring == stabilizer
                     and sld_from_wep(wep) == colouring)
            checked += 1
            if not agree:
                mismatches.append((name, r))
    pinned = {
        "bell pair sectors": sld_bruteforce_colouring(
            Graph.from_edges(2, [(0, 1)])).sectors == (1, 0, 3),
        "path member 3": wep_by_iteration(systems["path"], 3) ==
            poly_from_terms([(3, 0, 0, 1), (1, 2, 0, 3), (0, 3, 0, 4)]),
        "cycle member 4": wep_by_iteration(systems["cycle"], 4) ==
            poly_from_terms([(4, 0, 0, 1), (2, 2, 0, 2), (1, 3, 0, 8),
                             (0, 4, 0, 5)]),
        "pusteblume member 1": wep_by_iteration(systems["pusteblume"], 1) ==
            poly_from_terms([(4, 0, 0, 1), (2, 2, 0, 6), (0, 4, 0, 9)]),
    }
    bad_pins = [k for k, ok in pinned.items() if not ok]
    ok = not mismatches and not bad_pins
    detail = (f"{checked} members up to 20 qubits, series = iteration = "
              f"colouring = stabilizer, {time.time() - start:.1f}s")
    if mismatches:
        detail += f"; member mismatches: {mismatches}"
    if bad_pins:
        detail += f"; pinned-value mismatches: {bad_pins}"
    line = report("2 oracle agreement", ok, detail)
    assert ok, line


def test_criterion_3_concentratable_entanglement(systems):
    start = time.time()
    problems = []
    for r in range(1, 31):
        if concentratable_entanglement(systems["star"], r)[0] != \
                F(1, 2) + F(1, 2 ** r):
            problems.append(("star", r))
    lucas = [2, 1]
    while len(lucas) <= 30:
        lucas.append(lucas[-1] + lucas[-2])
    for r in range(1, 31):
        if concentratable_entanglement(systems["cycle"], r)[0] != \
                F(lucas[r] + 1, 2 ** r):
            problems.append(("cycle", r))
    with mp.workdps(40):
        s5 = mp.sqrt(5)
        for r in range(0, 31):
            cbar = concentratable_entanglement(systems["path"], r)[0]
            radical = ((5 + s5) / (5 * (-1 + s5) ** (r + 1))
                       + (5 - s5) / (5 * (-1 - s5) ** (r + 1)))
            if abs(radical - mp.mpf(cbar.numerator) / cbar.denominator) >= 1e-10:
                problems.append(("path", r))
    detail = (f"star and cycle exact for r in 1..30, path radical to 1e-10 "
              f"for r in 0..30, {time.time() - start:.1f}s")
    if problems:
        detail += f"; failures: {problems}"
    line = report("3 concentratable entanglement", not problems, detail)
    assert not problems, line


def test_criterion_4_fidelity_asymptotics(systems):
    start = time.time()
    lam = to_rational("0.8")
    worst_ratio = {}
    rel_err = {}
    with mp.workdps(40):
        for name in ("path", "star"):
            exact = fidelity_sweep(systems[name], lam, 61)
            deltas = {}
            rel_err[name] = {}
            for r in range(15, 62):
                approx = fidelity_asymptotic(systems[name], lam, r)
                value = mp.mpf(exact[r].numerator) / exact[r].denominator
                deltas[r] = abs(value - approx)
                rel_err[name][r] = value / approx - 1
            worst_ratio[name] = max(float(deltas[r + 1] / deltas[r])
                                    for r in range(15, 61))
        path60 = float(abs(rel_err["path"][60]))
        star_dev = float(max(
            abs(rel_err["star"][r] - (mp.mpf(8) / 9) ** r - (mp.mpf(1) / 9) ** r)
            for r in range(15, 62)))
    decay_ok = {name: worst_ratio[name] < 0.95 for name in worst_ratio}
    path_ok = path60 <= 1e-6
    star_ok = star_dev <= 1e-30
    ok = all(decay_ok.values()) and path_ok and star_ok
    bounds = {
        "path": (f"|F60/F60_approx - 1| = {path60:.2e} "
                 f"{'<=' if path_ok else '>'} 1e-6"),
        "star": (f"max over r in 15..61 of |(F/F_approx - 1) - "
                 f"((8/9)^r + (1/9)^r)| = {star_dev:.2e} "
                 f"{'<=' if star_ok else '>'} 1e-30"),
    }
    detail = "; ".join(f"{name}: delta ratio max {worst_ratio[name]:.3f} "
                       f"{'<' if decay_ok[name] else '>='} 0.95, "
                       f"{bounds[name]}" for name in worst_ratio)
    detail += f"; {time.time() - start:.1f}s"
    line = report("4 fidelity asymptotics at lambda = 0.8", ok, detail)
    assert ok, line


def star_threshold(r: int) -> mp.mpf:
    """Critical noise strength of star member r, from its closed form alone.

    Star member r is the r-qubit GHZ-class state, whose criterion polynomial
    vanishes where (1+mu)^(r-1) (1-mu) + (1-mu)^(r-1) (1+mu) = 2^r mu^r.
    With t = (1-mu)/(1+mu) this reads t + t^(r-1) = (1-t)^r: the left side
    increases in t and the right side decreases, so the root in (0, 1) is
    unique and bisection over all of (0, 1) finds it. Near mu = 1 the same
    equation gives t ~ W(r)/r, which is the Lambert-W law of the thresholds.
    """
    with mp.workdps(40):
        def excess(mu):
            return ((1 + mu) ** (r - 1) * (1 - mu) + (1 - mu) ** (r - 1) * (1 + mu)
                    - 2 ** r * mu ** r)

        lo, hi = mp.mpf(0), mp.mpf(1)
        for _ in range(100):
            mid = (lo + hi) / 2
            if excess(mid) > 0:
                lo = mid
            else:
                hi = mid
        return mp.sqrt((lo + hi) / 2)


def test_criterion_5_critical_noise_thresholds(systems):
    start = time.time()
    bell = critical_lambda(systems["path"], 2)
    bell_ok = abs(bell - 3 ** -0.25) < 1e-9
    parts = [f"bell {bell:.12f} vs 3^-1/4 "
             f"{'PASS' if bell_ok else 'FAIL'}"]
    ok = bell_ok
    for name in ("path", "star", "joint_squares"):
        sys_ = systems[name]
        approx = critical_lambda_asymptotic(sys_)
        lc = dict(critical_lambda_sweep(sys_, [10, 50, 100]))
        gap10 = abs(lc[10] - approx)
        gap100 = abs(lc[100] - approx)
        shrinking = gap100 < gap10
        shrink_text = (f"gap(100) = {gap100:.2e} "
                       f"{'<' if shrinking else '>='} gap(10) = {gap10:.2e}")
        if name == "star":
            agreement = max(abs(float(star_threshold(r)) - lc[r]) for r in lc)
            closed_ok = agreement < 1e-9
            far_gap = abs(float(star_threshold(10 ** 4)) - approx)
            near = far_gap < 1e-3
            ok = ok and closed_ok and near and shrinking
            lambert = float(mp.lambertw(10 ** 4).real) / 10 ** 4
            parts.append(
                f"star: |closed-form root - lc(r)| max over r in 10, 50, 100 "
                f"= {agreement:.2e} {'<' if closed_ok else '>='} 1e-9, "
                f"|root(10^4) - approx| = {far_gap:.2e} "
                f"{'<' if near else '>='} 1e-3 "
                f"(W(10^4)/10^4 = {lambert:.2e}), " + shrink_text)
        else:
            richardson = abs(2 * lc[100] - lc[50] - approx)
            near = richardson < 1e-3
            ok = ok and near and shrinking
            parts.append(f"{name}: |2 lc(100) - lc(50) - approx| = "
                         f"{richardson:.2e} {'<' if near else '>='} 1e-3, "
                         + shrink_text)
    detail = "; ".join(parts) + f"; {time.time() - start:.1f}s"
    line = report("5 critical noise thresholds", ok, detail)
    assert ok, line


def test_criterion_6_structural_invariants(systems):
    start = time.time()
    problems = []
    for name in BUILTIN_FAMILIES:
        sys_ = systems[name]
        for r, wep in enumerate(iter_weps(sys_, 12)):
            n = sys_.spec.qubit_count(r) if r >= 1 else 0
            sld = sld_from_wep(wep)
            # sld_from_wep refuses a non-homogeneous enumerator
            if sld.n != n or sld[0] != 1 or sum(sld.sectors) != 2 ** n:
                problems.append(("sector sums", name, r))
    for name in BUILTIN_FAMILIES:
        gf = family_gf(systems[name])
        for lam_text in ("0.3", "0.5", "0.8", "1.0"):
            lam = to_rational(lam_text)
            reduced_q = uni_reduce(*uni_specialize(gf, F(1, 2), lam / 2))[1]
            if not dominant_singularity(reduced_q).real_positive:
                problems.append(("pringsheim", name, lam_text))
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    star3 = Graph.from_edges(3, [(0, 1), (0, 2)])
    if sld_bruteforce_colouring(triangle) != sld_bruteforce_colouring(star3):
        problems.append(("triangle vs star sectors",))
    x, y = LaurentPoly3.var("x"), LaurentPoly3.var("y")
    zero = LaurentPoly3.zero()
    inv_xyy = LaurentPoly3.monomial(-1, 2, 0)
    # the paper's 4-state displays, built by the reference, and the
    # package's 3-state matrices, their black rows and columns merged
    path_display = [[x, x, zero, zero], [zero, zero, y, y],
                    [inv_xyy, x, zero, zero], [zero, zero, y, y]]
    star_display = [[x, x, zero, zero], [inv_xyy, x, zero, zero],
                    [zero, zero, y, y], [zero, zero, y, y]]
    path_merged = [[x, x, zero], [zero, zero, y], [inv_xyy, x, y]]
    star_merged = [[x, x, zero], [inv_xyy, x, zero], [zero, zero, y + y]]
    for name, display, merged in (("path", path_display, path_merged),
                                  ("star", star_display, star_merged)):
        if pairwise_matrices(systems[name].spec)[0].data != display:
            problems.append((f"{name} step matrix",))
        if systems[name].t.data != merged:
            problems.append((f"{name} merged step matrix",))
    detail = (f"sector sums, homogeneity, degree law (r <= 12), real-positive "
              f"dominant roots at four noise levels, triangle/star equality, "
              f"displayed step matrices, {time.time() - start:.1f}s")
    if problems:
        detail += f"; failures: {problems}"
    line = report("6 structural invariants", not problems, detail)
    assert not problems, line
