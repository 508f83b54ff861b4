"""Sweep the asymptotics over generated growing families, on both pole
kernels.

Run as ``PYTHONPATH=src python tests/family_sweep.py [--count N] [--seed S]``.
It is not a pytest module (300 families, their generating functions, two
kernels and the bisection take about 15 s on a 2-core Xeon), so Tier-1
does not collect it. It draws
families in the shape of test_transfer.family_specs with seeded
``random``: a boundary of 0 to 2 vertices, a base graph of up to 6
vertices and a replacement of up to 5 that adds at least one qubit. For
each family it runs
critical_lambda_asymptotic and fidelity_leading_term at lam = 4/5, once on
the package's exact pole kernel and once on the float kernel of
tests/pole_reference.py. Where both give a value, so that both isolate a
simple pole at every probe, they must agree: the same limit, and a pole
and residue within 2^-100 in relative terms; it exits 1 on any that
differ. Where only one gives a value, the outcomes are printed, not gated:
the float kernel misjudges close poles, which the exact kernel separates.
It also runs the limit's bisection (tests/threshold_reference.py) on the
package's kernel, exits 1 if its value or failure type differs from the
package's search, or if the package's search takes more pole searches
than the bisection on any family, and prints the pole searches that each
of the two took in all. Before any of that it checks each family's
generating function: the series of family_gf must equal the members of
the unlumped iteration (tests/unlumped.py) up to the Cayley-Hamilton
bound of the unlumped T, which proves the pair without relying on the
lumping or on the package's own proof; it prints the count that differ
and exits 1 if any does.

It prints the counts of results, NoThresholdError and
DegenerateSingularityError on each kernel, and each degenerate case of the
package: the noise strength probed, the report's multiplicity and
uniqueness, and whether the exact uni_gcd(q, q') is constant. Where it is,
every root of q is simple, so a degenerate case there could only be
another root on the pole's circle, or a criterion ratio whose denominator
cannot be told from 0, which no generated family has shown; the sweep
exits 1 on any such case.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pole_reference as reference
import threshold_reference

from sldgf import (AnalysisError, DegenerateSingularityError, FamilySpec,
                   Graph, LaurentPoly3, NoThresholdError,
                   build_transfer_system, family_gf, series_coefficients,
                   uni_gcd)
from sldgf import analysis
from unlumped import unlumped_weps

FIDELITY_LAMBDA = Fraction(4, 5)


def random_spec(rng: random.Random) -> FamilySpec:
    """A valid growing family as test_transfer.family_specs draws one, with
    a replacement larger than the boundary."""
    k = rng.randint(0, 2)
    n = rng.randint(k, 6)
    m = rng.randint(k + 1, 5)

    def edges(size):
        return {pair for pair in itertools.combinations(range(size), 2)
                if rng.random() < 0.5}
    base, rep = edges(n), edges(m)
    boundary = rng.sample(range(n), k)
    glue = rng.sample(range(m), k)
    nxt = rng.sample(range(m), k)
    if k == 2:
        rep.discard(tuple(sorted(nxt)))
        if tuple(sorted(boundary)) in base:
            rep.add(tuple(sorted(nxt)))
    spec = FamilySpec(
        name="generated", base_graph=Graph.from_edges(n, sorted(base)),
        boundary=tuple(boundary), replacement=Graph.from_edges(m, sorted(rep)),
        glue_map=dict(zip(boundary, glue)),
        next_boundary_map=dict(zip(boundary, nxt)),
        prefix_weps=(LaurentPoly3.const(1),))
    spec.validate()
    return spec


def gf_differs(sys_) -> bool:
    """Whether the series of family_gf differs from the unlumped members on
    z^0 .. z^M, M = max(deg_z p + dim T, deg_z q + start + dim T - 1): the
    members obey the Cayley-Hamilton recurrence of the unlumped T, so
    agreement up to M proves the pair."""
    gf, n = family_gf(sys_), sys_.dimension
    bound = max(gf.num.max_degree_z() + n,
                gf.den.max_degree_z() + sys_.spec.recursion_start + n - 1)
    return series_coefficients(gf, bound) != list(unlumped_weps(sys_, bound))


def threshold(sys_, ratio, search) -> tuple[tuple, int]:
    """search, the package's critical_lambda_asymptotic or the reference
    bisection, with the criterion ratio ``ratio``: ("value", limit) or
    (error type, message, last lam probed), and the number of pole
    searches, one per ratio evaluated."""
    probes = []

    def recorded(sys_, lam):
        probes.append(lam)
        return ratio(sys_, lam)
    # the bisection calls the ratio by the name it imported
    modules = (analysis, threshold_reference)
    real = [module.criterion_asymptotic_ratio for module in modules]
    for module in modules:
        module.criterion_asymptotic_ratio = recorded
    try:
        outcome = "value", search(sys_)
    except AnalysisError as exc:
        outcome = type(exc), str(exc), probes[-1] if probes else None
    finally:
        for module, ratio_ in zip(modules, real):
            module.criterion_asymptotic_ratio = ratio_
    return outcome, len(probes)


def leading(sys_, leading_term) -> tuple:
    """fidelity_leading_term's pole and residue, or its failure."""
    try:
        lead = leading_term(sys_, FIDELITY_LAMBDA)
    except AnalysisError as exc:
        return type(exc), str(exc), FIDELITY_LAMBDA
    return "value", lead.report.z_star, lead.residue


def agree(package: tuple, ref: tuple) -> bool:
    """Whether two value outcomes agree: the same limit, or a pole and a
    residue within 2^-100 in relative terms."""
    with mp.workdps(analysis.WORKING_DPS):
        return all(a == b if isinstance(b, float)
                   else abs(a - b) <= abs(b) * mp.mpf(2) ** -100
                   for a, b in zip(package[1:], ref[1:]))


def degenerate_line(index: int, sys_, what: str, outcome: tuple) -> str:
    """One degenerate case: where, why, the report of the reduced
    denominator q there and the exact gcd test on q."""
    _, message, lam = outcome
    point = ((Fraction(1), lam * lam) if what == "threshold"
             else (Fraction(1, 2), lam / 2))
    _, q = analysis._reduced_specialisation(sys_, *point)
    report = analysis.dominant_singularity(q)
    simple = uni_gcd(q, q.derivative()).degree() == 0
    return simple, (f"  family {index} {what} at lam = {lam} "
                    f"({float(lam):.9f}): {message}; multiplicity "
                    f"{report.multiplicity}, unique {report.unique}, "
                    f"gcd(q, q') {'constant' if simple else 'not constant'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=300)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    counts = {(kernel, what): Counter() for kernel in ("package", "reference")
              for what in ("threshold", "fidelity")}
    degenerate, differ, one_sided, differ_bisection, differ_gf, slower = \
        [], [], [], [], [], []
    searches = Counter()
    for index in range(args.count):
        sys_ = build_transfer_system(random_spec(rng))
        if gf_differs(sys_):
            differ_gf.append(f"  family {index}")
        found, taken = {}, {}
        for name, ratio, search in (
                ("package", analysis.criterion_asymptotic_ratio,
                 analysis.critical_lambda_asymptotic),
                ("reference kernel", reference.criterion_asymptotic_ratio,
                 analysis.critical_lambda_asymptotic),
                ("bisection", analysis.criterion_asymptotic_ratio,
                 threshold_reference.critical_lambda_asymptotic_bisection)):
            found[name], taken[name] = threshold(sys_, ratio, search)
            searches[name] += taken[name]
        if taken["package"] > taken["bisection"]:
            slower.append(f"  family {index}: {taken['package']} pole "
                          f"searches, the bisection's {taken['bisection']}")
        # the two searches probe different points, so a failure is compared
        # by its type alone
        package, bisection = (found[name][:2] if found[name][0] == "value"
                              else found[name][:1]
                              for name in ("package", "bisection"))
        if package != bisection:
            differ_bisection.append(f"  family {index}: {package} against "
                                    f"the bisection's {bisection}")
        outcomes = {
            "threshold": (found["package"], found["reference kernel"]),
            "fidelity": (leading(sys_, analysis.fidelity_leading_term),
                         leading(sys_, reference.fidelity_leading_term))}
        for what, (package, ref) in outcomes.items():
            line = (f"  family {index} {what}: {package[:2]} against the "
                    f"reference's {ref[:2]}")
            if package[0] == ref[0] == "value":
                if not agree(package, ref):
                    differ.append(line)
            elif package[:2] != ref[:2]:
                one_sided.append(line)
            for kernel, kind in (("package", package[0]),
                                 ("reference", ref[0])):
                counts[kernel, what]["result" if kind == "value"
                                     else kind.__name__] += 1
            if package[0] is DegenerateSingularityError:
                degenerate.append(degenerate_line(index, sys_, what, package))
    print(f"{args.count} generated growing families, seed {args.seed}")
    print(f"generating functions that differ from the unlumped members: "
          f"{len(differ_gf)}")
    if differ_gf:
        print("\n".join(differ_gf))
    for (kernel, what), counter in counts.items():
        names = ("result", NoThresholdError.__name__,
                 DegenerateSingularityError.__name__)
        line = ", ".join(f"{counter[name]} {name}" for name in names)
        others = sorted(set(counter) - set(names))
        line += "".join(f", {counter[name]} {name}" for name in others)
        print(f"{what} ({kernel} kernel): {line}")
    simple = [line for is_simple, line in degenerate if is_simple]
    print(f"degenerate cases ({len(degenerate)}, {len(simple)} with a "
          f"constant gcd(q, q')):")
    print("\n".join(line for _, line in degenerate) if degenerate
          else "  none")
    print(f"values that differ from the reference kernel's: {len(differ)}")
    if differ:
        print("\n".join(differ))
    print(f"outcomes where one kernel fails and the other does not, or "
          f"fails otherwise (not gated): {len(one_sided)}")
    if one_sided:
        print("\n".join(one_sided))
    print(f"pole searches for the threshold: {searches['package']} by the "
          f"package's search, {searches['bisection']} by the bisection")
    print(f"families whose search takes more pole searches than the "
          f"bisection: {len(slower)}")
    if slower:
        print("\n".join(slower))
    print(f"thresholds that differ from the bisection: "
          f"{len(differ_bisection)}")
    if differ_bisection:
        print("\n".join(differ_bisection))
    return 1 if (differ or differ_bisection or differ_gf or simple
                 or slower) else 0


if __name__ == "__main__":
    sys.exit(main())
