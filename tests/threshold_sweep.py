"""Check the member thresholds against the bisection they replace.

Run as ``PYTHONPATH=src python tests/threshold_sweep.py``. It is not a
pytest module (it bisects some 5000 members with Fraction brackets, which
takes a minute), so Tier-1 does not collect it. For members 1..200 of the
seven built-ins and members 1..50 of the 4-wide ladder, at tol 1e-10, 1e-12
and 1e-16, it compares critical_lambda_sweep with
threshold_reference.critical_lambda_bisection_from_sld. It prints the exact
sign probes (_grid_sign calls) per member and the misses: members whose
float guess (_crossing_guess) does not lie in the bisection's last cell, so
that the search galloped from the guessed cell. It exits 1 on the first
threshold that differs.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from unittest import mock

import threshold_reference as reference
from wide_ladder import ladder

from sldgf import (BUILTIN_FAMILIES, build_transfer_system, builtin,
                   critical_lambda_sweep, iter_weps, parse_family_spec,
                   sld_from_wep)
from sldgf import analysis

TOLERANCES = (1e-10, 1e-12, 1e-16)
BUILTIN_MEMBERS = 200
LADDER_MEMBERS = 50


def guessed_threshold(mu: float, tol: float) -> float:
    """The bisection's float, with the crossing taken to be mu: the result
    when the guess lies in the bisection's last cell."""
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(200):
        if math.sqrt(hi) - math.sqrt(lo) < tol:
            break
        mid = (lo + hi) / 2
        if mid <= mu:
            lo = mid
        else:
            hi = mid
    return math.sqrt((lo + hi) / 2)


def families():
    """(name, system, last member) of every family swept."""
    for name in BUILTIN_FAMILIES:
        yield name, build_transfer_system(builtin(name)), BUILTIN_MEMBERS
    spec = parse_family_spec(json.dumps(ladder(4)))
    yield spec.name, build_transfer_system(spec), LADDER_MEMBERS


def main() -> int:
    swept = [(name, sys_, [sld_from_wep(w) for w in iter_weps(sys_, r_max)])
             for name, sys_, r_max in families()]
    calls = []
    real = analysis._grid_sign

    def counted(*args):
        calls.append(args)
        return real(*args)
    for tol in TOLERANCES:
        members = misses = probes = most = 0
        for name, sys_, slds in swept:
            found = []
            for sld in slds[1:]:
                calls.clear()
                with mock.patch.object(analysis, "_grid_sign", counted):
                    found.append(analysis._critical_lambda_from_sld(sld, tol))
                probes += len(calls)
                most = max(most, len(calls))
            if critical_lambda_sweep(sys_, range(1, len(slds)), tol) != list(
                    enumerate(found, 1)):
                print(f"{name} at tol {tol:g}: critical_lambda_sweep differs "
                      f"from its members' searches")
                return 1
            for r, (value, sld) in enumerate(zip(found, slds[1:]), 1):
                expected = reference.critical_lambda_bisection_from_sld(sld,
                                                                        tol)
                if value != expected:
                    print(f"{name} member {r} at tol {tol:g}: {value!r}, "
                          f"the bisection gives {expected!r}")
                    return 1
                if value is not None:
                    members += 1
                    misses += value != guessed_threshold(
                        analysis._crossing_guess(sld), tol)
        print(f"tol {tol:g}: {members} thresholds, as the bisection gives "
              f"them; {probes / members:.2f} probes per member, at most "
              f"{most}; {misses} misses")
    return 0


if __name__ == "__main__":
    sys.exit(main())
