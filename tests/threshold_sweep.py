"""Check the member thresholds against the bisection they replace.

Run as ``PYTHONPATH=src python tests/threshold_sweep.py``. It is not a
pytest module (it bisects some 1450 members with Fraction brackets at three
tolerances, which takes a minute and a half), so Tier-1 does not collect
it. For members 1..200 of the seven built-ins, members 1..50 of the 4-wide
ladder and the binomial SLDs on 3000 and 5000 qubits
(threshold_reference.binomial_sld), at tol 1e-10, 1e-12 and 1e-16, it
compares critical_lambda_sweep, or the member search on an SLD with no
family, with the Fraction bisection: sqrt of the midpoint of
threshold_reference.bisection_cell. It prints the exact sign probes
(_grid_sign calls) per member and the misses: members whose float guess
(_crossing_guess), read on the last cell's grid as the search reads it,
is not that cell, so that the search galloped from the guessed cell. It
exits 1 on the first threshold that differs, and on the first member whose
search takes more probes than the bisection's depth + 8, the search's
stated bound.
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
BINOMIAL_QUBITS = (3000, 5000)


def missed(guess: float, cell: tuple[Fraction, Fraction]) -> bool:
    """Whether floor(guess 2^depth), capped at the last cell of [0, 1] as
    the search caps it, is not the bisection's last cell [lo, hi], of width
    2^-depth."""
    lo, hi = cell
    depth = (hi - lo).denominator.bit_length() - 1
    index = min(math.floor(math.ldexp(guess, depth)), (1 << depth) - 1)
    return index != lo * (1 << depth)


def families():
    """(name, system, last member) of every family swept."""
    for name in BUILTIN_FAMILIES:
        yield name, build_transfer_system(builtin(name)), BUILTIN_MEMBERS
    spec = parse_family_spec(json.dumps(ladder(4)))
    yield spec.name, build_transfer_system(spec), LADDER_MEMBERS


def main() -> int:
    swept = [(name, sys_, [sld_from_wep(w)
                           for w in iter_weps(sys_, r_max)][1:])
             for name, sys_, r_max in families()]
    swept += [(f"binomial_{n}", None, [reference.binomial_sld(n)])
              for n in BINOMIAL_QUBITS]
    calls = []
    real = analysis._grid_sign

    def counted(*args):
        calls.append(args)
        return real(*args)
    for tol in TOLERANCES:
        members = misses = probes = most = 0
        for name, sys_, slds in swept:
            found, taken = [], []
            for sld in slds:
                calls.clear()
                with mock.patch.object(analysis, "_grid_sign", counted):
                    found.append(analysis._critical_lambda_from_sld(sld, tol))
                taken.append(len(calls))
            probes += sum(taken)
            most = max(most, *taken)
            if sys_ is not None and critical_lambda_sweep(
                    sys_, range(1, len(slds) + 1), tol) != list(
                    enumerate(found, 1)):
                print(f"{name} at tol {tol:g}: critical_lambda_sweep differs "
                      f"from its members' searches")
                return 1
            for r, (value, sld, count) in enumerate(zip(found, slds, taken),
                                                    1):
                cell = reference.bisection_cell(sld, tol)
                expected = None if cell is None else math.sqrt(sum(cell) / 2)
                if value != expected:
                    print(f"{name} member {r} at tol {tol:g}: {value!r}, "
                          f"the bisection gives {expected!r}")
                    return 1
                if value is not None:
                    depth = (cell[1] - cell[0]).denominator.bit_length() - 1
                    if count > depth + 8:
                        print(f"{name} member {r} at tol {tol:g}: {count} "
                              f"probes, beyond the bisection's {depth} + 8")
                        return 1
                    members += 1
                    misses += missed(analysis._crossing_guess(sld), cell)
        print(f"tol {tol:g}: {members} thresholds, as the bisection gives "
              f"them; {probes / members:.2f} probes per member, at most "
              f"{most}; {misses} misses")
    return 0


if __name__ == "__main__":
    sys.exit(main())
