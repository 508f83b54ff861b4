"""Residue reconstruction of the concentratable entanglement: the test-only
reference.

The package computes each member's entanglement exactly by specialised
iteration, and its asymptotics need only the dominant root. This
reconstruction rebuilds the same values from every complex root of the
reduced denominator at (3/4, 1/4); it stays here, unchanged, as an
independent check of the exact values and of the roots behind their
radical closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from sldgf.analysis import (WORKING_DPS, AnalysisError, _mpf_from_fraction,
                            _reduced_specialisation, _residue)
from sldgf.transfer import TransferSystem, wep_values_by_iteration

from pole_reference import ROOT_CLUSTER_RTOL, _all_roots


class ClusteredRootsError(AnalysisError):
    """Residue reconstruction hit (numerically) multiple roots."""


@dataclass
class CEClosedFormReport:
    """Residue reconstruction of the concentratable-entanglement sequence."""

    r_max: int
    tol: float
    roots: list
    poly_part: list
    max_abs_error: float
    ok: bool


def ce_closed_form_check(sys: TransferSystem, r_max: int,
                         tol: float = 1e-10) -> CEClosedFormReport:
    """Rebuild the exact entanglement complements from denominator roots.

    Splits the reduced specialisation at (3/4, 1/4) into a polynomial part
    plus a proper fraction, turns the fraction into a sum of residue terms
    c_i * z_i^(-r), and confirms agreement with the exact values.
    """
    with mp.workdps(WORKING_DPS):
        p, q = _reduced_specialisation(sys, Fraction(3, 4), Fraction(1, 4))
        poly_part, rem = p.divmod(q)
        roots = _all_roots(q)
        for i, a in enumerate(roots):
            for b in roots[i + 1:]:
                if mp.fabs(a - b) <= ROOT_CLUSTER_RTOL * max(1, mp.fabs(a)):
                    raise ClusteredRootsError(
                        "denominator roots cluster; residue form is ambiguous")
        dq = q.derivative()
        residues = [_residue(rem, dq, z) for z in roots]
        exact = wep_values_by_iteration(sys, Fraction(3, 4), Fraction(1, 4),
                                        r_max)
        max_err = 0.0
        for r in range(r_max + 1):
            recon = mp.mpc(0)
            for z, c in zip(roots, residues):
                recon += c * z ** (-r - 1)
            if r < len(poly_part.coeffs):
                recon += _mpf_from_fraction(poly_part.coeffs[r])
            err = abs(recon - _mpf_from_fraction(exact[r]))
            max_err = max(max_err, float(err))
        return CEClosedFormReport(
            r_max=r_max, tol=tol,
            roots=[complex(z) for z in roots],
            poly_part=[str(c) for c in poly_part.coeffs],
            max_abs_error=max_err, ok=max_err <= tol)

