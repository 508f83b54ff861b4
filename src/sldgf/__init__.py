"""Exact generating functions for sector-length distributions of
recursively definable graph-state families."""

from .algebra import (AlgebraError, CertificateError, LaurentPoly3,
                      NonConstantLeadingTermError, PolyMatrix, RatFunc3,
                      UniPolyZ, ZeroDenominatorError, poly_from_terms,
                      ratfunc_equal, ratfunc_normalize, series_coefficients,
                      uni_gcd, uni_reduce, uni_specialize)
from .analysis import (AnalysisError, DegenerateSingularityError, LeadingTerm,
                       NoThresholdError, SingularityReport,
                       concentratable_entanglement, criterion_asymptotic_ratio,
                       criterion_q, critical_lambda,
                       critical_lambda_asymptotic, critical_lambda_sweep,
                       dominant_singularity, fidelity_asymptotic,
                       fidelity_exact, fidelity_leading_term, fidelity_sweep,
                       to_rational)
from .family import (BUILTIN_FAMILIES, FamilyError, FamilySpec, Graph, SLD,
                     builtin, parse_family_spec, realize,
                     serialize_family_spec, sld_from_wep, wep_from_sld)
from .oracle import (VertexCapExceeded, sld_bruteforce_colouring,
                     sld_bruteforce_stabilizer)
from .transfer import (TransferSystem, build_transfer_system,
                       certify_family_gf, colouring_weight, decode_states,
                       encode_states, family_gf, iter_weps, wep_by_iteration,
                       wep_values_by_iteration)

__version__ = "0.1.0"

__all__ = [
    # algebra
    "AlgebraError", "CertificateError", "LaurentPoly3",
    "NonConstantLeadingTermError", "PolyMatrix", "RatFunc3", "UniPolyZ",
    "ZeroDenominatorError", "poly_from_terms", "ratfunc_equal",
    "ratfunc_normalize", "series_coefficients", "uni_gcd", "uni_reduce",
    "uni_specialize",
    # analysis
    "AnalysisError", "DegenerateSingularityError", "LeadingTerm",
    "NoThresholdError", "SingularityReport", "concentratable_entanglement",
    "criterion_asymptotic_ratio", "criterion_q", "critical_lambda",
    "critical_lambda_asymptotic", "critical_lambda_sweep",
    "dominant_singularity", "fidelity_asymptotic", "fidelity_exact",
    "fidelity_leading_term", "fidelity_sweep", "to_rational",
    # family
    "BUILTIN_FAMILIES", "FamilyError", "FamilySpec", "Graph", "SLD",
    "builtin", "parse_family_spec", "realize", "serialize_family_spec",
    "sld_from_wep", "wep_from_sld",
    # oracle
    "VertexCapExceeded", "sld_bruteforce_colouring",
    "sld_bruteforce_stabilizer",
    # transfer
    "TransferSystem", "build_transfer_system", "certify_family_gf",
    "colouring_weight", "decode_states", "encode_states", "family_gf",
    "iter_weps", "wep_by_iteration", "wep_values_by_iteration",
]
