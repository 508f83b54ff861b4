"""Exact generating functions for sector-length distributions of
recursively definable graph-state families.

Exports resolve on first use (PEP 562), so a process imports only the
submodules, and through them mpmath, that it calls into.
"""

# submodule -> the names exported from it
_NAMES_BY_MODULE = {
    "algebra": (
        "AlgebraError", "CertificateError", "LaurentPoly3",
        "NonConstantLeadingTermError", "PolyMatrix", "RatFunc3", "UniPolyZ",
        "ZeroDenominatorError", "poly_from_terms", "ratfunc_equal",
        "ratfunc_normalize", "series_coefficients", "uni_gcd", "uni_reduce",
        "uni_specialize"),
    "analysis": (
        "AnalysisError", "DegenerateSingularityError", "LeadingTerm",
        "NoThresholdError", "SingularityReport", "concentratable_entanglement",
        "criterion_asymptotic_ratio", "criterion_q", "critical_lambda",
        "critical_lambda_asymptotic", "critical_lambda_sweep",
        "dominant_singularity", "fidelity_asymptotic", "fidelity_exact",
        "fidelity_leading_term", "fidelity_sweep"),
    "family": (
        "BUILTIN_FAMILIES", "FamilyError", "FamilySpec", "Graph", "SLD",
        "builtin", "parse_family_spec", "realize", "serialize_family_spec",
        "sld_from_wep", "to_rational", "wep_from_sld"),
    "oracle": (
        "VertexCapExceeded", "sld_bruteforce_colouring",
        "sld_bruteforce_stabilizer"),
    "transfer": (
        "TransferSystem", "build_transfer_system", "family_gf", "iter_weps",
        "wep_by_iteration", "wep_values_by_iteration"),
}

__version__ = "0.1.0"

# every listed name, so a name listed under two submodules shows twice
__all__ = [name for names in _NAMES_BY_MODULE.values() for name in names]

# exported name -> submodule it is read from
_EXPORTS = {name: module for module, names in _NAMES_BY_MODULE.items()
            for name in names}

_SUBMODULES = frozenset(_NAMES_BY_MODULE)


def __getattr__(name: str):
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__all__})
