"""Exact closed forms for Rayleigh-type sums over Bessel-function zeros.

sigma(p, nu) = sum_k xi_{nu,k}**(-2p), with xi_{nu,k} the k-th positive zero
of J_nu, admits an exact closed form as a ratio of integer polynomials in nu
for every integer p >= 1. This package derives those closed forms with
Kishore's convolution recurrence, checks them against the source paper's
triangular linear system and a floating-point zero summation oracle, and specializes them at nu = 1/2 to exact even-argument
Riemann zeta values zeta(2p) = pi**(2p) * sigma(p, 1/2).

Importing the package loads none of its modules. Each public name is
imported from its home module on first use (PEP 562 module __getattr__), so
a process pays only for the layers it touches.
"""

import importlib

__version__ = "0.1.0"

# Every public name but __version__, by its home module: the one list of them.
_EXPORTS = {
    "exact_algebra": ("FactoredRationalFn", "PoleError", "Poly", "poly_gcd"),
    "rayleigh_core": (
        "RatioExpansion",
        "SigmaTable",
        "build_ratio_expansion",
        "derive_sigma",
        "derive_sigma_triangular",
        "eval_sigma_exact",
        "ratio_by_recurrence",
        "sigma_value",
        "sums_identity_defect",
    ),
    "bessel_numeric": (
        "NumericError",
        "ResidueReport",
        "TailedSum",
        "ZeroSet",
        "bessel_j",
        "bessel_zeros",
        "numeric_sigma",
        "residue_identity_lhs",
        "residue_tail_scale",
        "verify_ratio_formula",
        "verify_residue_identity",
    ),
    "zeta": ("PI_50", "ZetaValue", "zeta_even", "zeta_float_str"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    """Import a public name from its home module, and keep it here."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
