"""Exact closed forms for Rayleigh-type sums over Bessel-function zeros.

sigma(p, nu) = sum_k xi_{nu,k}**(-2p), with xi_{nu,k} the k-th positive zero
of J_nu, admits an exact closed form as a ratio of integer polynomials in nu
for every integer p >= 1. This package derives those closed forms with
Kishore's convolution recurrence, checks them against the source paper's
triangular linear system and a floating-point zero summation oracle, and specializes them at nu = 1/2 to exact even-argument
Riemann zeta values zeta(2p) = pi**(2p) * sigma(p, 1/2).
"""

from .exact_algebra import (
    FactoredRationalFn,
    PoleError,
    Poly,
    Rational,
    poly_gcd,
)
from .rayleigh_core import (
    RatioExpansion,
    SigmaTable,
    build_ratio_expansion,
    derive_sigma,
    derive_sigma_triangular,
    eval_sigma_exact,
    q_max,
    ratio_by_recurrence,
    ratio_coefficient,
    sigma_value,
    sums_identity_defect,
)
from .bessel_numeric import (
    NumericError,
    ResidueReport,
    TailedSum,
    ZeroSet,
    bessel_j,
    bessel_zeros,
    numeric_sigma,
    ratio_at_zero,
    residue_identity_lhs,
    residue_tail_scale,
    verify_ratio_formula,
    verify_residue_identity,
)
from .zeta import PI_50, ZetaValue, spherical_sigma, zeta_even, zeta_float_str

__version__ = "0.1.0"

__all__ = [
    "FactoredRationalFn",
    "NumericError",
    "PI_50",
    "PoleError",
    "Poly",
    "Rational",
    "RatioExpansion",
    "ResidueReport",
    "SigmaTable",
    "TailedSum",
    "ZeroSet",
    "ZetaValue",
    "bessel_j",
    "bessel_zeros",
    "build_ratio_expansion",
    "derive_sigma",
    "derive_sigma_triangular",
    "eval_sigma_exact",
    "numeric_sigma",
    "poly_gcd",
    "q_max",
    "ratio_at_zero",
    "ratio_by_recurrence",
    "ratio_coefficient",
    "residue_identity_lhs",
    "residue_tail_scale",
    "sigma_value",
    "spherical_sigma",
    "sums_identity_defect",
    "verify_ratio_formula",
    "verify_residue_identity",
    "zeta_even",
    "zeta_float_str",
    "__version__",
]
