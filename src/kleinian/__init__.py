"""Abelian function fields of canonical plane curves, numerically.

The package makes the uniformization dictionary of an (n, s)-curve
computable at desk scale:

* ``curves``          canonical curve models, Sato-weight combinatorics,
                      differentials, parametrization at infinity;
* ``divisors``        coordinate-ring arithmetic, interpolation of
                      polynomial functions through divisors, zero divisors;
* ``uniformization``  divisor <-> basis wp-values (Jacobi inversion) and
                      directional derivatives along Jacobian coordinates;
* ``identities``      Jacobian-model and Kummer-model residual checks,
                      including the hyperelliptic matrix machinery;
* ``addition``        the divisor-level groupoid law (negate / add) and the
                      explicit genus-3 hyperelliptic addition;
* ``theta``           Riemann theta functions with characteristics;
* ``transcendental``  period matrices, Abel map, Riemann-constant characteristic,
                      wp-values from theta: the analytic cross-check of the
                      algebraic side (hyperelliptic curves only).
"""

from .curves import (
    CurveModel,
    CurvePoint,
    Monomial,
    curve_model,
    gap_sequence,
    infinity_series,
)
from .divisors import Divisor, PolyFunction, complement, interpolate, zero_divisor
from .uniformization import (
    BasisRecord,
    abel_jacobian,
    basis_flow,
    basis_to_divisor,
    divisor_to_basis,
    extended_34,
)
from .identities import (
    HMatrixBundle,
    build_H,
    cubic_residual,
    kummer_residuals,
    residuals_27,
    residuals_34,
)
from .addition import add, add27_explicit, negate
from .theta import theta_derivatives
from .transcendental import (
    PeriodData,
    abel,
    branch_points,
    period_matrices,
    riemann_characteristic,
    wp_theta,
)

__version__ = "0.1.0"

__all__ = [
    "CurveModel",
    "CurvePoint",
    "Monomial",
    "curve_model",
    "gap_sequence",
    "infinity_series",
    "Divisor",
    "PolyFunction",
    "interpolate",
    "zero_divisor",
    "complement",
    "BasisRecord",
    "divisor_to_basis",
    "basis_to_divisor",
    "abel_jacobian",
    "basis_flow",
    "extended_34",
    "residuals_27",
    "residuals_34",
    "build_H",
    "cubic_residual",
    "kummer_residuals",
    "HMatrixBundle",
    "negate",
    "add",
    "add27_explicit",
    "theta_derivatives",
    "PeriodData",
    "branch_points",
    "period_matrices",
    "riemann_characteristic",
    "abel",
    "wp_theta",
]
