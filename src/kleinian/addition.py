"""Divisor-level groupoid structure: inversion and addition.

The class group operations are realized by complements: the zeros of a
function interpolated through a divisor, less that divisor, read off the
quotient of the function's y-resultant with the curve equation by the
divisor's x-polynomial (``divisors.complement``):

* ``negate``  complements D in the zeros of the weight-2g function
  through D.  On the (3,4) curve that function is linear in y, and the
  new zeros are read off its graph.  On hyperelliptic curves it is
  x-only, and the complement is the mirror (x, y) -> (x, -y) (Cantor's
  (u, v) -> (u, -v)), which ``negate`` returns exactly, with no solve;
* ``add``     complements D1 + D2 in the zeros of the least-weight
  function linear in y through it, y = v(x) on its graph (Cantor's
  composition), and reduces the remainder D' through a second function
  of least weight: ``negate`` on hyperelliptic curves, the weight-7
  function on (3,4).  Every step reads its zeros off a graph.

For the genus-3 hyperelliptic curve there is a second, fully explicit
path through basis wp-values: the weight-9 function with unknown gamma
coefficients gives a 3x3 linear system built from the two input records,
and the product relation against the curve equation yields the p-values
of the sum, with the q-values recovered from the same linear system at
the new point.  The two paths cross-validate each other in the tests.
"""

from __future__ import annotations

import numpy as np

from .curves import CurveModel
from .divisors import (
    Divisor,
    _at_branch_point,
    _grouped_points,
    complement,
    interpolate,
    interpolate_y_linear,
    poly_mul_raw,
)
from .errors import (
    BranchPointError,
    DegenerateComplementError,
    DegeneratePairError,
    InvalidCurveError,
    SpecialDivisorError,
)
from .uniformization import BasisRecord


def negate(curve: CurveModel, D: Divisor) -> Divisor:
    """The divisor of the inverse class: (interpolate(2g, D))_0 - D.

    On a hyperelliptic curve that is the mirror of D: for a point (x, y)
    of multiplicity m, m copies of (x, -y), in the order the points first
    appear.  The gates of the complement route stay: a repeated branch
    point raises BranchPointError (no branch jet there), and two distinct
    points over one x, an involution pair say, raise SpecialDivisorError
    (no unique weight-2g function).
    """
    g = curve.genus
    if D.degree != g:
        raise InvalidCurveError(f"need a degree-{g} divisor")
    if curve.n != 2:
        return complement(curve, interpolate(curve, 2 * g, D), D)
    groups = _grouped_points(D)
    for p, m in groups:
        if m > 1 and _at_branch_point(curve, p.x, p.y):
            raise BranchPointError(f"branch point at x = {p.x}")
    if len({p.x for p, _ in groups}) < len(groups):
        raise SpecialDivisorError("two points over one x: the weight-2g function is not unique")
    return Divisor(curve, [(p.x, -p.y) for p, m in groups for _ in range(m)], validate=False)


def add(curve: CurveModel, D1: Divisor, D2: Divisor) -> Divisor:
    """Divisor representing the sum of the classes of D1 and D2.

    Cantor's composition and reduction, each through a function of least
    weight: D' = (R)_0 - D1 - D2 for the least-weight y-linear R through
    D1 + D2, then ``negate(D')`` when deg D' = g (every hyperelliptic
    curve, R of weight 3g), else D' complemented in the zeros of the
    weight-(g + deg D') function through it (on (3,4), weights 10 and 7:
    D'' ~ 7 inf - D' ~ D1 + D2 - 3 inf).  A complement that escapes to
    infinity raises DegeneratePairError.
    """
    g = curve.genus
    if D1.degree != g or D2.degree != g:
        raise InvalidCurveError(f"need degree-{g} divisors")
    union = D1 + D2
    if not union.is_reduced():
        raise DegeneratePairError(
            "inputs share points in involution; the sum degenerates toward the identity"
        )
    R = interpolate_y_linear(curve, union)
    try:
        Dp = complement(curve, R, union)
        if Dp.degree == g:
            return negate(curve, Dp)
        return complement(curve, interpolate(curve, g + Dp.degree, Dp), Dp)
    except DegenerateComplementError as exc:
        raise DegeneratePairError(f"complement escapes to infinity: {exc}") from exc


# -- explicit genus-3 hyperelliptic addition ----------------------------------


def _blocks_27(rec: BasisRecord):
    p2, p4, p6 = rec.p[1], rec.p[3], rec.p[5]
    q3, q5, q7 = rec.q[1], rec.q[3], rec.q[5]
    ups1 = np.array([p6, p4, p2], dtype=complex)
    ups2 = -0.5 * np.array([q7, q5, q3], dtype=complex)
    ups3 = np.array([p2 * p6, p2 * p4 + p6, p2**2 + p4], dtype=complex)
    A = np.column_stack([ups1, ups2, ups3])
    b = -0.5 * q3 * ups1 + np.array([0.0, -0.5 * q7, -0.5 * q5], dtype=complex)
    return A, b


def add27_explicit(
    recU: BasisRecord, recUt: BasisRecord, curve: CurveModel
) -> tuple[BasisRecord, dict]:
    """Basis record at -(u + u~) on the genus-3 hyperelliptic curve.

    Solves the 6x6 block system for the gamma coefficients of the
    weight-9 function through both preimages, reads the new p-values off
    the top coefficients of the product relation, and re-solves the same
    3x3 system at the new point for the q-values.  Returns the record and
    the gamma coefficients {1, 2, 3, 5, 7, 9}.
    """
    A_u, b_u = _blocks_27(recU)
    A_t, b_t = _blocks_27(recUt)
    dA = A_u - A_t
    if abs(np.linalg.det(dA)) < 1e-12 * max(1.0, np.max(np.abs(dA)) ** 3):
        raise DegeneratePairError("A(u) - A(u~) singular: u = +/- u~ or special pair")
    gbar = -np.linalg.solve(dA, b_u - b_t)  # (gamma3, gamma2, gamma1)
    gbreve = -b_u - A_u @ gbar  # (gamma9, gamma7, gamma5)
    g3, g2, g1 = gbar
    g9, g7, g5 = gbreve
    l4, l6 = curve.lam_get(4), curve.lam_get(6)
    p2u, p4u, p6u = recU.p[1], recU.p[3], recU.p[5]
    p2t, p4t, p6t = recUt.p[1], recUt.p[3], recUt.p[5]
    p2h = -p2u - p2t - 2.0 * g2 + g1**2
    p4h = -p4u - p4t + p2u * p2t + (p2u + p2t) * p2h + 2.0 * g1 * g3 - g2**2 - l4
    p6h = (
        -p6u
        - p6t
        + p4u * p2t
        + p4t * p2u
        + (p2u + p2t) * p4h
        + (p4u + p4t - p2u * p2t) * p2h
        + g3**2
        + 2.0 * g1 * g5
        - 2.0 * g2 * l4
        - l6
    )
    # q at the new point: gbreve + A(u^) gbar + b(u^) = 0, linear in q(u^)
    M = np.array(
        [
            [-0.5 * p6h, 0.0, -0.5 * g2],
            [-0.5 * p4h, -0.5 * g2, -0.5],
            [-0.5 * (p2h + g2), -0.5, 0.0],
        ],
        dtype=complex,
    )
    ups1h = np.array([p6h, p4h, p2h], dtype=complex)
    ups3h = np.array([p2h * p6h, p2h * p4h + p6h, p2h**2 + p4h], dtype=complex)
    rhs = -(gbreve + g3 * ups1h + g1 * ups3h)
    q3h, q5h, q7h = np.linalg.solve(M, rhs)
    rec = BasisRecord({1: p2h, 3: p4h, 5: p6h}, {1: q3h, 3: q5h, 5: q7h})
    gammas = {1: g1, 2: g2, 3: g3, 5: g5, 7: g7, 9: g9}
    return rec, gammas


def weight9_function(curve: CurveModel, gammas: dict, mirror: bool = False) -> dict:
    """Coefficient table of the weight-9 function xy + sum gamma_k (raw)."""
    s = -1.0 if mirror else 1.0
    return {
        (1, 1): 1.0,
        (4, 0): s * gammas[1],
        (0, 1): gammas[2],
        (3, 0): s * gammas[3],
        (2, 0): s * gammas[5],
        (1, 0): s * gammas[7],
        (0, 0): s * gammas[9],
    }


def quotient_identity_residual_27(
    curve: CurveModel, recU: BasisRecord, recUt: BasisRecord, recUh: BasisRecord, gammas: dict
) -> float:
    """Coefficientwise defect of R9 R9^- - R6(u) R6(u~) R6(u^) + (x+g2)^2 f.

    The three R6 factors are the x-only inversion polynomials at u, u~,
    and u^ = -(u + u~); the identity certifies that the explicit addition
    really factors the weight-9 function through the three preimages.
    """

    def r6(rec: BasisRecord) -> dict:
        return {(3, 0): 1.0, (2, 0): -rec.p[1], (1, 0): -rec.p[3], (0, 0): -rec.p[5]}

    total = poly_mul_raw(
        weight9_function(curve, gammas), weight9_function(curve, gammas, mirror=True)
    )
    prod6 = poly_mul_raw(poly_mul_raw(r6(recU), r6(recUt)), r6(recUh))
    g2 = gammas[2]
    sq = {(2, 0): 1.0, (1, 0): 2.0 * g2, (0, 0): g2**2}
    corr = poly_mul_raw(sq, curve.coeffs)
    resid: dict = dict(total)
    for k, v in prod6.items():
        resid[k] = resid.get(k, 0) - v
    for k, v in corr.items():
        resid[k] = resid.get(k, 0) + v
    scale = max(abs(v) for v in total.values())
    return max(abs(v) for v in resid.values()) / scale
