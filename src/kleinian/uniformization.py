"""Jacobi inversion dictionary: degree-g divisors <-> basis wp-values.

For n = 2 and n = 3 the inverse of the Abel map is cut out by two
polynomial functions of weights 2g and 2g+1,

    R_lo = m_2g     - sum_i  u_i(x, y) p[w_i]
    R_hi = 2 m_2g+1 + sum_i  u_i(x, y) q[w_i]

over the basis monomials u_i of weight 2g-1-w_i, where p[w] is the
wp-value with index (1, w) and q[w] the odd combination (1,1,w) in the
hyperelliptic case or (1,1,w) - (2,w) in the trigonal case.  Every
q-value enters R_hi with sign +1, in every family, the convention pinned
down numerically by the derivative cross-check d/du_2 of p[1] against
the rational (2,2)-value and exercised in the tests.

The forward map reads p and q off one equilibrated solve of the g x g
system of basis monomials at the divisor's points (interpolate_in_basis,
with its special-divisor gate).  Both polynomials are linear in y on
every supported curve, so the inverse is one path for every family: the
x-roots of their 2x2 y-resultant (``divisors._poly_det``, the one
Leibniz expansion), y from whichever of the two depends on
y more strongly, an on-curve check and one Newton polish on the
better-conditioned of the two, the only polish a simple point takes.
Derivatives along Jacobian coordinates take one route, basis_flow: the
basis values as Taylor jets along a u_w coordinate line, exact to
truncation, from the same solver: every divisor system, of numbers or
of jets, is equilibrated and gated once.  Identity checks read
multi-index wp-values off these jets; extended_34 runs on jets as on numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import series
from .curves import CurveModel, y_split
from .divisors import (
    Divisor,
    PolyFunction,
    _at_branch_point,
    _poly_det,
    _polish_common_zero,
    _solve_nonspecial,
    clustered_roots,
    graph_y,
    interpolate_in_basis,
    y_jet,
)
from .errors import (
    BranchPointError,
    InconsistentRecordError,
    InvalidCurveError,
    PoleOfRepresentationError,
    PrecisionError,
)


@dataclass
class BasisRecord:
    """Values of the basis wp-functions at one Jacobian point.

    ``p[w]`` and ``q[w]`` are keyed by gap weight; ``extended`` holds
    further wp-values keyed by index tuples such as (2, 2) or (1, 1, 1, 1).
    """

    p: dict
    q: dict
    extended: dict = field(default_factory=dict)

    def copy(self) -> "BasisRecord":
        return BasisRecord(dict(self.p), dict(self.q), dict(self.extended))


def solution_monomials(curve: CurveModel):
    """(basis monomials by gap, m_2g, m_2g+1) for the inversion system."""
    if curve.n not in (2, 3):
        raise InvalidCurveError("Jacobi inversion implemented for n = 2 and n = 3 only")
    g2 = 2 * curve.genus
    return curve.basis_monomials(), curve.monomial(g2), curve.monomial(g2 + 1)


def divisor_to_basis(curve: CurveModel, D: Divisor) -> BasisRecord:
    """Read basis wp-values off the weight 2g and 2g+1 interpolations.

    The divisor must be reduced, of degree g, and non-special; a singular
    interpolation raises SpecialDivisorError (the divisor sits on a
    sigma-derivative stratum, which is reported but not classified).
    """
    g = curve.genus
    if D.degree != g:
        raise InvalidCurveError(f"need a degree-{g} divisor, got degree {D.degree}")
    D.assert_reduced()
    basis, m_lo, m_hi = solution_monomials(curve)
    C = interpolate_in_basis(curve, basis, [(m_lo, 1.0), (m_hi, 2.0)], D)
    p = {w: -C[i, 0] for i, w in enumerate(curve.gaps)}
    q = {w: C[i, 1] for i, w in enumerate(curve.gaps)}
    return BasisRecord(p, q)


def solution_polynomials(curve: CurveModel, rec: BasisRecord):
    """The pair (R_lo, R_hi) determined by a basis record."""
    basis, m_lo, m_hi = solution_monomials(curve)
    lo = {(m_lo.i, m_lo.j): 1.0 + 0j}
    hi = {(m_hi.i, m_hi.j): 2.0 + 0j}
    for m, w in zip(basis, curve.gaps):
        lo[(m.i, m.j)] = lo.get((m.i, m.j), 0) - rec.p[w]
        hi[(m.i, m.j)] = hi.get((m.i, m.j), 0) + rec.q[w]
    return PolyFunction(curve, lo), PolyFunction(curve, hi)


def basis_to_divisor(curve: CurveModel, rec: BasisRecord) -> Divisor:
    """Common zeros of (R_lo, R_hi) on the curve: the unique degree-g preimage.

    Both polynomials are linear in y, R_lo = a_1 y + a_0 and R_hi = b_1 y + b_0
    (for n = 2, a_1 = 0 and b_1 = 2: Mumford's (u, v) form), so their common
    zeros lie over the g roots x of the y-resultant a_1 b_0 - a_0 b_1, the
    2 x 2 determinant that ``divisors._poly_det`` expands as every other.  Over
    each root y is read off the graph of whichever of the two has the
    larger |R_y| there (``divisors.graph_y``); a root where both are free
    of y, or a point off the curve by more than 1e-6 relative, raises
    InconsistentRecordError, and keys other than the gaps InvalidCurveError.
    Each simple point then takes one Newton polish on (R_lo, f) or (R_hi, f),
    whichever has the larger |det J| over the product of J's row sums, of
    those with a y-term; its x-root enters that polish as the companion
    eigenvalue, with no polish of its own.  A multiple point keeps the
    root's centre, Newton-polished on the resultant's (m-1)-st derivative.
    """
    if set(rec.p) != set(curve.gaps) or set(rec.q) != set(curve.gaps):
        raise InvalidCurveError(f"record keys must be exactly the gap weights {curve.gaps}")
    R_lo, R_hi = solution_polynomials(curve, rec)
    a, b = y_split(R_lo.coeffs) + [None], y_split(R_hi.coeffs)
    points = []
    for x, m in clustered_roots(_poly_det([[a[1], a[0]], [b[1], b[0]]])):
        R = max((R_lo, R_hi), key=lambda R: abs(R.eval_dy(x, 0.0)))
        try:
            y = graph_y(curve, R, x)
        except PrecisionError as exc:
            raise InconsistentRecordError(f"record defines no curve point: {exc}") from exc
        if m == 1:
            # an x-only R_lo (every n = 2 record) would leave y to f alone
            R = max((R for R in (R_lo, R_hi) if R.y_degree()),
                    key=lambda R: _conditioning(curve, R, x, y))
            x, y = _polish_common_zero(curve, R, x, y)
        points += [(x, y)] * m
    return Divisor(curve, points, validate=False)


def _conditioning(curve: CurveModel, R: PolyFunction, x: complex, y: complex) -> float:
    """|det J| of (R, f) at (x, y) over the product of J's row sums."""
    j11, j12, j21, j22 = R.eval_dx(x, y), R.eval_dy(x, y), curve.eval_fx(x, y), curve.eval_fy(x, y)
    rows = (abs(j11) + abs(j12)) * (abs(j21) + abs(j22))
    return abs(j11 * j22 - j12 * j21) / rows if rows else 0.0


# -- derivatives along Jacobian coordinates ----------------------------------


def abel_jacobian(curve: CurveModel, D: Divisor) -> np.ndarray:
    """Matrix M of du_i/dx_k = u_i(P_k) / f_y(P_k).

    A point where f_y vanishes raises BranchPointError.  M is singular
    exactly when the monomial matrix u_i(P_k) is; past an equilibrated
    condition number of SPECIAL_COND that matrix marks the divisor as
    (nearly) special, an involution pair say, and raises
    SpecialDivisorError: ``_solve_nonspecial``, the gate of the
    interpolation system, which is the same matrix with points as rows.
    """
    g = curve.genus
    if D.degree != g:
        raise InvalidCurveError(f"need a degree-{g} divisor")
    for pt in D.points:
        if _at_branch_point(curve, pt.x, pt.y):
            raise BranchPointError(f"branch point in divisor at x = {pt.x}")
    basis = curve.basis_monomials()
    U = np.array([[m.eval(pt.x, pt.y) for pt in D.points] for m in basis], dtype=complex)
    _solve_nonspecial(U.T[None], np.zeros((1, g, 0)), "Abel Jacobian")
    return U / np.array([curve.eval_fy(pt.x, pt.y) for pt in D.points], dtype=complex)


def _coefficients(rows) -> np.ndarray:
    """A matrix of Jets as its Taylor coefficients, shape (order + 1, rows, cols)."""
    return np.moveaxis(np.array([[e.c for e in row] for row in rows]), -1, 0)


def basis_flow(curve: CurveModel, D: Divisor, w_dir: int, order: int):
    """Basis wp-values as Taylor jets along the u_w coordinate line through D.

    Returns (p, q), dicts of Jets keyed by gap weight: the jet's k-th
    derivative at 0 is d^k/du_w^k of p[w] or q[w].  The divisor flows by
    dx_k/dt = (M^-1 e_w)_k, and the values solve divisor_to_basis's system
    on the flowed points: exact to truncation.  Every jet system is solved
    order by order through its value at t = 0 (``_solve_nonspecial``),
    equilibrated and gated once; step m of the flow solves only orders 0..m,
    the ones it keeps.  abel_jacobian's checks guard the flow
    (BranchPointError, SpecialDivisorError).
    """
    if w_dir not in curve.gaps:
        raise InvalidCurveError(f"{w_dir} is not a gap weight of the curve")
    if order < 0:
        raise InvalidCurveError("series order must be non-negative")
    abel_jacobian(curve, D)
    g = curve.genus
    basis, m_lo, m_hi = solution_monomials(curve)
    xjs = [series.const(p.x, order) for p in D.points]  # the flow fills the slopes
    e_w = np.zeros((order + 1, g, 1), dtype=complex)
    e_w[0, curve.gaps.index(w_dir), 0] = 1.0
    for m in range(order):
        yjs = [y_jet(curve, xjs[k], D.points[k].y) for k in range(g)]
        M = _coefficients(
            [[basis[i].eval(xjs[k], yjs[k]) / curve.eval_fy(xjs[k], yjs[k]) for k in range(g)]
             for i in range(g)]
        )
        v = _solve_nonspecial(M[: m + 1], e_w[: m + 1], "jet system")
        for k in range(g):
            xjs[k].c[m + 1] = v[m, k, 0] / (m + 1)
    yjs = [y_jet(curve, xjs[k], D.points[k].y) for k in range(g)]
    A = _coefficients([[basis[i].eval(xjs[k], yjs[k]) for i in range(g)] for k in range(g)])
    B = _coefficients(
        [[-m_lo.eval(xjs[k], yjs[k]), -2.0 * m_hi.eval(xjs[k], yjs[k])] for k in range(g)]
    )
    C = _solve_nonspecial(A, B, "jet system")
    p = {w: series.Jet(-C[:, i, 0]) for i, w in enumerate(curve.gaps)}
    q = {w: series.Jet(C[:, i, 1]) for i, w in enumerate(curve.gaps)}
    return p, q


# -- the (3,4) extension -------------------------------------------------------


def extended_34(curve: CurveModel, rec: BasisRecord) -> BasisRecord:
    """Extend a (3,4) record with the rational and quadric wp-identities.

    Populates the even values (2,2), (2,5), (5,5), the 3-index values
    (1,1,1), (1,1,2), (1,1,5) implied by the q-definitions, and the
    4-index values (1,1,1,1), (1,1,1,2), (1,1,1,5).  Requires p[1] != 0
    (the rational formulas carry 1/p[1] poles).  The values may be numbers
    or the Jets of basis_flow; a Jet's pole test reads its value at t = 0.
    """
    if (curve.n, curve.s) != (3, 4):
        raise InvalidCurveError("extension formulas are specific to the (3,4)-curve")
    lam = curve.lam_get
    p2, p3, p6 = rec.p[1], rec.p[2], rec.p[5]
    q3, q4, q7 = rec.q[1], rec.q[2], rec.q[5]
    if abs(p2.val if isinstance(p2, series.Jet) else p2) < 1e-8:
        raise PoleOfRepresentationError("p[1] vanishes: rational extension has a pole here")
    l2, l5, l6, l8, l9, l12 = (lam(2), lam(5), lam(6), lam(8), lam(9), lam(12))
    aux = 0.25 * q3 * (q3 + 2.0 * p3) - p6
    wp22 = -aux / p2 + p2 * (p2 + l2)
    wp25 = (
        -0.5 * (q3 + p3) * q4
        - 0.5 * p2 * (p2 + l2) * q3
        + p2 * (p2 * p3 + l5)
        + 0.5 * aux * (q3 + 2.0 * p3) / p2
    )
    wp111 = q3 + p3
    wp112 = q4 + wp22
    wp115 = q7 + wp25
    quad = -(wp112**2) + 4.0 * p2 * (p3**2 + l6) + wp22**2
    out = rec.copy()
    out.extended.update(
        {
            (1, 1, 1): wp111,
            (1, 1, 2): wp112,
            (1, 1, 5): wp115,
            (2, 2): wp22,
            (2, 5): wp25,
            (1, 1, 1, 1): p2 * (6.0 * p2 + 4.0 * l2) - 3.0 * wp22,
            (1, 1, 1, 2): p3 * (6.0 * p2 + l2) + l5,
            (1, 1, 1, 5): p6 * (6.0 * p2 + l2) + l8 + 0.75 * quad,
            # the -l2^2 p3^2 / 2 term is forced by the mixed-derivative
            # consistency d(5,5)/du_1 = d(1,5)/du_5 and d(5,5)/du_2 = d(2,5)/du_5
            (5, 5): (
                wp112**2 * (0.5 * (p2 + l2) - 0.375 * wp22 / p2)
                + wp25 * (2.0 * p3 + 0.5 * (l2 * p3 + l5) / p2)
                - 0.125 * wp22**3 / p2
                + 0.5 * wp22 * (p3**2 - l6 + (l2 * (p3**2 + p6) + l5 * p3 + l8) / p2)
                - 2.0 * (p2 + l2) * p2 * p3**2
                - 2.0 * l5 * p2 * p3
                - 0.5 * l2**2 * p3**2
                - l2 * l5 * p3
                - 2.0 / 3.0 * l2 * l8
                - 0.5 * l5**2
                + (
                    0.5 * p3**4
                    + p6**2
                    + 2.0 * p3**2 * p6
                    + l6 * (0.5 * p3**2 + p6)
                    + 0.5 * l9 * p3
                    + l12
                )
                / p2
            ),
        }
    )
    return out
