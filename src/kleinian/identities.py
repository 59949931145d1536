"""Jacobian-model and Kummer-model identities as residual functionals.

Every identity is evaluated term by term and normalized by the largest
monomial term, since raw residuals are meaningless across Sato weights.
The module covers

* the three genus-3 hyperelliptic model relations for the (2,7)-curve;
* the (3,4) model relations (three eliminated plus five cubic ones) and
  the quadric list tying 4-index values to the basis;
* the hyperelliptic matrix machinery for any genus: the bordered
  symmetric matrices P, L, H = P - L, the reduction matrix T, and the
  fundamental cubic form  T^t H T + 2 Y2 Y2^t = 0, whose bordered
  3-minors produce the Kummer matrix with  k_ij = q_i q_j / 2  and the
  rank-1 quadric system.

Multi-index wp-values that feed these checks come either from the theta
side (transcendental module) or from derivatives of the basis functions
along Jacobian coordinates, read off the jets of
uniformization.basis_flow; helpers for the (2,7) derivative route and the
(3,4) derivative values and mixed (5,5) check live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import HYPERELLIPTIC, CurveModel
from .divisors import Divisor
from .errors import IncompleteRecordError, InvalidCurveError
from .uniformization import BasisRecord, basis_flow, divisor_to_basis, extended_34


def _residual(terms) -> float:
    scale = max((abs(t) for t in terms), default=0.0)
    if scale == 0.0:
        return 0.0
    return abs(sum(terms)) / scale


# -- (2,7): the genus-3 hyperelliptic model ----------------------------------


def residuals_27(rec: BasisRecord, curve: CurveModel) -> dict:
    """Normalized residuals of the three weight 10/12/14 model relations."""
    L = curve.lam_get
    p2, p4, p6 = rec.p[1], rec.p[3], rec.p[5]
    q3, q5, q7 = rec.q[1], rec.q[3], rec.q[5]
    l4, l6, l8, l10, l12, l14 = L(4), L(6), L(8), L(10), L(12), L(14)
    J10 = [
        -2 * q3 * q7,
        -(q5**2),
        -2 * p2 * q3 * q5,
        -(p4 + p2**2) * q3**2,
        12 * p2**2 * p6,
        12 * p2 * p4**2,
        16 * p2**3 * p4,
        4 * p2**5,
        8 * p4 * p6,
        4 * l4 * (p6 + 2 * p2 * p4 + p2**3),
        4 * l6 * (p4 + p2**2),
        4 * l8 * p2,
        4 * l10,
    ]
    J12 = [
        -2 * q5 * q7,
        -2 * p4 * q3 * q5,
        -(p6 + p2 * p4) * q3**2,
        16 * p2 * p4 * p6,
        12 * p2**2 * p4**2,
        4 * p6**2,
        4 * p2**3 * p6,
        4 * p2**4 * p4,
        4 * p4**3,
        4 * l4 * (p2 * p6 + p4**2 + p2**2 * p4),
        4 * l6 * (p6 + p2 * p4),
        4 * l8 * p4,
        4 * l12,
    ]
    J14 = [
        -(q7**2),
        -2 * p6 * q3 * q5,
        -p2 * p6 * q3**2,
        8 * p2 * p6**2,
        4 * p4**2 * p6,
        12 * p2**2 * p4 * p6,
        4 * p2**4 * p6,
        4 * l4 * p6 * (p4 + p2**2),
        4 * l6 * p2 * p6,
        4 * l8 * p6,
        4 * l14,
    ]
    return {"J10": _residual(J10), "J12": _residual(J12), "J14": _residual(J14)}


# -- (3,4): trigonal model, cubic relations, quadric list ---------------------

_EXT_34_REQUIRED = [(2, 2), (2, 5), (1, 1, 1), (1, 1, 2), (1, 1, 5)]


def residuals_34(rec: BasisRecord, curve: CurveModel) -> dict:
    """Normalized residuals of the (3,4) model and cubic relations.

    Needs the extended values (2,2), (2,5) and the implied 3-index
    combinations on the record; when 4-index values are present as well
    the quadric list E1111/E1112/E1115 is also evaluated, comparing them
    against their basis-polynomial right-hand sides.  On extended_34's
    output alone G6, G7 and E1111/E1112/E1115 vanish by construction
    (it solves G6 and G7 for (2,2) and (2,5) and evaluates the E formulas),
    so they check something only on values from derivative_values_34.
    """
    L = curve.lam_get
    for key in _EXT_34_REQUIRED:
        if key not in rec.extended:
            raise IncompleteRecordError(f"extended value {key} missing; run extended_34 first")
    p2, p3, p6 = rec.p[1], rec.p[2], rec.p[5]
    q3, q4, q7 = rec.q[1], rec.q[2], rec.q[5]
    l2, l5, l6, l8, l9, l12 = L(2), L(5), L(6), L(8), L(9), L(12)
    wp22 = rec.extended[(2, 2)]
    wp25 = rec.extended[(2, 5)]
    wp111 = rec.extended[(1, 1, 1)]
    wp112 = rec.extended[(1, 1, 2)]
    wp115 = rec.extended[(1, 1, 5)]

    J12 = [
        -2 * p2 * (q3 + p3) * (q7 - q3 * q4),
        -(p2**2) * q4**2,
        -(q3**2) * (0.5 * p2 * q4 + (0.5 * q3 + p3) ** 2 - p6),
        -(2 * p2 * q4 - q3**2) * (p6 + p2**2 * (p2 + l2)),
        2 * q3 * (2 * p3 * p6 - p2**2 * (p2 * p3 + l5)),
        -4 * p6**2,
        4 * p2**3 * (p6 + p3**2 + l6),
        4 * l8 * p2**2,
    ]
    J13 = [
        -(2 * q7 - q3 * q4)
        * (p2 * q4 - 0.25 * q3 * (q3 + 2 * p3) + p6 + p2**2 * (p2 + l2)),
        -2 * p2**2 * q4 * (p3 * (p2 + l2) + p2 * p3 + l5),
        4 * p2**2 * (p3 * (p6 + p3**2 + l6) + p3 * p6 + l9),
    ]
    J16 = [
        -p2 * (q7**2 + p6 * q4**2 - (q3 + p3) * q7 * q4),
        -(q7 * q3 - 2 * p6 * q4) * (0.25 * q3**2 - p6 - p2**2 * (p2 + l2)),
        -p3 * q3 * (q7 * q3 - p6 * q4),
        -q7 * ((p3 * q3 - 2 * p6) * p3 + 2 * p2**2 * (p2 * p3 + l5)),
        4 * p2**2 * (p6 * (p6 + p3**2 + l6) + l12),
    ]
    quad = -(wp112**2) + 4 * p2 * (p3**2 + l6) + wp22**2
    G6 = [-(wp111**2), 4 * p2**3, -4 * p2 * wp22, 4 * p6, p3**2, 4 * l2 * p2**2]
    G7 = [
        -2 * wp111 * wp112,
        8 * p2**2 * p3,
        -2 * p3 * wp22,
        -4 * wp25,
        4 * l2 * p2 * p3,
        4 * l5 * p2,
    ]
    G10 = [
        -2 * wp111 * wp115,
        8 * p2**2 * p6,
        2 * p3 * wp25,
        -4 * p6 * wp22,
        4 * l2 * p2 * p6,
        4 * l8 * p2,
        p2 * quad,
    ]
    G11 = [
        -2 * wp112 * wp115,
        8 * p2 * p3 * p6,
        2 * wp22 * wp25,
        4 * l9 * p2,
        p3 * quad,
    ]
    G14 = [
        -(wp115**2),
        4 * p2 * p6**2,
        wp25**2,
        4 * l12 * p2,
        p6 * quad,
    ]
    out = {
        "J12": _residual(J12),
        "J13": _residual(J13),
        "J16": _residual(J16),
        "G6": _residual(G6),
        "G7": _residual(G7),
        "G10": _residual(G10),
        "G11": _residual(G11),
        "G14": _residual(G14),
    }
    if (1, 1, 1, 1) in rec.extended:
        out["E1111"] = _residual(
            [rec.extended[(1, 1, 1, 1)], -p2 * (6 * p2 + 4 * l2), 3 * wp22]
        )
    if (1, 1, 1, 2) in rec.extended:
        out["E1112"] = _residual([rec.extended[(1, 1, 1, 2)], -p3 * (6 * p2 + l2), -l5])
    if (1, 1, 1, 5) in rec.extended:
        out["E1115"] = _residual(
            [rec.extended[(1, 1, 1, 5)], -p6 * (6 * p2 + l2), -l8, -0.75 * quad]
        )
    return out


def derivative_values_34(curve: CurveModel, D: Divisor) -> dict:
    """Derivative-computed 2-, 3- and 4-index values for a (3,4) divisor.

    From the jet flows along u_1, u_2 and u_5: wp_{1,1,1,w} = d/du_w of
    wp_{1,1,1} = q[1] + p[2]; for w = 2 and 5 also wp_{1,1,w} = d p[1]/du_w
    and wp_{2,w} = wp_{1,1,w} - q[w].  None of them comes from the
    rational and quadric formulas these values verify.
    """
    out = {}
    for w in (1, 2, 5):
        p, q = basis_flow(curve, D, w, 1)
        out[(1, 1, 1, w)] = (q[1] + p[2]).derivative_at_zero(1)
        if w != 1:
            out[(1, 1, w)] = p[1].derivative_at_zero(1)
            out[(2, w)] = out[(1, 1, w)] - q[w].val
    return out


def wp55_mixed_derivative_check_34(curve: CurveModel, D: Divisor) -> float:
    """Consistency of the (5,5) formula: d(wp_55)/du_1 = d(wp_15)/du_5.

    Both sides equal wp_{1,5,5}; the left evaluates the rational (5,5)
    expression on the record of jets along the u_1 flow, the right flows
    p[5] along u_5.  The (5,5) value itself has no independent
    single-derivative route, so this mixed equality is the strongest
    honest check available.
    """
    p, q = basis_flow(curve, D, 1, 1)
    lhs = extended_34(curve, BasisRecord(p, q)).extended[(5, 5)].derivative_at_zero(1)
    p, _ = basis_flow(curve, D, 5, 1)
    rhs = p[5].derivative_at_zero(1)
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


# -- hyperelliptic matrix machinery -------------------------------------------


@dataclass
class HMatrixBundle:
    """P, L, H = P - L, the reduction matrix T, and Y2 = -q/2 (reversed)."""

    P: np.ndarray
    L: np.ndarray
    H: np.ndarray
    T: np.ndarray
    Upsilon2: np.ndarray
    curve: CurveModel


def _sym_get(values: dict, a: int, b: int):
    if (a, b) in values:
        return values[(a, b)]
    if (b, a) in values:
        return values[(b, a)]
    raise IncompleteRecordError(f"missing two-index value ({a},{b})")


def build_H(curve: CurveModel, values: dict) -> HMatrixBundle:
    """Assemble the bordered matrices of the fundamental cubic relations.

    ``values`` maps index pairs (odd gap weights) to two-index wp-values,
    g(g+1)/2 of them, plus (1, 1, w) triples to the three-index values
    entering Y2.
    """
    if curve.family != HYPERELLIPTIC:
        raise InvalidCurveError("matrix machinery applies to hyperelliptic curves")
    L = curve.lam_get
    g = curve.genus
    size = g + 2

    def w(i: int) -> int:
        return 2 * i - 1

    P = np.zeros((size, size), dtype=complex)
    for a in range(size):
        for b in range(size):
            acc = 0j
            i, j = g + 2 - a, g - b
            if 1 <= i <= g and 1 <= j <= g:
                acc += _sym_get(values, w(i), w(j))
            i, j = g - a, g + 2 - b
            if 1 <= i <= g and 1 <= j <= g:
                acc += _sym_get(values, w(i), w(j))
            i, j = g + 1 - a, g + 1 - b
            if 1 <= i <= g and 1 <= j <= g:
                acc -= 2.0 * _sym_get(values, w(i), w(j))
            P[a, b] = acc
    Lm = np.zeros((size, size), dtype=complex)
    Lm[g, g + 1] = Lm[g + 1, g] = 1.0
    for i in range(1, g + 1):
        l4i = L(4 * i)
        Lm[g - i, g - i + 1] += l4i
        Lm[g - i + 1, g - i] += l4i
        Lm[g - i, g - i] += 2.0 * L(4 * i + 2)
    ups1 = np.array([_sym_get(values, 1, w(g - j)) for j in range(g)], dtype=complex)
    ups1_shift = np.zeros(g, dtype=complex)
    ups1_shift[1:] = ups1[:-1]
    ups3 = values.get((1, 1), _sym_get(values, 1, 1)) * ups1 + ups1_shift
    T = np.zeros((size, g), dtype=complex)
    T[:g, :] = np.eye(g)
    T[g, :] = ups1
    T[g + 1, :] = ups3
    ups2 = np.array(
        [-0.5 * _three_index(values, w(g - j)) for j in range(g)], dtype=complex
    )
    return HMatrixBundle(P=P, L=Lm, H=P - Lm, T=T, Upsilon2=ups2, curve=curve)


def _three_index(values: dict, w: int):
    key = (1, 1, w)
    if key not in values:
        raise IncompleteRecordError(f"missing three-index value (1,1,{w})")
    return values[key]


def cubic_residual(bundle: HMatrixBundle) -> np.ndarray:
    """T^t H T + 2 Y2 Y2^t, entrywise; zero on the model variety."""
    Y2 = bundle.Upsilon2.reshape(-1, 1)
    return bundle.T.T @ bundle.H @ bundle.T + 2.0 * (Y2 @ Y2.T)


def cubic_scale(bundle: HMatrixBundle) -> float:
    """Magnitude reference for the cubic residual."""
    Y2 = bundle.Upsilon2.reshape(-1, 1)
    a = np.abs(bundle.T.T) @ np.abs(bundle.H) @ np.abs(bundle.T)
    return float(np.max(a + 2.0 * np.abs(Y2 @ Y2.T)))


def h_rank_profile(bundle: HMatrixBundle) -> np.ndarray:
    """Singular values of H;  rank 3 shows as a gap after the third."""
    return np.linalg.svd(bundle.H, compute_uv=False)


def kummer_residuals(bundle: HMatrixBundle):
    """(K, defect of k_ij = q_i q_j / 2, all 2x2 minors of K).

    K entries are the bordered order-3 minors of H on rows/columns
    (i, g+1, g+2); they involve only even wp-values, so K is blind to the
    sign of q (the Kummer quotient by u -> -u).
    """
    g = bundle.curve.genus
    idx = np.array([[i, g, g + 1] for i in range(g)])  # rows (i, g+1, g+2), 0-based
    K = np.linalg.det(bundle.H[idx[:, None, :, None], idx[None, :, None, :]])
    q = -2.0 * bundle.Upsilon2[::-1]  # ascending gap order
    # k is indexed like the bordered rows: entry (i, j) pairs gap w_{i+1}
    qq = np.outer(q[::-1], q[::-1])
    kummer_defect = 0.5 * qq - K
    minors = np.einsum("ik,jl->ijkl", K, K) - np.einsum("il,jk->ijkl", K, K)
    return K, kummer_defect, minors


# -- derivative-derived two-index values for the (2,7)-curve ------------------


def two_index_values_27(curve: CurveModel, D: Divisor) -> dict:
    """All two- and three-index wp-values at a (2,7) divisor.

    The basis supplies (1, w) and (1,1,w); the non-basis even values come
    from the reduction identities with multi-index entries computed by
    jet flows:

        wp_33 = -wp_1113/2 + 3 wp_11 wp_13 + 3 wp_15
        wp_35 = -wp_1115/2 + 3 wp_11 wp_15
        wp_55 = -wp_111115/24 - 5 wp_1135/6 + 5 wp_11^2 wp_15
                + 5 wp_13 wp_15 + 3 lambda_4 wp_15
    """
    if (curve.n, curve.s) != (2, 7):
        raise InvalidCurveError("two_index_values_27 expects the (2,7)-curve")
    rec = divisor_to_basis(curve, D)
    p2, p4, p6 = rec.p[1], rec.p[3], rec.p[5]
    values = {
        (1, 1): p2,
        (1, 3): p4,
        (1, 5): p6,
        (1, 1, 1): rec.q[1],
        (1, 1, 3): rec.q[3],
        (1, 1, 5): rec.q[5],
    }
    # single-derivative slots
    _, q = basis_flow(curve, D, 3, 1)
    wp1113 = q[1].derivative_at_zero(1)
    _, q = basis_flow(curve, D, 5, 1)
    wp1115 = q[1].derivative_at_zero(1)
    wp1135 = q[3].derivative_at_zero(1)
    # third u_1-derivative of q_7 = wp_115 gives wp_111115
    _, q = basis_flow(curve, D, 1, 3)
    wp111115 = q[5].derivative_at_zero(3)
    values[(3, 3)] = -0.5 * wp1113 + 3 * p2 * p4 + 3 * p6
    values[(3, 5)] = -0.5 * wp1115 + 3 * p2 * p6
    values[(5, 5)] = (
        -wp111115 / 24.0
        - 5.0 / 6.0 * wp1135
        + 5 * p2**2 * p6
        + 5 * p4 * p6
        + 3 * curve.lam_get(4) * p6
    )
    return values


def explicit_PL_27(values: dict, curve: CurveModel) -> tuple[np.ndarray, np.ndarray]:
    """The genus-3 matrices exactly as displayed; a fixture for build_H."""
    L = curve.lam_get
    v = lambda a, b: _sym_get(values, a, b)
    P = np.array(
        [
            [0, 0, v(5, 5), v(3, 5), v(1, 5)],
            [0, -2 * v(5, 5), -v(3, 5), v(3, 3) - 2 * v(1, 5), v(1, 3)],
            [v(5, 5), -v(3, 5), 2 * v(1, 5) - 2 * v(3, 3), -v(1, 3), v(1, 1)],
            [v(3, 5), v(3, 3) - 2 * v(1, 5), -v(1, 3), -2 * v(1, 1), 0],
            [v(1, 5), v(1, 3), v(1, 1), 0, 0],
        ],
        dtype=complex,
    )
    Lm = np.array(
        [
            [2 * L(14), L(12), 0, 0, 0],
            [L(12), 2 * L(10), L(8), 0, 0],
            [0, L(8), 2 * L(6), L(4), 0],
            [0, 0, L(4), 0, 1],
            [0, 0, 0, 1, 0],
        ],
        dtype=complex,
    )
    return P, Lm
