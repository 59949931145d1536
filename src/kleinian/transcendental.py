"""Analytic side for hyperelliptic curves: periods, Abel map, wp from theta.

Periods come from the chain of the 2g+1 finite branch points: a simple
polyline through them (no two edges cross) of maximal clearance.  The
loop around edge j is twice the edge integral on one sheet; with
x = m + h t the edge integral is a Gauss-Chebyshev sum over Chebyshev
nodes, its count set from the Bernstein radius of the other branch
points, and sqrt(Q) (Q = P / ((x - c_j)(x - c_j+1))) is continued along
it by sign tracking (_continue_sqrt, which every sampled path in this
module uses; the 2g edges are its segments in one batched pass).  The
sheet of each edge follows from the last one by going round their shared
branch point on the left of the chain, so consecutive loops meet once and
the intersection matrix is the tridiagonal chain matrix.  Fixed integer
rows of it give canonical cycles (_canonical_rows), Im(tau) positive
definite is checked, and the Legendre relation is the exit gate
certifying the whole construction (chain, sheets, quadrature and the
associated second-kind numerators together).

The Abel map (base point infinity) starts from the branch points, whose
images are half-periods: sums of half edge integrals, snapped to the
half-period lattice, which certifies them.  A point is reached by one leg
from the branch point of widest Bernstein radius, under the chain edges'
node-count rule, with its sheet fixed by the point's y; the legs of a
divisor are one batched pass, as the chain edges are.

wp-values are logarithmic derivatives of theta(omega^-1 u) along u, with
the Riemann-constant characteristic (the sum of the alternate branch
points' half-periods, certified by the weighted vanishing order of theta
with that one characteristic): joint cumulants of the columns of
2 i pi m^t omega^-1 over the terms and moments of one theta pass per argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .curves import HYPERELLIPTIC, CurveModel, y_split
from .divisors import Divisor
from .errors import (
    CharacteristicSearchError,
    DegenerateCurveError,
    InvalidCurveError,
    PrecisionError,
    ThetaDivisorError,
)
from .roots import newton_polish
from .theta import (
    Characteristic,
    _check_tau,
    _log_derivative,
    _terms,
)

LEGENDRE_TOL = 1e-8
_EDGE_EPS = 1e-16  # target of the Bernstein bound on each chain edge
_EDGE_MARGIN = 8  # nodes added to the Bernstein count
_MAX_EDGE_NODES = 1 << 14
_SNAP_TOL = 1e-8  # largest non-integrality of 2 * the branch images' lattice coordinates
_VANISH_RATIO = 1e-5  # largest certified theta derivative below the vanishing order
_NONZERO_RATIO = 1e-2  # smallest certified theta derivative at the vanishing order


def _require_hyperelliptic(curve: CurveModel):
    if curve.family != HYPERELLIPTIC:
        raise InvalidCurveError("the analytic side supports hyperelliptic curves only")


def x_polynomial(curve: CurveModel) -> np.ndarray:
    """Coefficients (descending) of P with f = -y^2 + P(x)."""
    _require_hyperelliptic(curve)
    return y_split(curve.coeffs)[0]


def branch_points(curve: CurveModel) -> np.ndarray:
    """The 2g+1 finite branch points, ordered lexicographically by (Re, Im).

    Two points closer than 1e-8 (1 + max |e|) raise DegenerateCurveError.
    The scale is global on purpose.  The points feed only the period
    chain, and _chain_order requires a clearance of 1e-6 (1 + max |e|).
    The clearance is at most the least pair distance, since the chain
    edge that leaves one point of a pair passes the other.  So a pair
    closer than the global scale could not be chained even where it is
    distinct at its own scale; this test only names it a collision
    rather than a cluster.  The points are found once per curve object and
    kept, read-only, in its ``__dict__``, which ``repr`` and ``==`` do not
    read; a raise is not kept.
    """
    if "_branch_points" not in vars(curve):
        c = x_polynomial(curve)
        r = newton_polish(c, np.roots(c))
        r = r[np.lexsort((r.imag, r.real))]
        scale = 1.0 + float(np.max(np.abs(r)))
        pairs = np.argwhere(np.triu(np.abs(r[:, None] - r) < 1e-8 * scale, 1))
        if len(pairs):
            raise DegenerateCurveError(
                f"branch points collide at {r[pairs[0, 0]]:.6g}: curve is degenerate"
            )
        r.flags.writeable = False
        vars(curve)["_branch_points"] = r
    return vars(curve)["_branch_points"]


@dataclass
class PeriodData:
    """First/second-kind period matrices and derived normalized data.

    ``images`` (g x (2g+1)) are the Abel images of the branch points in
    ``chain`` order: half-periods (1/2) [omega | omega'] n, n in {0, 1}^2g.
    ``char`` (the Riemann characteristic) is filled on first use, and
    ``omega_inv`` and ``lattice``, [omega | omega'] with its real form, are
    computed once (``dataclasses.replace`` starts afresh).
    ``quadrature`` records the Chebyshev nodes and Bernstein radius of each
    chain edge, the chain's clearance and, as ``snap``, the largest distance
    of 2 * the images' lattice coordinates from integers (not serialized).
    ``theta_form`` is ``_check_tau(tau)``, computed once for every theta
    pass on this data.  ``theta_memo`` keeps the one theta pass of the last
    ``wp_theta`` argument, at order 4: ((char, u.tobytes()), F, moments),
    the factors F = 2 i pi m^t omega^-1 of the lattice terms, one column per
    u-direction, and _log_derivative's table from () to the terms and their
    sum and from each product chain formed so far to its product and sum.
    """

    curve: CurveModel
    omega: np.ndarray
    omega_prime: np.ndarray
    eta: np.ndarray
    eta_prime: np.ndarray
    tau: np.ndarray
    kappa: np.ndarray
    legendre_residual: float
    branch: np.ndarray
    chain: np.ndarray = field(repr=False, compare=False)
    images: np.ndarray = field(repr=False, compare=False)
    char: Optional[Characteristic] = None
    quadrature: Optional[dict] = field(default=None, repr=False, compare=False)
    theta_memo: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def omega_inv(self) -> np.ndarray:
        return np.linalg.inv(self.omega)

    @cached_property
    def chain_diff(self) -> tuple:
        """c_m - c_k and c_k - c_m at [k, m != k] over the chain c (n x n-1 each)."""
        M, off = self.chain - self.chain[:, None], ~np.eye(len(self.chain), dtype=bool)
        return M[off].reshape(len(M), -1), M.T[off].reshape(len(M), -1)

    @cached_property
    def lattice(self) -> tuple:
        """L = [omega | omega'] and its real form [Re L; Im L] (read-only)."""
        L = np.hstack([self.omega, self.omega_prime])
        LR = np.vstack([L.real, L.imag])
        L.setflags(write=False)
        LR.setflags(write=False)
        return L, LR

    @cached_property
    def theta_form(self) -> tuple:
        return _check_tau(self.tau)


# -- contours ------------------------------------------------------------------


def _nn_walks(e: np.ndarray) -> np.ndarray:
    """Nearest-neighbour walks through e, one per start (the lowest index among equals)."""
    n = len(e)
    d = e[:, None] - e
    dist = np.hypot(d.real, d.imag)  # abs as for one complex scalar (libm hypot)
    walks, seen = [np.arange(n)], np.eye(n, dtype=bool)
    for _ in range(n - 1):
        walks.append(np.argmin(np.where(seen, np.inf, dist[walks[-1]]), axis=1))
        seen[np.arange(n), walks[-1]] = True
    return np.stack(walks, axis=1)


@lru_cache(maxsize=None)
def _edge_index(n: int) -> tuple:
    """Per edge j -> j+1 of a path through n points, the others; the non-adjacent edge pairs."""
    off = np.array([np.delete(np.arange(n), [j, j + 1]) for j in range(n - 1)])
    pairs = np.triu_indices(n - 1, 2)
    for a in (off, *pairs):
        a.flags.writeable = False
    return off, pairs


def _segment_distance(a, b: complex, pts: np.ndarray):
    """Distance from the segment a -> b to the nearest of pts (inf if none);
    segments of shape (..., 1) against pts (..., m) give one distance each."""
    if len(pts) == 0:
        return np.inf
    u = b - a
    # abs(u) ** 2 as for one complex scalar (libm hypot and pow), also elementwise
    L2 = np.float_power(np.hypot(u.real, u.imag), 2)
    t = np.clip(((pts - a) * np.conj(u)).real / L2, 0.0, 1.0)
    return np.min(np.abs(pts - (a + t * u)), axis=-1)


def _chain_order(e: np.ndarray):
    """Simple Hamiltonian path through the branch points with maximal clearance.

    Returns the order and its clearance, the least distance from a chain
    edge to a branch point off it.  Each edge is a quadrature path, so the
    other branch points must stay well away from it, and the loops around
    the edges meet only where consecutive edges share a branch point, so
    no two edges may cross.  Candidates are nearest-neighbour walks from
    every start, which may cross themselves, plus directional sweeps,
    which never do; symmetric configurations (a root at the midpoint of a
    pair) are what the sweeps are for.
    """
    n = len(e)
    sweeps = np.exp(-1j * np.array([0.0, 0.4, 0.8, 1.2, 1.6]))[:, None]
    paths = np.vstack([_nn_walks(e), np.argsort((e * sweeps).real, axis=1)])
    a, b = e[paths[:, :-1]], e[paths[:, 1:]]  # (candidates, edges)
    off, (i, k) = _edge_index(n)
    clearance = np.min(_segment_distance(a[..., None], b[..., None], e[paths[:, off]]), axis=1)

    def side(p, q, r):  # sign of the turn p -> q -> r
        return np.sign(((q - p) * np.conj(r - p)).imag)

    crossed = (side(a[:, i], b[:, i], a[:, k]) * side(a[:, i], b[:, i], b[:, k]) < 0) & (
        side(a[:, k], b[:, k], a[:, i]) * side(a[:, k], b[:, k], b[:, i]) < 0
    )
    clearance[np.any(crossed, axis=1)] = -1.0
    best = int(np.argmax(clearance))  # the first candidate of maximal clearance
    scale = 1.0 + float(np.max(np.abs(e)))
    if clearance[best] < 1e-6 * scale:
        raise PrecisionError("branch points too clustered to chain safely")
    return paths[best], float(clearance[best])


def _continue_sqrt(w2: np.ndarray, y0, bounds) -> np.ndarray:
    """y = sqrt(w2) continued along paths on which y^2 takes the values w2,
    one per segment w2[bounds[k]:bounds[k+1]], each from the sheet nearest
    y0[k], its sign flipped wherever the principal root jumps to the other
    sheet between consecutive nodes; PrecisionError if such a step is ambiguous."""
    w, starts, y0 = np.sqrt(w2), np.asarray(bounds[:-1]), np.asarray(y0)
    # in a segment |y_k -+ y_k-1| are A, B in some order; s0 cancels earlier flips
    A, B = np.abs(w[1:] - w[:-1]), np.abs(w[1:] + w[:-1])
    sign = np.empty(len(w))
    sign[0] = 1.0
    np.cumprod(np.where(A > B, -1.0, 1.0), out=sign[1:])
    w0, s0 = w[starts], sign[starts]
    start = np.where(np.abs(w0 - y0) <= np.abs(w0 + y0), s0, -s0)
    step = np.minimum(A, B) > 0.7 * np.maximum(A, B)
    step[starts[1:] - 1] = False  # no step across a segment boundary
    if step.any():
        raise PrecisionError("sheet continuation along a sampled path is ambiguous")
    return np.repeat(start, np.subtract(bounds[1:], starts)) * sign * w


@lru_cache(maxsize=None)
def _canonical_rows(g: int) -> tuple:
    """Integer columns (a_1..a_g, b_1..b_g) over the chain loops with pairing
    <a_i, b_j> = delta_ij in the tridiagonal chain matrix (a_i the sum of the
    even loops 0, 2, .., 2i, b_i the odd loop 2i+1), and the Legendre form J."""
    rows = np.zeros((2 * g, 2 * g), dtype=int)
    rows[0::2, :g] = np.triu(np.ones((g, g), int))
    rows[1::2, g:] = np.eye(g, dtype=int)
    J = np.block([[np.zeros((g, g)), -np.eye(g)], [np.eye(g), np.zeros((g, g))]])
    rows.flags.writeable = J.flags.writeable = False
    return rows, J


def _bernstein_radius(z: np.ndarray):
    """Radius of the Bernstein ellipse of [-1, 1] through the nearest of z (last axis).

    z +- w, w = sqrt(z - 1) sqrt(z + 1), are the two roots of r + 1/r = 2z,
    and the radius is the larger modulus: for real z < -1 with Im z = -0,
    z - 1 and z + 1 fall on opposite sides of the cut and z + w is the
    smaller one.
    """
    w = np.sqrt(z - 1.0) * np.sqrt(z + 1.0)
    return np.min(np.maximum(np.abs(z + w), np.abs(z - w)), axis=-1)


def _node_count(rho: float, path: str) -> int:
    """Nodes that bring a rule on a path of Bernstein radius rho below
    _EDGE_EPS (see _chain_homology); PrecisionError above _MAX_EDGE_NODES."""
    N = np.ceil(np.log(1.0 / _EDGE_EPS) / np.log(rho)) + _EDGE_MARGIN if rho > 1.0 else np.inf
    if not N <= _MAX_EDGE_NODES:
        raise PrecisionError(f"{path} needs {N:.0f} nodes (Bernstein radius {rho:.6g})")
    return int(N)


def _edge_sqrt(c: np.ndarray, others: np.ndarray, nodes: list):
    """Nodes x of each edge c_j -> c_j+1 of a chain as segments of one array,
    (c_j, nodes[j] Chebyshev nodes, c_j+1) from starts[j] to ends[j], and
    sqrt(prod(x - others[j])) continued over each from its root at c_j.

    Each factor x - c is taken from the nearer end, (c_j - c) + h (1 + t) or
    (c_j+1 - c) - h (1 - t), with 1 -+ t from half-angle sines, so that a
    branch point just off an end keeps its relative distance to the nodes there.
    """
    seg = np.repeat(np.arange(len(nodes)), np.add(nodes, 2))  # the edge of each node
    bounds = np.searchsorted(seg, np.arange(len(nodes) + 1))  # edge j: bounds[j] to bounds[j+1]
    starts, ends = bounds[:-1], bounds[1:] - 1
    th = (np.arange(len(seg)) - starts[seg] - 0.5) * np.pi / np.take(nodes, seg)
    lo = 2.0 * np.sin(0.5 * th) ** 2  # 1 + t over [-1, t, +1]
    hi = 2.0 * np.cos(0.5 * th) ** 2  # 1 - t
    lo[starts], lo[ends], hi[starts], hi[ends] = 0.0, 2.0, 2.0, 0.0
    near_a = lo <= hi
    a, b, h = c[:-1][seg], c[1:][seg], (0.5 * (c[1:] - c[:-1]))[seg]
    Q = np.prod(np.where(near_a[:, None], (c[:-1, None] - others)[seg] + (h * lo)[:, None],
                         (c[1:, None] - others)[seg] - (h * hi)[:, None]), axis=1)
    q = _continue_sqrt(Q, np.sqrt(Q[starts]), bounds)
    return np.where(near_a, a + h * lo, b - h * hi), q, starts, ends


def _junction_sign(h0: np.ndarray, q0: np.ndarray, h1: np.ndarray, q1: np.ndarray) -> np.ndarray:
    """Sheet of each next edge relative to the last, joined round their common branch point.

    h0, q0: half-lengths and end values of sqrt(Q) of the edges ending there;
    h1, q1: those of the edges starting there.  Near the branch point
    y ~ d sqrt|h| sqrt(Q) times the root of the distance on either edge
    (d = h/|h|); the clockwise arc, which keeps the left of the chain,
    turns sqrt(x - c) by half its angle.
    """
    d0, d1 = h0 / np.abs(h0), h1 / np.abs(h1)
    dphi = -((np.angle(-d0) - np.angle(d1)) % (2.0 * np.pi))
    ratio = d0 * np.sqrt(np.abs(h0)) * q0 * np.exp(0.5j * dphi) / (d1 * np.sqrt(np.abs(h1)) * q1)
    bad = np.minimum(np.abs(ratio - 1.0), np.abs(ratio + 1.0)) > 1e-6
    if np.any(bad):
        raise PrecisionError(
            f"sheets of consecutive chain edges do not join (ratio {ratio[np.argmax(bad)]:.3g})"
        )
    return np.sign(ratio.real)


def _chain_homology(curve: CurveModel, e: np.ndarray):
    """Integrals (2g x 2g) of (du, dr) over the loops around the chain edges,
    the chain c_0..c_2g, and the quadrature diagnostics.

    Edge j runs from c_j to c_j+1 as x = m + h t, where P = h^2 (t^2 - 1) Q
    and y = sigma i h sqrt(1 - t^2) sqrt(Q), so int F dx / (-2y) over the
    edge is (i sigma / 2) int F / sqrt(Q) dt / sqrt(1 - t^2): Gauss-Chebyshev
    with N nodes, and the loop is twice the edge.  F / sqrt(Q) is analytic
    inside the Bernstein ellipse through the nearest other branch point,
    of radius rho; the N-node rule errs by O(r^-2N) times the size of the
    integrand on the ellipse of radius r, so r = sqrt(rho) and
    N = log(1 / _EDGE_EPS) / log(rho) (+ _EDGE_MARGIN) bring it below
    _EDGE_EPS in those units.  Consecutive loops meet once, with
    intersection number +1, and the others not at all.

    Every edge has 2g - 1 other branch points, so the edges are one batched
    pass (_edge_sqrt); each edge's sum is its own np.sum and i sigma pi / N
    is rounded as a scalar, so each column has the bits of a loop over edges.
    """
    g = curve.genus
    order, clearance = _chain_order(e)
    c = e[order]
    others = c[_edge_index(len(c))[0]]  # (2g, 2g - 1)
    m, h = 0.5 * (c[:-1] + c[1:]), 0.5 * (c[1:] - c[:-1])
    rho = _bernstein_radius((others - m[:, None]) / h[:, None])
    nodes = [_node_count(r, "chain edge") for r in rho]
    x, q, starts, ends = _edge_sqrt(c, others, nodes)
    sigma = np.cumprod(np.append(1.0, _junction_sign(h[:-1], q[ends[:-1]], h[1:], q[starts[1:]])))
    x, q = np.delete(x, np.r_[starts, ends]), np.delete(q, np.r_[starts, ends])
    rho_coeffs = [y_split(table)[0] for table in curve.second_kind_numerators()]
    F = np.array([x ** (g - 1 - i) for i in range(g)] + [np.polyval(r, x) for r in rho_coeffs]) / q
    sums = np.stack([np.sum(b, axis=1) for b in np.split(F, np.cumsum(nodes)[:-1], 1)], axis=1)
    # i sigma pi / N with a +0 real part, as the complex scalar i * sigma * pi / N
    raw = (1j * (sigma * np.pi / np.array(nodes)) + 0.0) * sums
    return raw, c, {"nodes": nodes, "bernstein": rho.tolist(), "clearance": clearance}


def _lattice_coords(LR: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Real coordinates of u (a vector or columns) in the lattice L = [omega | omega'],
    given as its real form LR = [Re L; Im L]."""
    return np.linalg.solve(LR, np.concatenate([u.real, u.imag]))


def period_matrices(curve: CurveModel, best_effort_genus3: bool = False) -> PeriodData:
    """First and second kind period matrices over a canonical homology basis.

    The returned data passes the Legendre relation below LEGENDRE_TOL and
    has symmetric tau with positive definite imaginary part; a gate that
    fails (omega singular, tau not symmetric, Im tau not positive definite,
    Legendre, or the branch images off the half-periods) raises a
    PrecisionError naming it rather than returning doubtful matrices.  The
    cycles of _canonical_rows are the only ones tried: swapping a and b
    flips the sign of their intersection pairing, so the swapped matrices
    miss the Legendre relation by 4 pi wherever the canonical ones meet it.
    """
    _require_hyperelliptic(curve)
    g = curve.genus
    if g > 3 or (g == 3 and not best_effort_genus3):
        if g > 3:
            raise InvalidCurveError("periods implemented for genus <= 3")
        raise InvalidCurveError("genus 3 periods are best-effort; pass best_effort_genus3=True")
    e = branch_points(curve)
    raw, chain, quadrature = _chain_homology(curve, e)
    rows, J = _canonical_rows(g)
    Omega = raw @ rows
    omega, omega_p, eta, eta_p = (Omega[i:i + g, k:k + g].copy() for i in (0, g) for k in (0, g))
    try:
        tau = np.linalg.solve(omega, omega_p)
    except np.linalg.LinAlgError:
        raise PrecisionError("omega is singular; quadrature suspect") from None
    asym = np.max(np.abs(tau - tau.T))
    if asym > 1e-8 * (1.0 + np.max(np.abs(tau))):
        raise PrecisionError(f"tau is not symmetric (defect {asym:.2e}); quadrature suspect")
    tau = 0.5 * (tau + tau.T)
    if np.min(np.linalg.eigvalsh(tau.imag)) <= 0:
        raise PrecisionError("Im tau is not positive definite; quadrature suspect")
    resid = float(np.max(np.abs(Omega.T @ J @ Omega - 2j * np.pi * J)))
    if resid > LEGENDRE_TOL * max(1.0, float(np.max(np.abs(Omega))) ** 2):
        raise PrecisionError(f"Legendre relation fails by {resid:.2e}; quadrature suspect")
    # U[c_k+1] = U[c_k] + half the loop round edge k, and sum_k U[c_k] = 0
    # (div y = sum_k c_k - (2g+1) inf) with 2 U[c_0] in the lattice
    S = np.concatenate([np.zeros((g, 1)), np.cumsum(0.5 * raw[:g], axis=1)], axis=1)
    L = Omega[:g]
    twice = 2.0 * _lattice_coords(np.vstack([L.real, L.imag]), S + np.sum(S, axis=1, keepdims=True))
    quadrature["snap"] = snap = float(np.max(np.abs(twice - np.round(twice))))
    if snap > _SNAP_TOL:
        raise PrecisionError(f"branch images miss the half-periods by {snap:.2e}")
    pd = PeriodData(
        curve=curve, omega=omega, omega_prime=omega_p, eta=eta, eta_prime=eta_p, tau=tau,
        kappa=None, legendre_residual=resid, branch=e, chain=chain,
        images=L @ (0.5 * (np.round(twice) % 2.0)), quadrature=quadrature,
    )
    pd.kappa = eta @ pd.omega_inv
    return pd


# -- Riemann constants ---------------------------------------------------------


def riemann_characteristic(pd: PeriodData) -> Characteristic:
    """The characteristic of the vector of Riemann constants, certified.

    With base point infinity the vector of Riemann constants is the
    half-period K = sum of U[c_k] over the odd chain positions
    k = 1, 3, .., 2g-1 (Mumford, Tata Lectures on Theta II, IIIa 5), and
    2 K = [omega | omega'] (2e, 2e') gives [K] = (e', e).  One theta pass at
    v = 0 certifies it: along the u_1 line every directional derivative of
    theta[K] below order d = (n^2-1)(s^2-1)/24 vanishes and the order-d one
    does not, each measured against the sum of the absolute values of its
    lattice terms (at most _VANISH_RATIO, at least _NONZERO_RATIO).
    """
    if pd.char is not None:
        return pd.char
    g = pd.curve.genus
    K = np.sum(pd.images[:, 1 : 2 * g : 2], axis=1)
    twice = 2.0 * _lattice_coords(pd.lattice[1], K)
    half = [0.5 * (int(b) % 2) for b in np.round(twice)]
    char = Characteristic(tuple(half[g:]), tuple(half[:g]))
    d = -pd.curve.sigma_weight()
    m, _, base = _terms(np.zeros(g), pd.theta_form, char, 1e-14, d)
    terms = base[:, None] * np.vander(2j * np.pi * (m.T @ pd.omega_inv[:, 0]), d + 1, True)
    ratio = np.abs(np.sum(terms, axis=0)) / np.sum(np.abs(terms), axis=0)
    if np.max(ratio[:d]) > _VANISH_RATIO or ratio[d] < _NONZERO_RATIO:
        raise CharacteristicSearchError(
            f"{char} fails its certificate: orders < {d} reach {np.max(ratio[:d]):.2e}, "
            f"order {d} is {ratio[d]:.2e}"
        )
    pd.char = char
    return char


# -- Abel map ------------------------------------------------------------------


@lru_cache(maxsize=64)
def _leg_rule(N: int):
    """Fejer's first rule on [0, 1]: nodes s = sin^2(th / 2) at the chain
    edges' Chebyshev angles th, to full relative precision next to s = 0
    (where a far leg's integrand lies), and weights; it errs by O(rho^-N).

    The weights are the DCT-III of the Chebyshev moments m_k, taken as one
    FFT of length 2N (J. Waldvogel, "Fast construction of the Fejer and
    Clenshaw-Curtis quadrature rules", BIT 46, 2006):
    w_j = (1/N) sum_k c_k m_k cos(k th_j), c = (1, 2, 2, ...)."""
    k = np.arange(N)
    cm = np.zeros(N)
    cm[0] = 1.0
    cm[2::2] = -2.0 / (k[2::2] ** 2 - 1.0)
    w = 2.0 * np.fft.ifft(cm * np.exp(0.5j * np.pi * k / N), 2 * N)[:N].real
    return np.sin((k + 0.5) * np.pi / (2 * N)) ** 2, w


def abel(curve: CurveModel, D: Divisor, pd: PeriodData) -> np.ndarray:
    """Abel image of a divisor with basepoint at infinity, in the centred
    cell of the period lattice.

    A point (x, y) is reached from the half-period pd.images[:, k] of the
    branch point c_k of widest Bernstein radius over x = c_k + d s^2
    (d = x - c_k), where du_i / ds = -sqrt(d) x^(g-1-i) / sqrt(Q), Q the
    product of x - c_m over the other branch points, is analytic.  A
    branch point adds its half-period; the other points' legs are one
    batched pass (_leg_sums) with the bits of a leg taken alone."""
    _require_hyperelliptic(curve)
    on = D.xs()[:, None] == pd.chain
    branch, leg = np.argmax(on, axis=1).tolist(), np.flatnonzero(~np.any(on, axis=1))
    sums = iter(_leg_sums(pd, D, leg) if len(leg) else [])
    total = np.zeros(curve.genus, dtype=complex)
    for i, b in enumerate(branch):
        total += pd.images[:, b] if on[i, b] else next(sums)
    L, LR = pd.lattice
    return total - L @ np.round(_lattice_coords(LR, total))


def _leg_sums(pd: PeriodData, D: Divisor, leg: np.ndarray) -> list:
    """pd.images[:, k] plus the leg integral for each point D.points[leg]: the
    legs are segments of one array, from s = 1, where y fixes the sheet, down
    the nodes; a leg's du is copied back to rising s for its own product with w."""
    g, c = pd.curve.genus, pd.chain
    diff, back = pd.chain_diff
    x = D.xs()[leg]
    z = np.sqrt(diff / (x[:, None] - c)[:, :, None])  # s^2 at the singularities of each leg
    rho = _bernstein_radius(np.concatenate([2.0 * z - 1.0, -2.0 * z - 1.0], axis=2))
    k = np.argmax(rho, axis=1)
    rules = [_leg_rule(_node_count(rho[p, kp], "Abel leg")) for p, kp in enumerate(k)]
    size = [len(w) + 1 for _, w in rules]
    bounds, seg = np.cumsum([0] + size), np.repeat(np.arange(len(leg)), size)
    s2 = np.concatenate([v for s, _ in rules for v in ([1.0], s[::-1])]) ** 2
    d = x - c[k]
    root = np.sqrt(d)
    ds2 = d[seg] * s2
    Q = np.prod(back[k][seg] + ds2[:, None], axis=1)
    q = _continue_sqrt(Q, [D.points[i].y / root[p] for p, i in enumerate(leg)], bounds)
    xn = c[k][seg] + ds2
    du = np.array([xn ** (g - 1 - i) for i in range(g)]) / q
    return [pd.images[:, k[p]] - root[p] * (np.ascontiguousarray(du[:, b - 1:a:-1]) @ w)
            for p, (a, b, (_, w)) in enumerate(zip(bounds, bounds[1:], rules))]


# -- wp from theta ---------------------------------------------------------------


def wp_theta(pd: PeriodData, char: Characteristic, u, indices) -> complex:
    """Multi-index wp-value at u from logarithmic theta derivatives.

    ``indices`` is a tuple of 2 to 4 gap weights, e.g. (1, 3) or
    (1, 1, 5); the value is minus the partial of log theta[char](omega^-1 u)
    along those u-coordinates, the joint cumulant of the matching columns
    of 2 i pi m^t omega^-1 (_log_derivative).  The kappa correction applies
    to the 2-index values and the quadratic exponential drops out of all
    higher ones.  Calls at one (char, u) share one theta pass at order 4
    and its moments (``pd.theta_memo``, replaced when the argument changes).
    """
    gaps = list(pd.curve.gaps)
    try:
        pos = [gaps.index(wi) for wi in indices]
    except ValueError as exc:
        raise InvalidCurveError(f"indices {indices} must be gap weights {gaps}") from exc
    if not 2 <= len(pos) <= 4:
        raise InvalidCurveError("wp indices must have between 2 and 4 entries")
    u = np.asarray(u, dtype=complex)
    key = (char, u.tobytes())
    if pd.theta_memo is None or pd.theta_memo[0] != key:
        m, _, base = _terms(pd.omega_inv @ u, pd.theta_form, char, 1e-14, 4)
        pd.theta_memo = (key, 2j * np.pi * (m.T @ pd.omega_inv), {(): (base, np.sum(base))})
    _, F, moments = pd.theta_memo
    base, t0 = moments[()]
    if abs(t0) < 1e-8:  # |theta| in units of its largest lattice term
        raise ThetaDivisorError("u lies on (or too near) the theta divisor")
    val = -_log_derivative(base, F, pos, moments)
    if len(pos) == 2:
        val += pd.kappa[pos[0], pos[1]]
    return complex(val)
