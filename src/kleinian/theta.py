"""Riemann theta functions with characteristics, with exact derivatives.

The series

    theta[eps](v; tau) = sum_n exp( i pi (n+e')^t tau (n+e')
                                    + 2 i pi (n+e')^t (v+e) )

has terms of modulus exp(pi c^t Y c) exp(-pi (m-c)^t Y (m-c)), with
m = n + e', Y = Im tau and c = -Y^-1 Im v.  It is summed over the
lattice points of the ellipsoid (m-c)^t Y (m-c) <= R^2: the ellipsoid's
bounding box, half-width R sqrt((Y^-1)_ii) on axis i, masked by the
quadratic form.  R comes from a proven bound on the omitted terms
(_radius), so the truncation error of every requested derivative stays
below the target tolerance 1e-14 relative to the largest term.  Because each
term is an exponential, partial derivatives of any order are termwise
exact: a multi-index alpha contributes the factor prod_a (2 i pi m_a),
and a directional derivative of order k the factor (2 i pi m . w)^k.

Values can overflow double range only for far-off-lattice arguments;
callers that need wp-values reduce modulo the lattice first (the second
logarithmic derivative is blind to the exponential factors involved).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCurveError, PrecisionError


@dataclass(frozen=True)
class Characteristic:
    """Half-characteristic [eps] = (eps', eps), components usually in {0, 1/2}."""

    eps_prime: tuple
    eps: tuple

    @staticmethod
    def zero(g: int) -> "Characteristic":
        return Characteristic((0.0,) * g, (0.0,) * g)

    def vectors(self):
        return np.asarray(self.eps_prime, dtype=float), np.asarray(self.eps, dtype=float)

    def parity(self) -> int:
        """(-1)^(4 e'.e) for half-integer characteristics."""
        ep, e = self.vectors()
        return int((-1) ** int(round(4.0 * float(ep @ e))))


def _check_tau(tau: np.ndarray):
    """tau as a complex array with Im(tau)^-1, its diagonal and the rho of _radius."""
    tau = np.asarray(tau, dtype=complex)
    if tau.ndim != 2 or tau.shape[0] != tau.shape[1]:
        raise InvalidCurveError("tau must be square")
    if np.max(np.abs(tau - tau.T)) > 1e-8 * (1.0 + np.max(np.abs(tau))):
        raise InvalidCurveError("tau must be symmetric")
    Y = tau.imag
    if np.min(np.linalg.eigvalsh(Y)) <= 0:
        raise InvalidCurveError("Im(tau) must be positive definite")
    Yinv = np.linalg.inv(Y)
    diag = np.diag(Yinv)
    return tau, Yinv, diag, math.sqrt(math.pi / float(np.max(diag)))


def _radius(g: int, k: int, tol: float, rho: float, q0: float) -> float:
    """Truncation radius R of the form (m-c)^t Y (m-c) for derivatives of order <= k.

    Write Y = T^t T and x = sqrt(pi) T (m - c), so a term has modulus
    peak * exp(-|x|^2).  The x form a translate of a lattice whose nonzero
    vectors are at least rho = sqrt(pi / max_i (Y^-1)_ii) long, because
    n_i^2 <= (n^t Y n) (Y^-1)_ii; by the same inequality
    |m_i - c_i| <= |x| / rho, so for j <= k an order-j factor, |2 pi m.w|^j
    or a product of j factors |2 pi m_a| (read |w|_1 = 1 there), is at most
    (2 pi |w|_1 s)^j (1 + |x|/rho)^k with s = 1 + |c|_inf.
    Following Deconinck, Heil, Bobenko, van Hoeij & Schmies, "Computing
    Riemann theta functions", Math. Comp. 73 (2004), the balls of radius
    rho/2 about the points are disjoint, and f(t) = (1 + t/rho)^k e^(-t^2)
    decreases for t >= sqrt(k/2); comparing each omitted term with f over
    its ball, with a = R_x - rho >= sqrt(k/2) and n = max(g + k - 2, 0),

        sum_{|x| > R_x} f(|x|) <= (g/2) (2/rho)^g (a + rho/2)^(g-1)
            (1 + a/rho)^k e^(-a^2) / (a (1 - n / (2 a^2))).

    R = R_x / sqrt(pi) makes this at most tol exp(-pi q0), where q0 is the
    form at the lattice point nearest c coordinatewise, so peak exp(-pi q0)
    bounds the largest term from below: the omitted part of each order-j
    derivative is below tol * largest term * (2 pi |w|_1 s)^j.
    """
    n = max(g + k - 2, 0)
    target = math.log(0.5 * g / tol) + g * math.log(2.0 / rho) + math.pi * q0
    a = math.sqrt(max(0.5 * k, 0.5 * n + 1.0))
    while True:
        need = (
            target
            + (g - 1) * math.log(a + 0.5 * rho)
            + k * math.log1p(a / rho)
            - math.log(a)
            - math.log1p(-n / (2.0 * a * a))
        )
        if a * a >= need:
            return (a + rho) / math.sqrt(math.pi)
        a = math.sqrt(need + 0.01)


def _lattice(v, form, char, tol, k):
    """Points m = n + eps' of the truncation ellipsoid for derivatives of order <= k."""
    tau, Yinv, diag, rho = form
    g = tau.shape[0]
    Y = tau.imag
    ep, e = (char or Characteristic.zero(g)).vectors()
    c = -Yinv @ np.asarray(v, dtype=complex).imag
    d0 = np.round(c - ep) + ep - c
    R = _radius(g, k, tol, rho, float(d0 @ Y @ d0))
    half = R * np.sqrt(diag)
    if np.max(half) > 120.0:
        raise PrecisionError(
            f"theta truncation box half-width {np.max(half):.1f} too large (ill-conditioned tau)"
        )
    los = np.ceil(c - ep - half).astype(int)
    his = np.floor(c - ep + half).astype(int)
    m = np.indices(his - los + 1).reshape(g, -1) + (los + ep)[:, None]
    d = m - c[:, None]
    return m[:, np.sum(d * (Y @ d), axis=0) <= R * R], e


def _terms(v, form, char, tol, k):
    """Lattice m, shift = max Re(exponent), exp(exponent - shift); form = _check_tau(tau).

    k is the highest derivative order the caller sums, which sizes the lattice.
    """
    m, e = _lattice(v, form, char, tol, k)
    v = np.asarray(v, dtype=complex)
    quad = 1j * np.pi * np.einsum("ik,ij,jk->k", m, form[0], m)
    lin = 2j * np.pi * (m.T @ (v + e))
    expo = quad + lin
    shift = float(np.max(expo.real))
    return m, shift, np.exp(expo - shift)


def theta_derivatives(v, tau, orders, char: Characteristic | None = None) -> dict:
    """Partial derivatives for every multi-index in ``orders``.

    A multi-index is a tuple of coordinate positions, e.g. () for the
    value, (0,) for d/dv_0, (0, 1, 1) for the third-order mixed partial.
    All requested values come from a single lattice pass.
    """
    k = max((len(alpha) for alpha in orders), default=0)
    m, shift, base = _terms(v, _check_tau(tau), char, 1e-14, k)
    scale = np.exp(shift)
    out = {}
    for alpha in orders:
        factor = np.ones(m.shape[1], dtype=complex)
        for a in alpha:
            factor = factor * (2j * np.pi * m[a])
        out[tuple(alpha)] = complex(scale * np.sum(base * factor))
    return out


def theta_directional(
    v, tau, direction, max_order: int, char: Characteristic | None = None
) -> np.ndarray:
    """[theta, d theta/dt, ..., d^k theta/dt^k] along v + t*direction at t=0."""
    m, shift, base = _terms(v, _check_tau(tau), char, 1e-14, max_order)
    w = np.asarray(direction, dtype=complex)
    dots = 2j * np.pi * (m.T @ w)
    out = np.empty(max_order + 1, dtype=complex)
    factor = np.ones_like(dots)
    for k in range(max_order + 1):
        out[k] = np.exp(shift) * np.sum(base * factor)
        factor = factor * dots
    return out


# -- logarithmic derivatives ---------------------------------------------------


def _log_derivative(base, F, cols=None, moments=None) -> complex:
    """Joint cumulant of the columns cols (default all) of F under the lattice weights base.

    base holds the terms of one _terms pass and column a of F the per-term
    factors 2 i pi m.w_a of a direction w_a, so this is the mixed partial of
    log theta along all the columns.  With the moments
    mu(S) = sum base prod_(a in S) F_a / sum base over the column subsets S
    (bitmasks, each product extending the one without S's lowest bit),
    kappa(S) = mu(S) - sum kappa(T) mu(S - T) over the proper subsets T of
    S that contain its lowest column.  ``moments`` maps a product chain,
    the columns of F in the order they multiply base, to the product and
    its sum, () to base and sum base; calls at one lattice pass that share
    it form each product once, with the same bits in every call.
    """
    cols = range(F.shape[1]) if cols is None else cols
    moments = {(): (base, np.sum(base))} if moments is None else moments
    t0, chains, mu, kappa = moments[()][1], [()], [1.0], [0.0]
    for S in range(1, 1 << len(cols)):
        low = S & -S
        rest = S ^ low
        chain = chains[rest] + (cols[low.bit_length() - 1],)
        if chain not in moments:
            prod = moments[chains[rest]][0] * F[:, chain[-1]]
            moments[chain] = (prod, np.sum(prod))
        chains.append(chain)
        mu.append(moments[chain][1] / t0)
        acc, R = mu[S], 0
        while R != rest:  # the proper subsets R of rest, T = low | R
            acc -= kappa[low | R] * mu[rest ^ R]
            R = (R - rest) & rest
        kappa.append(acc)
    return kappa[-1]


def log_theta_derivatives(v, tau, orders, char=None) -> dict:
    """Partials of log theta[char] for every multi-index in ``orders``.

    One lattice pass at the highest order; each partial is the joint
    cumulant (_log_derivative) of the columns 2 i pi m_a, a in the index.
    """
    k = max((len(alpha) for alpha in orders), default=0)
    m, shift, base = _terms(v, _check_tau(tau), char, 1e-14, k)
    t0 = np.sum(base)
    if abs(t0) == 0:
        raise PrecisionError("theta vanishes: logarithmic derivatives undefined")
    F, moments = 2j * np.pi * m.T, {(): (base, t0)}
    return {
        tuple(sorted(a)): _log_derivative(base, F, a, moments) if a else np.log(np.exp(shift) * t0)
        for a in orders
    }
