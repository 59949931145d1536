import importlib
import math
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kleinian.errors import InvalidCurveError, PrecisionError
from kleinian.theta import (
    Characteristic,
    _check_tau,
    _lattice,
    _log_derivative,
    _radius,
    _terms,
    log_theta_derivatives,
    theta_derivatives,
    theta_directional,
)
from kleinian.transcendental import wp_theta
from test_transcendental import _bridge_setup, all_half_characteristics

TAU1 = np.array([[1j]])


def theta(v, tau, char=None):
    """theta[char](v; tau): the value alone, as theta_derivatives gives it."""
    return theta_derivatives(v, tau, [()], char)[()]


# Period matrices tau, u_1 directions w and vanishing-order targets d of
# fixed hyperelliptic curves, rounded to 6 digits: genus 1, genus 2, genus 2
# with two branch points 1e-2 apart, and genus 3.
FIXED_PERIODS = {
    "g1": (np.array([[-0.420843 + 1.061161j]]), np.array([0.19354 - 0.359598j]), 1),
    "g2": (
        np.array([[-0.062264 + 1.421154j, -0.20747 - 0.753939j],
                  [-0.20747 - 0.753939j, -0.223837 + 1.069229j]]),
        np.array([-0.24901 + 0.068417j, -0.036485 - 0.334541j]),
        3,
    ),
    "clustered": (
        np.array([[0.119823 + 2.387884j, 0.113859 - 0.491055j],
                  [0.113859 - 0.491055j, 0.434132 + 0.868971j]]),
        np.array([-0.095994 - 0.14012j, -0.147801 + 0.275284j]),
        3,
    ),
    "g3": (
        np.array([[0.402117 + 1.343067j, -0.021122 - 0.645776j, -0.198139 - 0.161103j],
                  [-0.021122 - 0.645776j, -0.11625 + 1.367585j, -0.057229 - 0.548811j],
                  [-0.198139 - 0.161103j, -0.057229 - 0.548811j, -0.239642 + 0.988734j]]),
        np.array([0.065494 - 0.173047j, 0.177809 + 0.070789j, 0.006141 + 0.340736j]),
        6,
    ),
}


def brute_theta(v, tau, char, N=30):
    ep, e = char.vectors()
    g = len(ep)
    total = 0j
    from itertools import product

    for n in product(range(-N, N + 1), repeat=g):
        m = np.array(n, dtype=float) + ep
        total += np.exp(1j * np.pi * m @ tau @ m + 2j * np.pi * m @ (np.asarray(v) + e))
    return total


def test_brute_force_g1():
    ch = Characteristic.zero(1)
    for v in (0.0, 0.3, 0.2 + 0.1j):
        assert abs(theta([v], TAU1) - brute_theta([v], TAU1, ch)) < 1e-13


def test_brute_force_g2_with_char():
    tau = np.array([[0.2 + 1.1j, 0.1 - 0.05j], [0.1 - 0.05j, -0.3 + 0.9j]])
    ch = Characteristic((0.5, 0.0), (0.0, 0.5))
    v = [0.12 - 0.2j, -0.34 + 0.1j]
    assert abs(theta(v, tau, ch) - brute_theta(v, tau, ch)) < 1e-11


def test_periodicity_integer_shift():
    v = np.array([0.31 + 0.12j])
    assert abs(theta(v + 1.0, TAU1) - theta(v, TAU1)) < 1e-12


def test_quasi_periodicity():
    tau = np.array([[0.2 + 1.1j, 0.1j], [0.1j, 0.9j]])
    v = np.array([0.2 - 0.1j, 0.05 + 0.3j])
    m = np.array([1.0, -2.0])
    lhs = theta(v + tau @ m, tau)
    rhs = np.exp(-1j * np.pi * m @ tau @ m - 2j * np.pi * m @ v) * theta(v, tau)
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_odd_characteristic_parity():
    odd = Characteristic((0.5,), (0.5,))
    assert odd.parity() == -1
    assert abs(theta([0.0], TAU1, odd)) < 1e-14
    # odd function of v
    v = 0.17 - 0.05j
    assert abs(theta([v], TAU1, odd) + theta([-v], TAU1, odd)) < 1e-12


def test_derivatives_match_finite_differences():
    tau = np.array([[0.1 + 1.0j, 0.05], [0.05, 0.2 + 0.8j]])
    ch = Characteristic((0.0, 0.5), (0.5, 0.0))
    v = np.array([0.21 - 0.1j, -0.33 + 0.2j])
    ders = theta_derivatives(v, tau, [(0,), (1,), (0, 1), (1, 1)], char=ch)
    h = 1e-5
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    fd0 = (theta(v + h * e0, tau, ch) - theta(v - h * e0, tau, ch)) / (2 * h)
    assert abs(ders[(0,)] - fd0) < 1e-7 * (1 + abs(fd0))
    fd11 = (theta(v + h * e1, tau, ch) - 2 * theta(v, tau, ch) + theta(v - h * e1, tau, ch)) / h**2
    assert abs(ders[(1, 1)] - fd11) < 1e-5 * (1 + abs(fd11))


def test_directional_consistency():
    tau = np.array([[0.1 + 1.0j, 0.05], [0.05, 0.2 + 0.8j]])
    w = np.array([0.3, -0.7 + 0.2j])
    v = np.array([0.05, 0.07])
    ders = theta_derivatives(v, tau, [(), (0,), (1,), (0, 0), (0, 1), (1, 1)])
    direc = theta_directional(v, tau, w, 2)
    d1 = w[0] * ders[(0,)] + w[1] * ders[(1,)]
    d2 = w[0] ** 2 * ders[(0, 0)] + 2 * w[0] * w[1] * ders[(0, 1)] + w[1] ** 2 * ders[(1, 1)]
    assert abs(direc[0] - ders[()]) < 1e-13 * abs(ders[()])
    assert abs(direc[1] - d1) < 1e-12 * (1 + abs(d1))
    assert abs(direc[2] - d2) < 1e-12 * (1 + abs(d2))


def test_log_derivatives_of_gaussian_limit():
    # for a product tau the g=2 theta factorizes: mixed log derivative -> 0
    tau = np.array([[1.2j, 0.0], [0.0, 0.9j]])
    v = np.array([0.21, 0.17 - 0.1j])
    L = log_theta_derivatives(v, tau, [(0, 1)])
    assert abs(L[(0, 1)]) < 1e-12


def test_half_characteristics_count():
    chars = all_half_characteristics(2)
    assert len(chars) == 16
    odd = [c for c in chars if c.parity() == -1]
    assert len(odd) == 6  # classical count 2^(g-1)(2^g - 1)


def test_invalid_tau_rejected():
    with pytest.raises(InvalidCurveError):
        theta([0.0], np.array([[1.0]]))  # Im tau = 0
    with pytest.raises(InvalidCurveError):
        theta([0.0, 0.0], np.array([[1j, 0.5], [0.0, 1j]]))  # asymmetric


def directional_table(tau, w, d):
    """theta_directional at v = 0 along w, one row per all_half_characteristics entry."""
    g = tau.shape[0]
    return np.array([theta_directional(np.zeros(g), tau, w, d, char=ch)
                     for ch in all_half_characteristics(g)])


@pytest.mark.parametrize("name", sorted(FIXED_PERIODS))
def test_directional_table_matches_per_characteristic_calls(name):
    # each row against the partials of theta_derivatives contracted with w:
    # d^k/dt^k theta(t w) = sum over sorted alpha of (k! / prod mult!) w^alpha theta_alpha
    tau, w, d = FIXED_PERIODS[name]
    g = tau.shape[0]
    chars = all_half_characteristics(g)
    table = directional_table(tau, w, d)
    alphas = [a for k in range(d + 1) for a in product(range(g), repeat=k) if list(a) == sorted(a)]
    stack = np.zeros_like(table)
    for i, ch in enumerate(chars):
        ders = theta_derivatives(np.zeros(g), tau, alphas, char=ch)
        for a in alphas:
            count = math.factorial(len(a)) / math.prod(math.factorial(a.count(j)) for j in set(a))
            stack[i, len(a)] += count * np.prod(w[list(a)]) * ders[a]
    assert table.shape == stack.shape == (4**g, d + 1)
    scale = np.max(np.abs(stack), axis=0)
    assert np.all(np.abs(table - stack) <= 1e-13 * scale)
    # rows follow all_half_characteristics: the odd ones vanish at 0, and of
    # the even ones only the one a hyperelliptic genus-3 curve forces (its
    # tau is rounded, hence the loose threshold)
    odd = np.array([ch.parity() == -1 for ch in chars])
    assert np.all(np.abs(table[odd, 0]) < 1e-12 * scale[0])
    even_zeros = np.sum(np.abs(table[~odd, 0]) < 1e-5 * scale[0])
    assert even_zeros == (1 if g == 3 else 0)


# -- independent oracle and truncation -------------------------------------------


def mp_terms(tau, char, v):
    """Lattice points m = n + e' and their theta terms at 30 digits (mpmath).

    The box around the Gaussian centre is sized from the smallest
    eigenvalue of Im tau so that every term left out is below 1e-40 of the
    largest one; the float filter only drops terms below that level.
    """
    mpmath = pytest.importorskip("mpmath")
    ep, e = char.vectors()
    g = len(ep)
    Y = tau.imag
    c = -np.linalg.solve(Y, np.asarray(v, dtype=complex).imag)
    d0 = np.round(c - ep) + ep - c
    cut = 40.0 * math.log(10.0) / math.pi
    h = int(math.ceil(math.sqrt((cut + d0 @ Y @ d0) / np.min(np.linalg.eigvalsh(Y))))) + 2
    n = np.array(list(product(range(-h, h + 1), repeat=g)), dtype=float).T + np.round(c - ep)[:, None]
    m = n + ep[:, None]
    q = np.sum((m - c[:, None]) * (Y @ (m - c[:, None])), axis=0)
    m = m[:, q - np.min(q) <= cut]
    with mpmath.workdps(30):
        T = [[mpmath.mpc(complex(tau[i, j])) for j in range(g)] for i in range(g)]
        ve = [mpmath.mpc(complex(v[i])) + mpmath.mpf(e[i]) for i in range(g)]
        terms = []
        for col in m.T:
            mm = [mpmath.mpf(x) for x in col]
            quad = mpmath.fsum(mm[i] * T[i][j] * mm[j] for i in range(g) for j in range(g))
            lin = mpmath.fsum(mm[i] * ve[i] for i in range(g))
            terms.append((mm, mpmath.exp(1j * mpmath.pi * quad + 2j * mpmath.pi * lin)))
    return mpmath, terms


ORACLE_CHARS = [((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)), ((0.5, 0.0, 0.5), (0.0, 0.5, 0.5)),
                ((0.5, 0.5, 0.5), (0.5, 0.0, 0.0))]
ORACLE_V = [(0.0, 0.0, 0.0), (0.31, -0.17, 0.08), (0.12 - 0.23j, -0.3 + 0.15j, 0.05 + 0.2j)]


@pytest.mark.parametrize("name", sorted(FIXED_PERIODS))
def test_theta_and_derivatives_match_mpmath_oracle(name):
    tau = FIXED_PERIODS[name][0]
    g = tau.shape[0]
    orders = [()] + [a for k in (1, 2, 3) for a in product(range(g), repeat=k) if list(a) == sorted(a)]
    for (ep, e), v in zip(ORACLE_CHARS, ORACLE_V):
        char, v = Characteristic(ep[:g], e[:g]), np.array(v[:g])
        mpmath, terms = mp_terms(tau, char, v)
        got = theta_derivatives(v, tau, orders, char=char)
        with mpmath.workdps(30):
            factor = [np.array([2j * mpmath.pi * mm[a] for mm, _ in terms]) for a in range(g)]
            parts = {(): np.array([t for _, t in terms])}
            for alpha in orders:  # sorted by length: alpha[:-1] is already there
                if alpha:
                    parts[alpha] = parts[alpha[:-1]] * factor[alpha[-1]]
                exact = complex(mpmath.fsum(parts[alpha]))
                largest = max(abs(complex(p)) for p in parts[alpha])
                assert abs(got[alpha] - exact) <= 1e-13 * largest, (name, char, alpha)
            assert abs(theta(v, tau, char) - complex(mpmath.fsum(parts[()]))) <= 1e-13 * max(
                abs(complex(t)) for _, t in terms
            )


@pytest.mark.parametrize("name", sorted(FIXED_PERIODS))
def test_directional_table_matches_mpmath_oracle(name):
    tau, w, d = FIXED_PERIODS[name]
    g = tau.shape[0]
    chars = all_half_characteristics(g)
    table = directional_table(tau, w, d)
    exact = np.empty_like(table)
    for ep in {ch.eps_prime for ch in chars}:
        mpmath, terms = mp_terms(tau, Characteristic(ep, (0.0,) * g), np.zeros(g))
        with mpmath.workdps(30):
            dots = [2j * mpmath.pi * mpmath.fsum(mm[i] * mpmath.mpc(complex(w[i])) for i in range(g))
                    for mm, _ in terms]
            powers = [np.array([t * dot**k for (_, t), dot in zip(terms, dots)]) for k in range(d + 1)]
        m = np.array([[float(x) for x in mm] for mm, _ in terms])
        for i, ch in enumerate(chars):
            if ch.eps_prime != ep:
                continue
            # exp(2 i pi m.e) = i^(4 m.e) exactly, as m and e are half-integers
            quarter = np.rint(4 * m @ np.array(ch.eps)).astype(int) % 4
            with mpmath.workdps(30):
                for k in range(d + 1):
                    s = [mpmath.fsum(powers[k][quarter == r]) for r in range(4)]
                    exact[i, k] = complex(s[0] - s[2] + 1j * (s[1] - s[3]))
    scale = np.max(np.abs(exact), axis=0)
    assert np.all(np.abs(table - exact) <= 1e-13 * scale)


@pytest.mark.parametrize("name", sorted(FIXED_PERIODS))
def test_lattice_is_the_truncation_ellipsoid_and_its_tail_is_below_the_bound(name):
    tau, w, k = FIXED_PERIODS[name]
    g = tau.shape[0]
    Y = tau.imag
    Yinv = np.linalg.inv(Y)
    rho = math.sqrt(math.pi / np.max(np.diag(Yinv)))
    for (ep, e), v in zip(ORACLE_CHARS, ORACLE_V):
        char, v = Characteristic(ep[:g], e[:g]), np.array(v[:g])
        eps = np.array(char.eps_prime)
        c = -Yinv @ v.imag
        d0 = np.round(c - eps) + eps - c
        R2 = _radius(g, k, 1e-14, rho, d0 @ Y @ d0) ** 2
        m, _ = _lattice(v, _check_tau(tau), char, 1e-14, k)
        # brute force: a box far larger than the ellipsoid, filtered by the form
        h = int(math.ceil(3 * math.sqrt(R2 * np.max(np.diag(Yinv))))) + 1
        big = np.array(list(product(range(-h, h + 1), repeat=g)), dtype=float).T
        big += np.round(c - eps)[:, None] + eps[:, None]
        q = np.sum((big - c[:, None]) * (Y @ (big - c[:, None])), axis=0)
        inside = big[:, q <= R2]
        assert {tuple(p) for p in m.T} == {tuple(p) for p in inside.T}
        # the omitted terms, with their order-j factors |2 pi m.w|^j, stay below
        # tol * largest term * (2 pi |w|_1 (1 + |c|_inf))^j
        logs = -math.pi * q
        top = np.max(logs[q <= R2])
        out = np.exp(logs[q > R2] - top)
        dots = 2 * math.pi * np.abs(big[:, q > R2].T @ w)
        unit = 2 * math.pi * np.sum(np.abs(w)) * (1 + np.max(np.abs(c)))
        for j in range(k + 1):
            assert np.sum(out * dots**j) <= 1e-14 * unit**j


def test_lattice_is_far_smaller_than_the_old_box():
    tau, w, d = FIXED_PERIODS["g3"]
    m, _ = _lattice(np.zeros(3), _check_tau(tau), Characteristic((0.5,) * 3, (0.0,) * 3), 1e-14, d)
    assert m.shape[1] < 1000  # the box of the isotropic radius held 8000


def test_ill_conditioned_tau_raises_precision_error():
    tau = np.diag([1e-4j, 1j])
    with pytest.raises(PrecisionError, match="half-width"):
        theta([0.0, 0.0], tau)
    with pytest.raises(PrecisionError):
        theta_directional([0.0, 0.0], tau, np.array([1.0, 0.0]), 3,
                          char=Characteristic((0.5, 0.5), (0.5, 0.0)))


def test_kleinian_theta_is_the_module():
    # the package re-exported a function named theta, which shadowed the
    # submodule as the attribute kleinian.theta
    import kleinian

    module = importlib.import_module("kleinian.theta")
    assert kleinian.theta is module
    assert kleinian.theta.theta_derivatives is kleinian.theta_derivatives


def test_each_entry_point_sizes_the_lattice_for_its_derivative_order(monkeypatch):
    theta_module = importlib.import_module("kleinian.theta")
    real, orders = theta_module._lattice, []
    curve, pd, ch, (u, _) = _bridge_setup()

    def spy(v, form, char, tol, k):
        orders.append(k)
        return real(v, form, char, tol, k)

    monkeypatch.setattr(theta_module, "_lattice", spy)
    tau, w, _ = FIXED_PERIODS["g2"]
    v = np.array([0.1, -0.2 + 0.1j])
    theta(v, tau)
    theta_derivatives(v, tau, [(0,), (0, 1, 1), ()])
    theta_directional(v, tau, w, 4)
    log_theta_derivatives(v, tau, [(0, 1), (1,), (0, 0, 1)])
    wp_theta(pd, ch, u, (1, 3))
    wp_theta(pd, ch, u, (1, 1, 3))
    assert orders == [0, 3, 4, 3, 4]


# -- logarithmic derivatives: cumulants -------------------------------------------


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def set_partition_log_derivatives(v, tau, orders, char=None):
    """Reference: theta_derivatives over the subsets of ``orders``, then the
    moment-to-cumulant recursion over set partitions,
    theta_A / theta = sum over partitions of A of prod_B L_B."""
    closure = set()

    def add_subsets(alpha):
        alpha = tuple(sorted(alpha))
        if alpha not in closure:
            closure.add(alpha)
            for i in range(len(alpha)):
                add_subsets(alpha[:i] + alpha[i + 1 :])

    for alpha in orders:
        add_subsets(alpha)
    thetas = theta_derivatives(v, tau, sorted(closure, key=len), char=char)
    L = {}
    for alpha in sorted(closure, key=len):
        if alpha:
            acc = sum(math.prod(L[tuple(sorted(b))] for b in part)
                      for part in _set_partitions(list(alpha)) if len(part) > 1)
            L[alpha] = thetas[alpha] / thetas[()] - acc
    return {tuple(sorted(a)): L[tuple(sorted(a))] for a in orders}


def mp_cumulants(mpmath, terms, factors, indices):
    """Joint cumulants at 30 digits of the per-term factor columns
    ``factors[j]`` (mpmath numbers, one per entry of ``terms``) for each
    sorted multi-index in ``indices``, by the explicit sum over set
    partitions: kappa(A) = sum_pi (-1)^(|pi|-1) (|pi|-1)! prod_(B in pi) mu(B)."""
    top = max(len(a) for a in indices)
    with mpmath.workdps(30):
        parts = {(): np.array([t for _, t in terms])}
        for alpha in _indices(len(factors), range(1, top + 1)):  # alpha[:-1] is already there
            parts[alpha] = parts[alpha[:-1]] * factors[alpha[-1]]
        t0 = mpmath.fsum(parts[()])
        mu = {alpha: mpmath.fsum(p) / t0 for alpha, p in parts.items()}
        out = {}
        for alpha in indices:
            total = 0
            for part in _set_partitions(list(alpha)):
                r = len(part)
                total += (-1) ** (r - 1) * math.factorial(r - 1) * mpmath.fprod(
                    mu[tuple(sorted(b))] for b in part)
            out[alpha] = complex(total)
    return out


def _indices(g, orders=(1, 2, 3, 4)):
    return [a for k in orders for a in combinations_with_replacement(range(g), k)]


@pytest.mark.parametrize("name", sorted(FIXED_PERIODS))
def test_log_theta_derivatives_match_mpmath_cumulants(name):
    tau = FIXED_PERIODS[name][0]
    g = tau.shape[0]
    orders = _indices(g)
    for (ep, e), v in zip(ORACLE_CHARS, ORACLE_V):
        char, v = Characteristic(ep[:g], e[:g]), np.array(v[:g])
        mpmath, terms = mp_terms(tau, char, v)
        with mpmath.workdps(30):
            factors = [np.array([2j * mpmath.pi * mm[a] for mm, _ in terms]) for a in range(g)]
        exact = mp_cumulants(mpmath, terms, factors, orders)
        got = log_theta_derivatives(v, tau, orders, char=char)
        for alpha in orders:
            assert abs(got[alpha] - exact[alpha]) <= 2e-13 * (1 + abs(exact[alpha])), (char, alpha)


@pytest.mark.parametrize("name", sorted(FIXED_PERIODS))
def test_log_theta_derivatives_match_the_set_partition_path(name):
    tau = FIXED_PERIODS[name][0]
    g = tau.shape[0]
    orders = _indices(g)
    for (ep, e), v in zip(ORACLE_CHARS, ORACLE_V):
        char, v = Characteristic(ep[:g], e[:g]), np.array(v[:g])
        got = log_theta_derivatives(v, tau, orders, char=char)
        ref = set_partition_log_derivatives(v, tau, orders, char=char)
        for alpha in orders:
            assert abs(got[alpha] - ref[alpha]) <= 1e-13 * (1 + abs(ref[alpha])), (char, alpha)


@pytest.mark.parametrize("name", ["g1", "g2", "g3"])
def test_wp_theta_matches_mpmath_cumulants_along_the_omega_inverse_columns(name):
    curve, pd, ch, us = _bridge_setup(name)
    g = curve.genus
    gaps = list(curve.gaps)
    W = pd.omega_inv
    indices = _indices(g, (2, 3, 4))
    for u in us:
        v = W @ u
        mpmath, terms = mp_terms(pd.tau, ch, v)
        with mpmath.workdps(30):
            Wm = [[mpmath.mpc(complex(W[a, j])) for j in range(g)] for a in range(g)]
            factors = [np.array([2j * mpmath.pi * mpmath.fsum(mm[a] * Wm[a][j] for a in range(g))
                                 for mm, _ in terms]) for j in range(g)]
        exact = mp_cumulants(mpmath, terms, factors, indices)
        for pos in indices:
            ref = -exact[pos] + (pd.kappa[pos] if len(pos) == 2 else 0.0)
            got = wp_theta(pd, ch, u, tuple(gaps[j] for j in pos))
            assert abs(got - ref) <= 2e-13 * (1 + abs(ref)), (u, pos)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_log_derivative_is_symmetric_and_linear_in_each_column(data):
    def draw_floats(n, bound):
        return np.array(data.draw(st.lists(st.floats(-bound, bound), min_size=n, max_size=n)))

    g = data.draw(st.integers(1, 3), label="g")
    A = draw_floats(g * g, 0.6).reshape(g, g)
    X = draw_floats(g * g, 0.5).reshape(g, g)
    tau = (X + X.T) + 1j * (A @ A.T + 0.5 * np.eye(g))  # Im tau positive definite
    v = draw_floats(g, 0.5) + 1j * draw_floats(g, 0.3)
    n = data.draw(st.integers(1, 4), label="order")
    dirs = (draw_floats(g * (n + 1), 1.0) + 1j * draw_floats(g * (n + 1), 1.0)).reshape(g, n + 1)
    m, _, base = _terms(v, _check_tau(tau), None, 1e-14, 4)
    assume(abs(np.sum(base)) > 1e-3)  # off the theta divisor
    F = 2j * np.pi * (m.T @ dirs)  # columns 0..n-1, and n for linearity
    ref = _log_derivative(base, F[:, :n])
    perm = data.draw(st.permutations(range(n)), label="permutation")
    assert abs(_log_derivative(base, F[:, perm]) - ref) <= 1e-12 * (1 + abs(ref))
    j = data.draw(st.integers(0, n - 1), label="column")
    a, b = draw_floats(2, 2.0) + 1j * draw_floats(2, 2.0)
    H = F[:, :n].copy()
    H[:, j] = F[:, n]
    other = _log_derivative(base, H)
    H[:, j] = a * F[:, j] + b * F[:, n]
    scale = 1 + abs(a * ref) + abs(b * other)
    assert abs(_log_derivative(base, H) - (a * ref + b * other)) <= 1e-12 * scale
