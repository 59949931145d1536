import numpy as np
import pytest

from kleinian.errors import InvalidCurveError
from kleinian.theta import (
    Characteristic,
    all_half_characteristics,
    log_theta_derivatives,
    theta,
    theta_derivatives,
    theta_directional,
    theta_directional_table,
)

TAU1 = np.array([[1j]])

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


@pytest.mark.parametrize("name", sorted(FIXED_PERIODS))
def test_directional_table_matches_per_characteristic_calls(name):
    tau, w, d = FIXED_PERIODS[name]
    g = tau.shape[0]
    chars = all_half_characteristics(g)
    table = theta_directional_table(tau, w, d)
    stack = np.array([theta_directional(np.zeros(g), tau, w, d, char=ch) for ch in chars])
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
