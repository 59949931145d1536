import numpy as np
import pytest

from kleinian import series
from kleinian.divisors import _equilibrate, _solve_nonspecial
from kleinian.errors import SeriesError
from kleinian.uniformization import _coefficients


def test_mul_matches_polynomial_product():
    a = series.Jet([1.0, 2.0, 3.0, 0.0])
    b = series.Jet([4.0, -1.0, 0.5, 2.0])
    prod = (a * b).c
    full = np.convolve(a.c, b.c)[:4]
    assert np.allclose(prod, full)


def test_reciprocal_and_division():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    c[0] = 1.5 + 0.2j
    a = series.Jet(c)
    one = a * a.reciprocal()
    assert abs(one.c[0] - 1.0) < 1e-14
    assert np.max(np.abs(one.c[1:])) < 1e-13
    b = series.Jet(rng.standard_normal(9))
    assert np.allclose(((b / a) * a).c, b.c, atol=1e-12)


def test_reciprocal_requires_unit():
    with pytest.raises(SeriesError):
        series.Jet([0.0, 1.0]).reciprocal()


def test_power():
    a = series.var(2.0, 5)
    assert np.allclose((a**3).c, np.array([8.0, 12.0, 6.0, 1.0, 0.0, 0.0]))


def test_power_squares_only_below_the_top_bit(monkeypatch):
    real, calls = series.Jet.__mul__, []
    monkeypatch.setattr(series.Jet, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    a = ref = series.var(1.5 - 0.5j, 6)
    for k in range(1, 12):
        del calls[:]
        p = a**k
        assert len(calls) == bin(k).count("1") + k.bit_length() - 1
        assert np.allclose(p.c, ref.c, rtol=1e-13)
        ref = real(ref, a)


def test_solve_nonspecial_solves_the_jet_system():
    rng = np.random.default_rng(1)
    n, order = 4, 6
    A = [[series.Jet(rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1))
          for _ in range(n)] for _ in range(n)]
    b = [[series.Jet(rng.standard_normal(order + 1))] for _ in range(n)]
    V = _solve_nonspecial(_coefficients(A), _coefficients(b), "jet system")
    x = [series.Jet(V[:, j, 0]) for j in range(n)]
    # residual of the jet system, checked coefficientwise
    for i in range(n):
        acc = series.const(0.0, order)
        for j in range(n):
            acc = acc + A[i][j] * x[j]
        assert np.max(np.abs(acc.c - b[i][0].c)) < 1e-10


def _gated_per_order(A, B):
    """The jet solve as it was, every order equilibrated, factored and gated
    anew as a system of numbers, kept as the reference for the bits."""
    V = np.zeros((len(B), A.shape[2], B.shape[2]), dtype=complex)
    for k in range(len(B)):
        V[k] = _solve_nonspecial(
            A[:1], (B[k] - sum(A[j] @ V[k - j] for j in range(1, k + 1)))[None], "jet system"
        )[0]
    return V


def test_one_gate_per_jet_system_keeps_every_bit(monkeypatch):
    # A_0 equilibrated once and reused for every order gives the bits that a
    # gated solve per order gives: the identity columns appended for the
    # gate leave the solution's bits alone
    rng = np.random.default_rng(32)
    calls, real = [], _equilibrate
    monkeypatch.setattr("kleinian.divisors._equilibrate", lambda A: calls.append(1) or real(A))
    for n in range(2, 7):
        for order in range(7):
            A = rng.standard_normal((order + 1, n, n)) + 1j * rng.standard_normal((order + 1, n, n))
            B = rng.standard_normal((order + 1, n, 2)) + 1j * rng.standard_normal((order + 1, n, 2))
            A *= 10.0 ** rng.uniform(-3, 3, n)  # monomial columns of unlike scales
            want = _gated_per_order(A, B)
            del calls[:]
            assert np.array_equal(_solve_nonspecial(A, B, "jet system"), want)
            assert len(calls) == 1
