import numpy as np
import pytest

from kleinian import series
from kleinian.errors import SeriesError
from kleinian.uniformization import _coefficients, _solve_series


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


def test_solve_series_solves_the_jet_system():
    rng = np.random.default_rng(1)
    n, order = 4, 6
    A = [[series.Jet(rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1))
          for _ in range(n)] for _ in range(n)]
    b = [[series.Jet(rng.standard_normal(order + 1))] for _ in range(n)]
    V = _solve_series(_coefficients(A), _coefficients(b))
    x = [series.Jet(V[:, j, 0]) for j in range(n)]
    # residual of the jet system, checked coefficientwise
    for i in range(n):
        acc = series.const(0.0, order)
        for j in range(n):
            acc = acc + A[i][j] * x[j]
        assert np.max(np.abs(acc.c - b[i][0].c)) < 1e-10
