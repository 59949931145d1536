import math

import numpy as np
import pytest

from kleinian.curves import curve_model, gap_sequence, infinity_series, monomial_of_weight
from kleinian.errors import InvalidCurveError


def test_gap_sequences_fixtures():
    assert gap_sequence(2, 7) == (1, 3, 5)
    assert gap_sequence(3, 4) == (1, 2, 5)
    assert gap_sequence(2, 3) == (1,)


def test_gap_count_formula():
    for n in range(2, 8):
        for s in range(n + 1, 31):
            if math.gcd(n, s) != 1 or n * s > 60:
                continue
            assert len(gap_sequence(n, s)) == (n - 1) * (s - 1) // 2


def test_gap_rejects_non_coprime():
    with pytest.raises(InvalidCurveError):
        gap_sequence(2, 4)
    with pytest.raises(InvalidCurveError):
        gap_sequence(3, 2)


def test_monomial_order_prefixes():
    c27 = curve_model(2, 7)
    assert [str(m) for m in c27.monomials_up_to(12)] == [
        "1", "x", "x^2", "x^3", "y", "x^4", "x y", "x^5", "x^2 y", "x^6",
    ]
    c34 = curve_model(3, 4)
    assert [str(m) for m in c34.monomials_up_to(9)] == ["1", "x", "y", "x^2", "x y", "y^2", "x^3"]
    assert [str(m) for m in c34.monomials_up_to(0)] == ["1"]


def test_monomial_weights_complement_gaps():
    for n, s in ((2, 7), (3, 4), (3, 5), (4, 5)):
        curve = curve_model(n, s)
        weights = {m.weight for m in curve.monomials_up_to(40)}
        expected = set(range(41)) - set(curve.gaps)
        assert weights == expected
        assert monomial_of_weight(n, s, curve.gaps[0]) is None


def test_eval_f_examples():
    c = curve_model(2, 7)
    assert c.eval_f(1.0, 1.0) == 0.0  # Pham point
    c34 = curve_model(3, 4, {6: 1.0})
    assert c34.eval_f(0.0, 1.0) == -1.0
    c27 = curve_model(2, 7, {14: 2.0})
    assert c27.eval_f(0.0, 1.0) == 1.0


def test_lambda_weight_validation():
    with pytest.raises(InvalidCurveError):
        curve_model(2, 5, {12: 1.0})
    with pytest.raises(InvalidCurveError):
        curve_model(3, 4, {1: 1.0})


def test_differential_numerators():
    c27 = curve_model(2, 7, {4: 0.5, 6: -0.25, 8: 1.5})
    ups, rhos = c27.differential_numerators()
    assert [str(m) for m in ups] == ["x^2", "x", "1"]
    # rho_5 = 5 x^5 + 3 l4 x^3 + 2 l6 x^2 + l8 x
    assert rhos[2] == {(5, 0): 5.0, (3, 0): 1.5, (2, 0): -0.5, (1, 0): 1.5}
    c34 = curve_model(3, 4)
    ups, rhos = c34.differential_numerators()
    assert [str(m) for m in ups] == ["y", "x", "1"]
    assert rhos[1] == {(1, 1): 2.0}
    # genus-1 specialization: rho_1 = x
    c23 = curve_model(2, 3)
    assert c23.second_kind_numerators() == [{(1, 0): 1.0}]
    # no associated system wired for general curves
    assert curve_model(3, 5).second_kind_numerators() is None


def test_weight_homogeneity_of_f(rng):
    for n, s in ((2, 5), (2, 7), (3, 4), (3, 5)):
        base = curve_model(n, s)
        lam = {k: complex(*rng.uniform(-1, 1, 2)) for (_, _, k) in base.terms}
        curve = curve_model(n, s, lam)
        for _ in range(10):
            x, y = complex(*rng.uniform(-2, 2, 2)), complex(*rng.uniform(-2, 2, 2))
            c = complex(*rng.uniform(0.5, 1.5, 2))
            scaled = curve_model(n, s, {k: c**k * v for k, v in lam.items()})
            lhs = scaled.eval_f(c**n * x, c**s * y)
            rhs = c ** (n * s) * curve.eval_f(x, y)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_infinity_series_pham_and_oracle(rng):
    # Pham curve: y = xi^-s exactly
    ser = infinity_series(curve_model(3, 4), 12)
    assert np.allclose(ser.c[1:], 0.0)
    # (2,7) with only l4: matched orders from direct substitution
    ser = infinity_series(curve_model(2, 7, {4: 0.8}), 12)
    assert abs(ser.c[4] - 0.4) < 1e-14
    assert abs(ser.c[8] - (-0.08)) < 1e-14
    # residual gate for random hyperelliptic of genus <= 3
    for g in (1, 2, 3):
        base = curve_model(2, 2 * g + 1)
        lam = {k: complex(*rng.uniform(-1, 1, 2)) for (_, _, k) in base.terms}
        ser = infinity_series(curve_model(2, 2 * g + 1, lam), 12)
        assert ser.residual(0.05) <= 1e-10


def test_infinity_series_weight_bookkeeping(rng):
    # c_k is weighted-homogeneous of weight k in lambda
    base = curve_model(3, 4)
    lam = {k: complex(*rng.uniform(-1, 1, 2)) for (_, _, k) in base.terms}
    c = complex(*rng.uniform(0.6, 1.4, 2))
    s1 = infinity_series(curve_model(3, 4, lam), 10)
    s2 = infinity_series(curve_model(3, 4, {k: c**k * v for k, v in lam.items()}), 10)
    for k in range(11):
        assert abs(s2.c[k] - c**k * s1.c[k]) < 1e-12 * (1 + abs(s1.c[k]))


def test_sigma_weight():
    assert curve_model(3, 4).sigma_weight() == -5
    assert curve_model(2, 7).sigma_weight() == -6
    assert curve_model(2, 5).sigma_weight() == -3


def test_on_curve_tolerance_scales():
    curve = curve_model(2, 5)
    x = 1e4
    y = np.sqrt(x**5 + 0j)
    pt = curve.point(x, y * (1 + 1e-13))  # relative wobble, large point
    assert pt.residual >= 0
    with pytest.raises(InvalidCurveError):
        curve.point(1.0, 1.5)


@pytest.mark.parametrize("ns", [(2, 5), (3, 4)])
@pytest.mark.parametrize(
    "xy",
    [
        (math.nan, 1.0),
        (math.inf, 1.0),
        (1.0, math.inf),
        (complex(0, math.inf), 1.0),
        (1.0, complex(math.nan, 0)),
        (1e200, 1.0),
    ],
)
def test_point_rejects_non_finite_coordinates(ns, xy):
    # a NaN residual compares False with any tolerance, so it once passed
    curve = curve_model(*ns, {2 * ns[1] - 2: 0.3})
    with pytest.raises(InvalidCurveError):
        curve.point(*xy)
