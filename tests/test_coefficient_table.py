"""f and every R as one {(i, j): c} table read by one evaluator.

The loops that each rebuilt f from ``curve.terms`` and ``curve.lam``, or
evaluated a table in their own way, are kept here as references (the
``fiber_points`` row loop is ``_fiber_coeffs`` in test_divisors.py).  The
tables, their splits and resultants compare exactly (``==``, so +0 and -0
agree).  Evaluation is Horner's scheme over the table's column form, so it
compares exactly with the reference Horner loop ``ref_horner`` only; with
the term sums ``c * x**i * y**j`` it agrees within ``_bound``, as it does
with a 40-digit mpmath evaluation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinian import series
from kleinian.curves import curve_model, poly_eval, poly_partials, y_split
from kleinian.divisors import (
    PolyFunction,
    _poly_det,
    poly_mul_raw,
    y_resultant,
)
from kleinian.sampling import random_curve
from kleinian.transcendental import x_polynomial

FAMILIES = ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5))


# -- the replaced loops ----------------------------------------------------------


def ref_eval_f(curve, x, y):
    acc = -(y**curve.n) + x**curve.s
    for i, j, k in curve.terms:
        lk = curve.lam.get(k)
        if lk:
            acc = acc + lk * x**i * y**j
    return acc


def ref_eval_fy(curve, x, y):
    acc = -curve.n * y ** (curve.n - 1)
    for i, j, k in curve.terms:
        lk = curve.lam.get(k)
        if lk and j > 0:
            acc = acc + lk * j * x**i * y ** (j - 1)
    return acc


def ref_eval_fx(curve, x, y):
    acc = curve.s * x ** (curve.s - 1)
    for i, j, k in curve.terms:
        lk = curve.lam.get(k)
        if lk and i > 0:
            acc = acc + lk * i * x ** (i - 1) * y**j
    return acc


def ref_poly_eval(coeffs, x, y):
    acc = 0
    for (i, j), c in coeffs.items():
        acc = acc + c * x**i * y**j
    return acc


def ref_poly_eval_dx(coeffs, x, y):
    acc = 0
    for (i, j), c in coeffs.items():
        if i:
            acc = acc + c * i * x ** (i - 1) * y**j
    return acc


def ref_poly_eval_dy(coeffs, x, y):
    acc = 0
    for (i, j), c in coeffs.items():
        if j:
            acc = acc + c * j * x**i * y ** (j - 1)
    return acc


def ref_horner(coeffs, x, y):
    """Horner's scheme as a loop over the table: per power of y from the top
    down, that part's x-coefficients from its own top degree down (0 where
    no term is), each part then one step in y."""
    acc = None
    for j in range(max((j for (_, j) in coeffs), default=0), -1, -1):
        top = max((i for (i, jj) in coeffs if jj == j), default=0)
        col = complex(coeffs.get((top, j), 0))
        for i in range(top - 1, -1, -1):
            col = col * x + complex(coeffs.get((i, j), 0))
        acc = col if acc is None else acc * y + col
    return acc


def ref_partials(coeffs):
    return (
        {(i - 1, j): c * i for (i, j), c in coeffs.items() if i},
        {(i, j - 1): c * j for (i, j), c in coeffs.items() if j},
    )


def ref_x_polynomial(curve):
    c = np.zeros(curve.s + 1, dtype=complex)
    c[0] = 1.0
    for i, j, k in curve.terms:
        lk = curve.lam.get(k)
        if lk:
            c[curve.s - i] += lk
    return c


def ref_curve_y_coefficient_polys(curve):
    out = []
    dx = curve.s
    for j in range(curve.n + 1):
        c = np.zeros(dx + 1, dtype=complex)
        if j == 0:
            c[0] = 1.0  # x^s
        if j == curve.n:
            c = np.array([-1.0 + 0j])
        out.append(c)
    for i, j, k in curve.terms:
        lk = curve.lam.get(k)
        if lk:
            out[j][dx - i] += lk
    return out


def ref_y_coefficient_polys(coeffs):
    dy = max((j for (_, j) in coeffs), default=0)
    dx = max((i for (i, _) in coeffs), default=0)
    out = []
    for j in range(dy + 1):
        c = np.zeros(dx + 1, dtype=complex)
        for (i, jj), v in coeffs.items():
            if jj == j:
                c[dx - i] = v
        out.append(c)
    return out


def ref_f_table(curve):
    f_table = {(curve.s, 0): 1.0, (0, curve.n): -1.0}
    for i, j, k in curve.terms:
        lk = curve.lam.get(k)
        if lk:
            f_table[(i, j)] = f_table.get((i, j), 0) + lk
    return f_table


def ref_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return out


def ref_y_resultant(curve, R):
    n = curve.n
    fc = ref_curve_y_coefficient_polys(curve)
    rc = ref_y_coefficient_polys(R.coeffs)
    dr = max(j for (_, j) in R.coeffs)
    size = n + dr
    zero = np.array([0j])
    mat = [[zero] * size for _ in range(size)]
    for r in range(dr):
        for k in range(n + 1):
            mat[r][r + k] = fc[n - k]
    for r in range(n):
        for k in range(dr + 1):
            mat[dr + r][r + k] = rc[dr - k]
    return _poly_det(mat)


# -- comparisons ---------------------------------------------------------------------

U = np.finfo(float).eps / 2  # unit roundoff


def _same(a, b) -> bool:
    if isinstance(a, series.Jet):
        assert isinstance(b, series.Jet)
        a, b = a.c, b.c
    return np.array_equal(np.asarray(a), np.asarray(b))


def _coefficients(v):
    return v.c if isinstance(v, series.Jet) else np.asarray(v)


def _modulus(v):
    """|v|, or for a Jet the Jet of its coefficients' moduli, the majorant
    that bounds a product of Jets coefficient by coefficient."""
    return series.Jet(np.abs(v.c)) if isinstance(v, series.Jet) else np.abs(v)


def _bound(coeffs, x, y):
    """4 (deg_x + deg_y + 2) u sum |c x^i y^j|: twice Horner's bound
    gamma_(2 (deg_x + deg_y)) on the sum of the terms' moduli (Higham 2002,
    sec. 5.1), the room for two evaluations' errors and complex products."""
    dx = max((i for (i, _) in coeffs), default=0)
    dy = max((j for (_, j) in coeffs), default=0)
    terms = ref_poly_eval({k: abs(c) for k, c in coeffs.items()}, _modulus(x), _modulus(y))
    return 4 * (dx + dy + 2) * U * _coefficients(terms).real


def _close(coeffs, got, want, x, y) -> bool:
    """got and want, values of the table ``coeffs`` at (x, y), within _bound
    (a table free of x and y evaluates to its constant, at Jets too)."""
    if isinstance(want, series.Jet) and not isinstance(got, series.Jet):
        got = series.const(got, want.order)
    gap = np.abs(_coefficients(got) - _coefficients(want))
    return bool(np.all(gap <= _bound(coeffs, x, y)))


def _check_eval(coeffs, got, term_sum, x, y):
    """A table's value: the reference Horner loop's bits, and the term sum's
    within _bound."""
    assert _same(got, ref_horner(coeffs, x, y))
    assert _close(coeffs, got, term_sum, x, y)


def _arguments(rng):
    """(x, y) as complex scalars, complex arrays and order-3 Jets."""
    z = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    yield complex(z[0, 0]), complex(z[1, 0])
    yield z[0], z[1]
    yield series.var(complex(z[0, 1]), 3), series.Jet(z[1, 1:5])


def _check_curve(curve, rng):
    assert curve.coeffs == ref_f_table(curve)
    assert list(curve.coeffs) == list(ref_f_table(curve))  # x^s, -y^n, then the lambda terms
    f = ref_f_table(curve)
    fx, fy = ref_partials(f)
    for x, y in _arguments(rng):
        _check_eval(f, curve.eval_f(x, y), ref_eval_f(curve, x, y), x, y)
        _check_eval(fx, curve.eval_fx(x, y), ref_eval_fx(curve, x, y), x, y)
        _check_eval(fy, curve.eval_fy(x, y), ref_eval_fy(curve, x, y), x, y)
    split = y_split(curve.coeffs)
    ref = ref_curve_y_coefficient_polys(curve)
    assert all(np.array_equal(a, b) for a, b in zip(split[:-1], ref[:-1]))
    assert np.array_equal(np.trim_zeros(split[-1], "f"), ref[-1])  # -y^n
    if curve.n == 2:
        assert np.array_equal(x_polynomial(curve), ref_x_polynomial(curve))
        for table in curve.second_kind_numerators():
            deg = max((i for (i, _) in table), default=0)
            rho = np.zeros(deg + 1, dtype=complex)
            for (i, _), v in table.items():
                rho[deg - i] = v
            assert np.array_equal(y_split(table)[0], rho)


def _check_table(curve, coeffs, rng):
    R = PolyFunction(curve, coeffs)
    Rx, Ry = ref_partials(R.coeffs)
    for x, y in _arguments(rng):
        _check_eval(R.coeffs, R.eval(x, y), ref_poly_eval(R.coeffs, x, y), x, y)
        _check_eval(Rx, R.eval_dx(x, y), ref_poly_eval_dx(R.coeffs, x, y), x, y)
        _check_eval(Ry, R.eval_dy(x, y), ref_poly_eval_dy(R.coeffs, x, y), x, y)
        _check_eval(curve.coeffs, poly_eval(curve.forms[0], x, y), ref_eval_f(curve, x, y), x, y)
    split, ref = y_split(R.coeffs), ref_y_coefficient_polys(R.coeffs)
    assert len(split) == len(ref) and all(np.array_equal(a, b) for a, b in zip(split, ref))
    if any(j for (_, j) in R.coeffs):
        res, want = y_resultant(curve, R), ref_y_resultant(curve, R)
        assert len(res) == len(want) and np.array_equal(res, want)


@pytest.mark.parametrize("n, s", FAMILIES)
def test_curve_table_matches_the_replaced_loops(n, s, rng):
    for _ in range(4):
        curve = random_curve(n, s, rng)
        _check_curve(curve, rng)
        tables = {(i, j): complex(*rng.normal(size=2)) for i in range(s + 1) for j in range(n)}
        _check_table(curve, tables, rng)
    _check_curve(curve_model(n, s), rng)  # no lambda at all


@pytest.mark.parametrize("n, s", FAMILIES)
def test_product_with_f_matches_the_quotient_identity_loop(n, s, rng):
    # quotient_identity_residual_27 multiplies (x + gamma_2)^2 into f
    curve = random_curve(n, s, rng)
    g2 = complex(*rng.normal(size=2))
    sq = {(2, 0): 1.0, (1, 0): 2.0 * g2, (0, 0): g2**2}
    got, want = poly_mul_raw(sq, curve.coeffs), ref_mul(sq, ref_f_table(curve))
    assert list(got) == list(want) and got == want


def test_resultant_matches_the_replaced_loops_on_a_high_x_degree_R():
    # with f's y^n coefficient padded by s leading zeros this resultant moved by one bit
    curve = curve_model(2, 7)
    R = PolyFunction(curve, {(0, 1): 1j, (1, 0): -0.5036633012606895, (4, 0): 2.0, (7, 0): 1.0})
    assert np.array_equal(y_resultant(curve, R), ref_y_resultant(curve, R))


_complex = st.builds(
    complex,
    st.floats(-2.0, 2.0, allow_subnormal=False),
    st.floats(-2.0, 2.0, allow_subnormal=False),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_random_lambda_and_R_tables_match_the_replaced_loops(data):
    n, s = data.draw(st.sampled_from(FAMILIES), label="family")
    weights = [k for (_, _, k) in curve_model(n, s).terms]
    lam = data.draw(st.dictionaries(st.sampled_from(weights), _complex), label="lambda")
    curve = curve_model(n, s, lam)
    keys = st.tuples(st.integers(0, s), st.integers(0, n - 1))
    coeffs = data.draw(st.dictionaries(keys, _complex, min_size=1, max_size=8), label="R")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="points"))
    _check_curve(curve, rng)
    if any(coeffs.values()):
        _check_table(curve, coeffs, rng)


def _mp_value(coeffs, x, y, mp):
    """The table at (x, y), scalars or Jets, as its term sum in 40-digit
    arithmetic from the same floating-point inputs, rounded once."""
    X, Y = ([mp.mpc(z.real, z.imag) for z in _coefficients(v).ravel()] for v in (x, y))

    def mul(a, b):
        return [mp.fsum(a[k] * b[t - k] for k in range(t + 1)) for t in range(len(a))]

    def powers(v, top):
        out = [[mp.mpc(1)] + [mp.mpc(0)] * (len(v) - 1)]
        for _ in range(top):
            out.append(mul(out[-1], v))
        return out

    xs = powers(X, max((i for (i, _) in coeffs), default=0))
    ys = powers(Y, max((j for (_, j) in coeffs), default=0))
    acc = [mp.mpc(0)] * len(X)
    for (i, j), c in coeffs.items():
        acc = [a + mp.mpc(c.real, c.imag) * t for a, t in zip(acc, mul(xs[i], ys[j]))]
    value = np.array([complex(a) for a in acc])
    return series.Jet(value) if isinstance(x, series.Jet) else value[0]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_evaluation_matches_a_40_digit_oracle(data):
    # random tables, and f with its partials, at complex scalars and at
    # order-2 Jets: every value within _bound of the 40-digit term sum
    mp = pytest.importorskip("mpmath")
    n, s = data.draw(st.sampled_from(FAMILIES), label="family")
    weights = [k for (_, _, k) in curve_model(n, s).terms]
    curve = curve_model(n, s, data.draw(st.dictionaries(st.sampled_from(weights), _complex), label="lambda"))
    keys = st.tuples(st.integers(0, s), st.integers(0, n - 1))
    coeffs = data.draw(st.dictionaries(keys, _complex, min_size=1, max_size=8), label="R")
    R = PolyFunction(curve, coeffs)
    z = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="points")).normal(size=(2, 4, 2))
    z = z[..., 0] + 1j * z[..., 1]
    cases = [(curve.coeffs, (curve.eval_f, curve.eval_fx, curve.eval_fy))]
    if R.coeffs:
        cases.append((R.coeffs, (R.eval, R.eval_dx, R.eval_dy)))
    with mp.workdps(40):
        for x, y in ((complex(z[0, 0]), complex(z[1, 0])), (series.Jet(z[0, 1:]), series.Jet(z[1, 1:]))):
            for table, evals in cases:
                for t, evaluate in zip((table, *poly_partials(table)), evals):
                    got = evaluate(x, y)
                    assert _close(t, got, _mp_value(t, x, y, mp), x, y)
