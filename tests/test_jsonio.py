import numpy as np
import pytest

from kleinian import jsonio
from kleinian.errors import InputError
from kleinian.sampling import random_curve, random_divisor
from kleinian.transcendental import period_matrices, riemann_characteristic
from kleinian.uniformization import divisor_to_basis, extended_34


def test_curve_roundtrip(rng):
    curve = random_curve(3, 4, rng)
    data = jsonio.curve_to_json(curve)
    back = jsonio.curve_from_json(data)
    assert back.n == 3 and back.s == 4
    assert all(abs(back.lam[k] - v) < 1e-15 for k, v in curve.lam.items())


def test_curve_unknown_keys_rejected():
    with pytest.raises(InputError):
        jsonio.curve_from_json({"n": 2, "s": 3, "weights": {}})
    with pytest.raises(InputError):
        jsonio.curve_from_json({"n": 2, "s": 4})  # non-coprime -> input error


def test_divisor_roundtrip(rng):
    curve = random_curve(2, 5, rng)
    D = random_divisor(curve, 2, rng)
    back = jsonio.divisor_from_json(curve, jsonio.divisor_to_json(D))
    assert np.allclose(back.xs(), D.xs()) and np.allclose(back.ys(), D.ys())


def test_record_roundtrip(rng):
    curve = random_curve(3, 4, rng)
    rec = extended_34(curve, divisor_to_basis(curve, random_divisor(curve, 3, rng)))
    data = jsonio.record_to_json(rec)
    assert "2,2" in data["extended"]
    back = jsonio.record_from_json(data)
    assert all(abs(back.p[w] - rec.p[w]) < 1e-15 for w in curve.gaps)
    assert abs(back.extended[(2, 2)] - rec.extended[(2, 2)]) < 1e-15


def test_period_json(rng):
    curve = random_curve(2, 3, rng)
    pd = period_matrices(curve)
    riemann_characteristic(pd)
    data = jsonio.period_to_json(pd)
    assert data["legendre_residual"] < 1e-8
    assert len(data["omega"]) == 1 and len(data["omega"][0][0]) == 2
    assert data["characteristic"]["eps"] == [0.5]


@pytest.mark.parametrize(
    "load",
    [
        lambda c: jsonio.curve_from_json({"n": 2, "s": 5, "lambda": {"4.5": [1.0, 0.0]}}),
        lambda c: jsonio.curve_from_json({"n": 2, "s": 5, "lambda": [[1.0, 0.0]]}),
        lambda c: jsonio.divisor_from_json(c, {"points": [[0.5, 0.0, 1.0]]}),
        lambda c: jsonio.divisor_from_json(c, {"points": [[0.5, 0.0, None, 1.0]]}),
        lambda c: jsonio.divisor_from_json(c, {"points": ["0.5,0,1,0"]}),
        lambda c: jsonio.curve_from_json({"n": "two", "s": 5}),
        lambda c: jsonio.curve_from_json({"n": 2, "s": 5, "lambda": {"4": "1.0"}}),
        lambda c: jsonio.record_from_json({"p": [[0.1, 0.0]], "q": {}}),
        lambda c: jsonio.record_from_json({"p": {"w": [0.1, 0.0]}, "q": {}}),
        lambda c: jsonio.record_from_json({"p": {}, "q": {}, "extended": {"2,x": [0.1, 0.0]}}),
        lambda c: jsonio.record_from_json({"p": {}, "q": {}, "extended": [1]}),
        lambda c: jsonio.record_from_json([1]),
        lambda c: jsonio.divisor_from_json(c, [[0.5, 0.0, 1.0, 0.0]]),
        lambda c: jsonio.divisor_from_json(c, {"points": 5}),
        lambda c: jsonio.record_from_json({"q": {}}),
        lambda c: jsonio.record_from_json({"p": {"1": [0.1, 0.0, 0.2]}, "q": {}}),
    ],
)
def test_malformed_json_raises_input_error(load):
    with pytest.raises(InputError):
        load(random_curve(2, 5, np.random.default_rng(0)))
