import json
import os

import numpy as np
import pytest

from kleinian.curves import curve_model
from kleinian.divisors import Divisor, PolyFunction, fiber_points, y_resultant
from kleinian.sampling import random_curve, random_divisor

ALGEBRA_OPS = os.path.join(os.path.dirname(__file__), "algebra_ops.json")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def make_curve(rng):
    def _make(n, s, scale=0.7):
        return random_curve(n, s, rng, scale)

    return _make


@pytest.fixture
def make_divisor(rng):
    def _make(curve, degree=None):
        return random_divisor(curve, degree if degree is not None else curve.genus, rng)

    return _make


@pytest.fixture(scope="session")
def algebra_ops():
    """Ops of the benchmark's ``algebra`` pools, keyed "seed:index", as
    (kind, curve, D1, D2); the data are copied out of ``perfbench/inputs.py``
    so that the tests do not import the benchmark."""
    with open(ALGEBRA_OPS) as fh:
        raw = json.load(fh)
    ops = {}
    for key, op in raw.items():
        curve = curve_model(op["n"], op["s"], {int(w): complex(*z) for w, z in op["lambda"].items()})
        D1, D2 = (Divisor(curve, [(complex(*p[:2]), complex(*p[2:])) for p in op[d]]) for d in ("D1", "D2"))
        ops[key] = (op["kind"], curve, D1, D2)
    return ops


def _ramification_xs(curve):
    """x-roots of Res_y(f_y, f): where the fiber has a repeated y."""
    fy = PolyFunction(curve, curve.partials[1])
    return np.roots(np.trim_zeros(y_resultant(curve, fy), "f"))


@pytest.fixture(scope="session")
def hard_divisor():
    """The benchmark's hard shares, for property tests: ``make(ns, kind,
    seed, log10_dist)`` returns (curve, D, rng), D of degree g with a
    doubled point on |x| = 1 ("confluent"), a point at |x| = 10 ("far-x")
    or a point 10**log10_dist from a ramification point
    ("near-ramification"), and rng to draw further inputs from."""

    def make(ns, kind, seed, log10_dist):
        rng = np.random.default_rng(seed)
        curve = random_curve(*ns, rng)
        turn = np.exp(2j * np.pi * rng.uniform())
        if kind == "confluent":
            x, copies = turn, 2
        elif kind == "far-x":
            x, copies = 10.0 * turn, 1
        else:
            r = _ramification_xs(curve)
            x, copies = r[int(rng.integers(len(r)))] + 10.0**log10_dist * turn, 1
        ys = fiber_points(curve, [x])[0]
        special = [(x, ys[int(rng.integers(len(ys)))])] * copies
        rest = random_divisor(curve, curve.genus - copies, rng).points
        return curve, Divisor(curve, special + list(rest), tol=1e-8), rng

    return make
