import json
import os

import numpy as np
import pytest

from kleinian.curves import curve_model
from kleinian.divisors import Divisor
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
