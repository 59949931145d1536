"""Seeded random curves and reduced divisors for tests and self-checks."""

from __future__ import annotations

import numpy as np

from .curves import CurveModel, curve_model
from .divisors import Divisor, fiber_points


def random_curve(n: int, s: int, rng: np.random.Generator, scale: float = 0.7) -> CurveModel:
    """Random parameters, independent uniform in the |Re|,|Im| <= scale box."""
    base = curve_model(n, s)
    lam = {k: complex(*rng.uniform(-scale, scale, 2)) for (_, _, k) in base.terms}
    return curve_model(n, s, lam)


def random_divisor(curve: CurveModel, degree: int, rng: np.random.Generator) -> Divisor:
    """Reduced divisor with x-coordinates uniform in the unit disk."""
    pts: list = []
    guard = 0
    while len(pts) < degree:
        guard += 1
        if guard > 200 * degree:
            raise RuntimeError("could not sample a reduced divisor")
        r = np.sqrt(rng.uniform(0.0, 1.0))
        x = r * np.exp(2j * np.pi * rng.uniform())
        ys = fiber_points(curve, [x])[0]
        pts.append((complex(x), ys[int(rng.integers(len(ys)))]))
        if not Divisor(curve, pts, validate=False).is_reduced():
            pts.pop()
    return Divisor(curve, pts)
