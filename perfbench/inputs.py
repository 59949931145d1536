"""Seeded workload inputs, built from numpy and the seed alone.

Nothing here imports ``kleinian``: curves, branch points, fiber roots and
ramification points are solved with numpy, so a change to the library can
never change the inputs it is measured on.  An input is plain data (``n``,
``s``, a ``lam`` table keyed by Sato weight, points as complex pairs), and
``digest`` hashes the whole pool so two runs can show they saw the same
inputs.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

WORKLOAD_IDS = {"periods": 1, "bridge": 2, "algebra": 3}
# ops per pool; a run that gets further cycles through its pool again
POOL_SIZE = {"periods": 512, "bridge": 1024, "algebra": 1024}
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# periods: kinds of consecutive ops; a clustered curve has genus 2 and one
# pair of branch points 10^CLUSTER_LOG10 apart, its other branch points at
# least CLUSTER_SEPARATION from each other and from the pair, so that the
# gap, not a second near pair, decides how hard the curve is.  5 of 12 ops
# are clustered (cheap when they raise, so a run has many); genus 3, a
# quarter, is the top quarter of op times, and the median falls inside the
# genus-2 block.
PERIODS_CYCLE = (
    "g1", "clustered", "g2", "clustered", "g3", "clustered",
    "g2", "clustered", "g3", "clustered", "g2", "g3",
)
CLUSTER_LOG10 = (-2.0, -4.0)
CLUSTER_SEPARATION = 0.3

# bridge: curves whose period data is built at set-up (a count coprime with
# NEAR_EVERY, so near divisors visit every curve), and the near share; every
# other divisor point stays FAR_FROM_BRANCH from the branch points, so the
# two shares split the distance range at 10^NEAR_LOG10[0]
BRIDGE_CURVES = 3
NEAR_EVERY = 4
NEAR_LOG10 = (-2.0, -5.0)
FAR_FROM_BRANCH = 10.0 ** NEAR_LOG10[0]

# algebra: family rotation and the hard share (rotating over HARD_KINDS)
ALGEBRA_FAMILIES = ((2, 5), (2, 7), (3, 4))
HARD_EVERY = 2  # coprime with the family count, so hard ops visit every family
HARD_KINDS = ("confluent", "far-x", "near-ramification")
RAMIFICATION_LOG10 = (-2.0, -5.0)

COEFF_BOX = 0.7


def curve_terms(n: int, s: int) -> list:
    """(i, j, k) for every monomial x^i y^j of positive weight k."""
    return [
        (i, j, n * s - i * n - j * s)
        for j in range(n - 1)
        for i in range(s - 1)
        if n * s - i * n - j * s > 0
    ]


def _stratified(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    """Low-discrepancy points in [lo, hi]: every prefix covers the range evenly."""
    offset = rng.uniform()
    u = (offset + GOLDEN * np.arange(count)) % 1.0
    return lo + (hi - lo) * u


def random_lam(n: int, s: int, rng: np.random.Generator) -> dict:
    return {
        k: complex(*rng.uniform(-COEFF_BOX, COEFF_BOX, 2)) for (_, _, k) in curve_terms(n, s)
    }


def lam_from_branch_points(e: np.ndarray) -> dict:
    """Canonical (2, 2g+1) parameters with the given finite branch points.

    The points are shifted to zero mean first, since the canonical form
    has no x^(s-1) term.
    """
    e = np.asarray(e, dtype=complex)
    e = e - np.mean(e)
    c = np.poly(e)  # descending, c[0] = 1, c[1] = 0 after centring
    s = len(e)
    return {k: complex(c[s - i]) for (i, _, k) in curve_terms(2, s)}


def fiber_ys(n: int, s: int, lam: dict, x: complex) -> np.ndarray:
    """The n roots y of f(x, y) = -y^n + x^s + sum lam_k x^i y^j, polished."""
    c = np.zeros(n + 1, dtype=complex)
    c[0] = -1.0
    c[n] += x**s
    for i, j, k in curve_terms(n, s):
        c[n - j] += lam.get(k, 0j) * x**i
    y = np.roots(c)
    dc = np.polyder(c)
    for _ in range(3):
        d = np.polyval(dc, y)
        ok = np.abs(d) > 1e-300
        y[ok] = y[ok] - np.polyval(c, y[ok]) / d[ok]
    return y


def x_polynomial(s: int, lam: dict) -> np.ndarray:
    """Descending coefficients of P with f = -y^2 + P(x)."""
    c = np.zeros(s + 1, dtype=complex)
    c[0] = 1.0
    for i, _, k in curve_terms(2, s):
        c[s - i] += lam.get(k, 0j)
    return c


def ramification_xs(n: int, s: int, lam: dict) -> np.ndarray:
    """x-coordinates of the finite ramification points.

    Hyperelliptic: the roots of P.  The (3,4) curve is -y^3 + a(x) y + c(x):
    f = f_y = 0 eliminates to 4 a^3 - 27 c^2 = 0.
    """
    if n == 2:
        return np.roots(x_polynomial(s, lam))
    if (n, s) != (3, 4):
        raise ValueError("ramification points are wired for n = 2 and (3,4) only")
    a = np.zeros(3, dtype=complex)  # descending, degree 2
    c = np.zeros(5, dtype=complex)  # descending, degree 4
    c[0] = 1.0
    for i, j, k in curve_terms(3, 4):
        if j == 1:
            a[2 - i] += lam.get(k, 0j)
        else:
            c[4 - i] += lam.get(k, 0j)
    disc = np.polysub(4.0 * np.polymul(np.polymul(a, a), a), 27.0 * np.polymul(c, c))
    return np.roots(disc)


def _disk_x(rng: np.random.Generator) -> complex:
    r = math.sqrt(rng.uniform())
    return complex(r * np.exp(2j * np.pi * rng.uniform()))


def _point(n, s, lam, x, rng) -> tuple:
    ys = fiber_ys(n, s, lam, x)
    return (complex(x), complex(ys[int(rng.integers(len(ys)))]))


def _distinct_points(n, s, lam, rng, count: int, taken=(), avoid=()) -> list:
    """Points with x uniform in the unit disk, pairwise separated x, and
    x at least FAR_FROM_BRANCH from every point of ``avoid``."""
    pts = list(taken)
    out = []
    while len(out) < count:
        x = _disk_x(rng)
        if all(abs(x - p[0]) > 0.05 for p in pts) and all(
            abs(x - a) >= FAR_FROM_BRANCH for a in avoid
        ):
            p = _point(n, s, lam, x, rng)
            pts.append(p)
            out.append(p)
    return out


# -- pools -------------------------------------------------------------------


def periods_pool(rng: np.random.Generator, size: int = POOL_SIZE["periods"]) -> list:
    """One hyperelliptic curve per op, kinds in PERIODS_CYCLE order."""
    gaps = iter(10.0 ** _stratified(rng, size, *CLUSTER_LOG10))
    ops = []
    for t in range(size):
        kind = PERIODS_CYCLE[t % len(PERIODS_CYCLE)]
        if kind == "clustered":
            e = []
            while len(e) < 4:
                x = _disk_x(rng)
                if all(abs(x - a) >= CLUSTER_SEPARATION for a in e):
                    e.append(x)
            e = np.array(e)
            gap = float(next(gaps))
            partner = e[0] + gap * np.exp(2j * np.pi * rng.uniform())
            lam = lam_from_branch_points(np.append(e, partner))
            ops.append({"kind": kind, "n": 2, "s": 5, "lam": lam, "gap": gap})
        else:
            s = 2 * int(kind[1:]) + 1
            ops.append({"kind": kind, "n": 2, "s": s, "lam": random_lam(2, s, rng)})
    return ops


def bridge_curves(rng: np.random.Generator, count: int) -> list:
    """Candidate genus-2 curves for the bridge, in the order they are tried."""
    return [random_lam(2, 5, rng) for _ in range(count)]


def bridge_pool(rng: np.random.Generator, curves: list, size: int = POOL_SIZE["bridge"]) -> list:
    """Degree-2 divisors; every NEAR_EVERY-th has a point near a branch point."""
    dists = iter(10.0 ** _stratified(rng, size, *NEAR_LOG10))
    ops = []
    for t in range(size):
        ci = t % len(curves)
        lam = curves[ci]
        e = ramification_xs(2, 5, lam)
        if t % NEAR_EVERY == NEAR_EVERY - 1:
            d = float(next(dists))
            x = e[int(rng.integers(len(e)))] + d * np.exp(2j * np.pi * rng.uniform())
            near = _point(2, 5, lam, x, rng)
            pts = [near] + _distinct_points(2, 5, lam, rng, 1, taken=[near], avoid=e)
            ops.append({"kind": "near", "curve": ci, "points": pts, "dist": d})
        else:
            pts = _distinct_points(2, 5, lam, rng, 2, avoid=e)
            ops.append({"kind": "far", "curve": ci, "points": pts})
    return ops


def algebra_pool(rng: np.random.Generator, size: int = POOL_SIZE["algebra"]) -> list:
    """A fresh curve and two degree-g divisors per op; a share is hard.

    A confluent divisor doubles a point on the unit circle |x| = 1; a
    far-x one has a point with |x| = 10; a near-ramification one has a
    point 10^RAMIFICATION_LOG10 from a ramification point.
    """
    dists = iter(10.0 ** _stratified(rng, size, *RAMIFICATION_LOG10))
    ops = []
    for t in range(size):
        n, s = ALGEBRA_FAMILIES[t % len(ALGEBRA_FAMILIES)]
        g = (n - 1) * (s - 1) // 2
        lam = random_lam(n, s, rng)
        op = {"kind": "plain", "n": n, "s": s, "lam": lam}
        if t % HARD_EVERY == HARD_EVERY - 1:
            h = t // HARD_EVERY
            # the family rotates with h, so the kind steps once per family
            # rotation to meet every family
            kind = HARD_KINDS[(h // len(ALGEBRA_FAMILIES)) % len(HARD_KINDS)]
            if kind == "confluent":
                x = np.exp(2j * np.pi * rng.uniform())
                special = [_point(n, s, lam, x, rng)] * 2
            elif kind == "far-x":
                x = 10.0 * np.exp(2j * np.pi * rng.uniform())
                special = [_point(n, s, lam, x, rng)]
            else:
                r = ramification_xs(n, s, lam)
                d = next(dists)
                x = r[int(rng.integers(len(r)))] + d * np.exp(2j * np.pi * rng.uniform())
                special = [_point(n, s, lam, x, rng)]
            D1 = special + _distinct_points(n, s, lam, rng, g - len(special), taken=special)
            op["kind"] = kind
        else:
            D1 = _distinct_points(n, s, lam, rng, g)
        op["D1"] = D1
        op["D2"] = _distinct_points(n, s, lam, rng, g, taken=D1)
        ops.append(op)
    return ops


def workload_rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[workload]])


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real.hex(), obj.imag.hex()]
    if isinstance(obj, float):
        return obj.hex()
    return obj


def digest(*parts) -> str:
    """SHA-256 of the inputs, exact to the last bit of every float."""
    blob = json.dumps(_plain(list(parts)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
