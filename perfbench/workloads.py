"""The three workloads: set-up, one op, and the check that classifies it.

An op calls the library's public functions through their modules
(``T.abel``, not a name bound at import), so the traced run sees the
wrappers it installs.  ``run_op`` returns an ``Outcome``: ``ok``,
``raised`` (a ``KleinianError``; its class is kept) or ``wrong`` (returned
outside a tolerance without raising).  Any other exception propagates and
aborts the benchmark.  Tolerances come from ``tolerances.json`` beside
this file, never from ``kleinian.tolerances``.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

import inputs

import kleinian.addition as A
import kleinian.curves as C
import kleinian.divisors as DV
import kleinian.identities as I
import kleinian.transcendental as T
import kleinian.uniformization as U
from kleinian.errors import KleinianError

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "tolerances.json")) as fh:
    TOL = json.load(fh)

DIGITS_CAP = 16.0  # a residual of exactly 0 reads as 16 digits


@dataclass
class Outcome:
    status: str  # "ok" | "raised" | "wrong"
    ms: float
    residual: float = math.nan  # worst relative residual over the op's checks
    error: str = ""
    failed_checks: list = field(default_factory=list)

    @property
    def digits(self) -> float:
        if self.residual != self.residual:
            return math.nan
        return DIGITS_CAP if self.residual <= 10.0**-DIGITS_CAP else -math.log10(self.residual)


class Checks:
    """Collects (name, residual, tolerance) and the worst relative residual."""

    def __init__(self):
        self.worst = 0.0
        self.failed = []

    def add(self, name: str, residual: float, tol: float):
        residual = float(residual)
        if not residual <= tol:  # NaN fails too
            self.failed.append(name)
        self.worst = max(self.worst, residual) if residual == residual else math.inf


def _pts(D) -> np.ndarray:
    return np.array([[p.x, p.y] for p in D.points], dtype=complex).reshape(-1, 2)


def multiset_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Optimally matched worst point distance between two point multisets,
    relative to 1 + the largest coordinate of ``a``."""
    if a.shape != b.shape:
        return math.inf
    cost = np.abs(a[:, None, 0] - b[None, :, 0]) + np.abs(a[:, None, 1] - b[None, :, 1])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols])) / (1.0 + float(np.max(np.abs(a))))


# -- periods -------------------------------------------------------------------


def setup_periods(seed: int) -> dict:
    pool = inputs.periods_pool(inputs.workload_rng("periods", seed))
    return {"pool": pool, "digest": inputs.digest("periods", pool)}


def op_periods(state: dict, spec: dict) -> Checks:
    curve = C.curve_model(spec["n"], spec["s"], spec["lam"])
    g = curve.genus
    e = T.branch_points(curve)
    pd = T.period_matrices(curve, best_effort_genus3=(g == 3))
    ch = T.riemann_characteristic(pd)
    chk = Checks()
    Omega = np.block([[pd.omega, pd.omega_prime], [pd.eta, pd.eta_prime]])
    J = np.block([[np.zeros((g, g)), -np.eye(g)], [np.eye(g), np.zeros((g, g))]])
    leg = np.max(np.abs(Omega.T @ J @ Omega - 2j * np.pi * J))
    chk.add("legendre", leg / max(1.0, float(np.max(np.abs(Omega))) ** 2), TOL["legendre"])
    tau = np.linalg.solve(pd.omega, pd.omega_prime)
    tscale = 1.0 + float(np.max(np.abs(tau)))
    chk.add("tau-symmetry", np.max(np.abs(tau - tau.T)) / tscale, TOL["tau-symmetry"])
    chk.add("tau-match", np.max(np.abs(tau - pd.tau)) / tscale, TOL["tau-symmetry"])
    if not np.min(np.linalg.eigvalsh(pd.tau.imag)) > 0:
        chk.failed.append("im-tau-positive")
    halves = 2.0 * np.concatenate(ch.vectors())
    if len(halves) != 2 * g or np.any(np.abs(halves - np.round(halves)) > 0):
        chk.failed.append("characteristic")
    if len(e) != 2 * g + 1:
        chk.failed.append("branch-points")
    return chk


# -- bridge --------------------------------------------------------------------


def setup_bridge(seed: int) -> dict:
    """Period data and characteristic of BRIDGE_CURVES genus-2 curves.

    A candidate curve whose period data or characteristic raises is
    skipped (and counted) and the next candidate is tried, so every op
    has certified period data to work with.
    """
    rng = inputs.workload_rng("bridge", seed)
    candidates = inputs.bridge_curves(rng, 4 * inputs.BRIDGE_CURVES)
    curves, skipped = [], 0
    for lam in candidates:
        curve = C.curve_model(2, 5, lam)
        try:
            pd = T.period_matrices(curve)
            ch = T.riemann_characteristic(pd)
        except KleinianError:
            skipped += 1
            continue
        curves.append((lam, curve, pd, ch))
        if len(curves) == inputs.BRIDGE_CURVES:
            break
    else:
        raise RuntimeError("too few genus-2 curves with certified period data")
    lams = [c[0] for c in curves]
    pool = inputs.bridge_pool(rng, lams)
    return {"pool": pool, "curves": curves, "skipped_curves": skipped,
            "digest": inputs.digest("bridge", lams, pool)}


def _bundle_checks(chk: Checks, curve, vals: dict):
    bundle = I.build_H(curve, vals)
    cub = I.cubic_residual(bundle)
    Y2 = bundle.Upsilon2.reshape(-1, 1)
    cscale = float(np.max(np.abs(bundle.T.T) @ np.abs(bundle.H) @ np.abs(bundle.T)
                          + 2.0 * np.abs(Y2 @ Y2.T)))
    chk.add("cubic", np.max(np.abs(cub)) / cscale, TOL["cubic"])
    K, kd, minors = I.kummer_residuals(bundle)
    kscale = float(np.max(np.abs(K)))
    chk.add("kummer", np.max(np.abs(kd)) / kscale, TOL["kummer"])
    chk.add("kummer-minors", np.max(np.abs(minors)) / kscale**2, TOL["kummer"])


def op_bridge(state: dict, spec: dict) -> Checks:
    _, curve, pd, ch = state["curves"][spec["curve"]]
    D = DV.Divisor(curve, spec["points"])
    rec = U.divisor_to_basis(curve, D)
    u = T.abel(curve, D, pd)
    gaps = curve.gaps
    vals = {}
    for i, wa in enumerate(gaps):
        for wb in gaps[i:]:
            vals[(wa, wb)] = T.wp_theta(pd, ch, u, (wa, wb))
    for w in gaps:
        vals[(1, 1, w)] = T.wp_theta(pd, ch, u, (1, 1, w))
    chk = Checks()
    for w in gaps:
        chk.add("bridge-p", abs(vals[(1, w)] - rec.p[w]) / (1.0 + abs(rec.p[w])), TOL["bridge"])
        chk.add("bridge-q", abs(vals[(1, 1, w)] - rec.q[w]) / (1.0 + abs(rec.q[w])), TOL["bridge"])
    _bundle_checks(chk, curve, vals)
    return chk


# -- algebra -------------------------------------------------------------------


def setup_algebra(seed: int) -> dict:
    pool = inputs.algebra_pool(inputs.workload_rng("algebra", seed))
    return {"pool": pool, "digest": inputs.digest("algebra", pool)}


def op_algebra(state: dict, spec: dict) -> Checks:
    curve = C.curve_model(spec["n"], spec["s"], spec["lam"])
    hyper = curve.n == 2
    D1 = DV.Divisor(curve, spec["D1"])
    D2 = DV.Divisor(curve, spec["D2"])
    chk = Checks()
    rec = U.divisor_to_basis(curve, D1)
    back = U.basis_to_divisor(curve, rec)
    chk.add("roundtrip", multiset_gap(_pts(D1), _pts(back)), TOL["roundtrip"])
    if (curve.n, curve.s) == (2, 7):
        res = I.residuals_27(rec, curve)
    elif (curve.n, curve.s) == (3, 4):
        res = I.residuals_34(U.extended_34(curve, rec), curve)
    else:
        res = {}
    for key, v in res.items():
        chk.add(f"identity:{key}", v, TOL["identity-extended" if key.startswith("E") else "identity"])
    N1 = A.negate(curve, D1)
    if hyper:
        ref = _pts(D1) * np.array([1.0, -1.0])
        chk.add("negate-pointwise", multiset_gap(ref, _pts(N1)), TOL["negate-pointwise"])
    elif N1.degree != curve.genus:
        chk.failed.append("negate-degree")
    S = A.add(curve, D1, D2)
    back = A.add(curve, S, A.negate(curve, D2))
    chk.add("group-law", multiset_gap(_pts(D1), _pts(back)), TOL["group-law"])
    return chk


WORKLOADS = {
    "periods": (setup_periods, op_periods),
    "bridge": (setup_bridge, op_bridge),
    "algebra": (setup_algebra, op_algebra),
}


def run_op(op_fn, state: dict, spec: dict) -> Outcome:
    """One closed-loop op: time the library calls, then classify."""
    t0 = time.perf_counter()
    try:
        chk = op_fn(state, spec)
    except KleinianError as exc:
        ms = 1e3 * (time.perf_counter() - t0)
        return Outcome("raised", ms, error=type(exc).__name__)
    ms = 1e3 * (time.perf_counter() - t0)
    status = "wrong" if chk.failed else "ok"
    return Outcome(status, ms, residual=chk.worst, failed_checks=chk.failed)
