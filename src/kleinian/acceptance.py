"""End-to-end property suite: one callable per acceptance criterion.

Each criterion returns (ok, details); the runner seeds every criterion
independently off the master seed, so individual suites reproduce
regardless of which subset runs.  The CLI `selftest` verb and the pytest
acceptance module both call into this file, keeping CI and command-line
verification identical; the CLI `verify-identities` and `theta-bridge`
verbs run the same per-divisor checks (identity_residuals, keep_worst and
identities_pass; bridge_errors).
"""

from __future__ import annotations

import math
import time
from collections import Counter

import numpy as np

from .addition import add, add27_explicit, negate
from .curves import curve_model, gap_sequence
from .divisors import Divisor, interpolate, complement, multiset_distance
from .errors import InputError, KleinianError, ThetaDivisorError
from .identities import (
    build_H,
    cubic_residual,
    cubic_scale,
    derivative_values_34,
    explicit_PL_27,
    h_rank_profile,
    kummer_residuals,
    residuals_27,
    residuals_34,
    two_index_values_27,
    wp55_mixed_derivative_check_34,
)
from .sampling import random_curve, random_divisor
from .tolerances import resolve
from .transcendental import (
    abel,
    period_matrices,
    riemann_characteristic,
    wp_theta,
)
from .uniformization import basis_flow, basis_to_divisor, divisor_to_basis, extended_34


def structural_fixtures(rng, tols):
    """Gap sequences, genus formula, monomial order prefixes."""
    ok = True
    details = {}
    ok &= gap_sequence(2, 7) == (1, 3, 5)
    ok &= gap_sequence(3, 4) == (1, 2, 5)
    ok &= gap_sequence(2, 3) == (1,)
    count_ok = True
    for n in range(2, 8):
        for s in range(n + 1, 31):
            if math.gcd(n, s) != 1 or n * s > 60:
                continue
            count_ok &= len(gap_sequence(n, s)) == (n - 1) * (s - 1) // 2
    ok &= count_ok
    c27 = curve_model(2, 7)
    prefix27 = [str(m) for m in c27.monomials_up_to(12)]
    ok &= prefix27 == ["1", "x", "x^2", "x^3", "y", "x^4", "x y", "x^5", "x^2 y", "x^6"]
    c34 = curve_model(3, 4)
    prefix34 = [str(m) for m in c34.monomials_up_to(9)]
    ok &= prefix34 == ["1", "x", "y", "x^2", "x y", "y^2", "x^3"]
    ok &= c34.sigma_weight() == -5 and c27.sigma_weight() == -6
    details["monomials_27"] = prefix27
    details["monomials_34"] = prefix34
    return bool(ok), details


def uniformization_roundtrip(rng, tols):
    """basis_to_divisor after divisor_to_basis returns the divisor."""
    worst = 0.0
    for n, s in ((2, 5), (2, 7), (3, 4)):
        for _ in range(100):
            curve = random_curve(n, s, rng)
            D = random_divisor(curve, curve.genus, rng)
            rec = divisor_to_basis(curve, D)
            D2 = basis_to_divisor(curve, rec)
            worst = max(worst, multiset_distance(D, D2))
    return worst < tols["roundtrip"], {"worst": worst, "tol": tols["roundtrip"]}


def identity_residuals(curve, D) -> dict:
    """Model residuals of D's record on a (2,7) or (3,4) curve; a (3,4)
    record is extended, its jet-flow derivative values included."""
    rec = divisor_to_basis(curve, D)
    if (curve.n, curve.s) == (2, 7):
        return residuals_27(rec, curve)
    if (curve.n, curve.s) == (3, 4):
        rec = extended_34(curve, rec)
        rec.extended.update(derivative_values_34(curve, D))
        return residuals_34(rec, curve)
    raise InputError("verify-identities supports the (2,7) and (3,4) curves")


def keep_worst(worst: dict, residuals: dict) -> None:
    """Raise each worst[name] to its residual where that is larger."""
    for k, v in residuals.items():
        worst[k] = max(worst.get(k, 0.0), v)


def identities_pass(worst: dict, tols) -> bool:
    """Every residual below its tolerance: identity-extended for the (3,4)
    extension identities (names starting with E), identity for the rest."""
    return all(
        v < tols["identity-extended" if k.startswith("E") else "identity"] for k, v in worst.items()
    )


def jacobian_model_residuals(rng, tols):
    """All model identities vanish on records from random divisors: 100 per
    family, the first 30 (3,4) ones with jet-flow derivative values."""
    worst27: dict = {}
    worst34: dict = {}
    for _ in range(100):
        curve = random_curve(2, 7, rng)
        keep_worst(worst27, identity_residuals(curve, random_divisor(curve, 3, rng)))
    for t in range(100):
        curve = random_curve(3, 4, rng)
        D = random_divisor(curve, 3, rng)
        if t < 30:
            keep_worst(worst34, identity_residuals(curve, D))
        else:  # the extended record without derivative values
            keep_worst(worst34, residuals_34(extended_34(curve, divisor_to_basis(curve, D)), curve))
    for t in range(10):
        curve = random_curve(3, 4, rng)
        D = random_divisor(curve, 3, rng)
        keep_worst(worst34, {"E55-mixed": wp55_mixed_derivative_check_34(curve, D)})
    ok = identities_pass(worst27, tols) and identities_pass(worst34, tols)
    worst = {f"27:{k}": v for k, v in worst27.items()}
    worst.update({f"34:{k}": v for k, v in worst34.items()})
    return ok, {"worst": worst}


def derivative_ladder(rng, tols):
    """Hyperelliptic q[w] equals d p[w] / du_1, read off one u_1 jet flow per divisor."""
    worst = 0.0
    for t in range(50):
        n, s = (2, 5) if t % 2 == 0 else (2, 7)
        curve = random_curve(n, s, rng)
        D = random_divisor(curve, curve.genus, rng)
        rec = divisor_to_basis(curve, D)
        p, _ = basis_flow(curve, D, 1, 1)
        for w in curve.gaps:
            dp = p[w].derivative_at_zero(1)
            worst = max(worst, abs(dp - rec.q[w]) / (1.0 + abs(rec.q[w])))
    return worst < tols["ladder"], {"worst": worst, "tol": tols["ladder"]}


def group_law(rng, tols):
    """Negation, associativity, the inverse axiom, and the explicit path.

    ``negate`` is checked against the complement route of the weight-2g
    function.  ``negate_trials`` and ``trials`` (per family) count the
    draws tested and those a KleinianError skipped, by exception class.
    """
    worst_neg = 0.0
    negate_trials = {"tested": 0, "skipped": Counter()}
    for t in range(25):
        n, s = ((2, 3), (2, 5), (2, 7))[t % 3]
        curve = random_curve(n, s, rng)
        D = random_divisor(curve, curve.genus, rng)
        try:
            ref = complement(curve, interpolate(curve, 2 * curve.genus, D), D)
        except KleinianError as exc:  # negate is untested there
            negate_trials["skipped"][type(exc).__name__] += 1
            continue
        worst_neg = max(worst_neg, multiset_distance(negate(curve, D), ref))
        negate_trials["tested"] += 1
    worst_assoc = worst_inv = 0.0
    trials = {fam: {"tested": 0, "skipped": Counter()} for fam in ("2-5", "3-4")}
    for t in range(100):  # 50 triples per family
        n, s = (2, 5) if t % 2 == 0 else (3, 4)
        tally = trials[f"{n}-{s}"]
        curve = random_curve(n, s, rng)
        D1, D2, D3 = (random_divisor(curve, curve.genus, rng) for _ in range(3))
        try:
            lhs = add(curve, add(curve, D1, D2), D3)
            rhs = add(curve, D1, add(curve, D2, D3))
            worst_assoc = max(worst_assoc, multiset_distance(lhs, rhs))
            back = add(curve, add(curve, D1, D2), negate(curve, D2))
            worst_inv = max(worst_inv, multiset_distance(back, D1))
            tally["tested"] += 1
        except KleinianError as exc:  # the law is untested there
            tally["skipped"][type(exc).__name__] += 1
    worst_explicit = 0.0
    for _ in range(50):
        curve = random_curve(2, 7, rng)
        D1, D2 = random_divisor(curve, 3, rng), random_divisor(curve, 3, rng)
        rec_hat, _ = add27_explicit(
            divisor_to_basis(curve, D1), divisor_to_basis(curve, D2), curve
        )
        R9 = interpolate(curve, 9, D1 + D2)
        Dhat = complement(curve, R9, D1 + D2)
        ref = divisor_to_basis(curve, Dhat)
        err = max(
            max(abs(rec_hat.p[w] - ref.p[w]) / (1 + abs(ref.p[w])) for w in curve.gaps),
            max(abs(rec_hat.q[w] - ref.q[w]) / (1 + abs(ref.q[w])) for w in curve.gaps),
        )
        worst_explicit = max(worst_explicit, err)
    ok = (
        worst_neg < tols["negate-pointwise"]
        and worst_assoc < tols["group-law"]
        and worst_inv < tols["group-law"]
        and worst_explicit < tols["explicit-add"]
    )
    return bool(ok), {
        "negate": worst_neg,
        "associativity": worst_assoc,
        "inverse_axiom": worst_inv,
        "explicit_vs_generic": worst_explicit,
        "negate_trials": negate_trials,
        "trials": trials,
    }


def legendre_relation(rng, tols):
    """Period matrices satisfy Legendre; tau symmetric with Im > 0, on 20
    curves of genus 1 and 20 of genus 2."""
    worst_leg = worst_sym = 0.0
    min_eig = np.inf
    for t in range(40):
        genus = 1 if t % 2 == 0 else 2
        curve = random_curve(2, 2 * genus + 1, rng)
        pd = period_matrices(curve)
        worst_leg = max(worst_leg, pd.legendre_residual)
        worst_sym = max(worst_sym, float(np.max(np.abs(pd.tau - pd.tau.T))))
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(pd.tau.imag))))
    ok = worst_leg < tols["legendre"] and worst_sym < tols["tau-symmetry"] and min_eig > 0
    return bool(ok), {"legendre": worst_leg, "tau_symmetry": worst_sym, "min_im_eig": min_eig}


def lemniscatic_constant(rng, tols):
    """y^2 = x^3 - x has tau = i."""
    curve = curve_model(2, 3, {4: -1.0})
    pd = period_matrices(curve)
    err = abs(pd.tau[0, 0] - 1j)
    return err < tols["lemniscatic"], {"tau": complex(pd.tau[0, 0]), "error": err}


def genus1_cubic_from_theta(rng, tols):
    """The Weierstrass cubic holds for wp computed purely from theta."""
    worst = 0.0
    for _ in range(5):
        curve = random_curve(2, 3, rng)
        pd = period_matrices(curve)
        ch = riemann_characteristic(pd)
        D = random_divisor(curve, 1, rng)
        u = abel(curve, D, pd)
        wp11 = wp_theta(pd, ch, u, (1, 1))
        wp111 = wp_theta(pd, ch, u, (1, 1, 1))
        l4, l6 = curve.lam_get(4), curve.lam_get(6)
        scale = max(1.0, abs(wp111) ** 2, abs(wp11) ** 3)
        worst = max(worst, abs(wp111**2 - 4 * (wp11**3 + l4 * wp11 + l6)) / scale)
    return worst < tols["g1-cubic"], {"worst": worst, "tol": tols["g1-cubic"]}


def bridge_errors(curve, D, pd, ch):
    """u = abel(D) and the relative gaps, keyed "p[w]" and "q[w]", between
    wp from theta at u and the basis values of D from divisor algebra."""
    rec = divisor_to_basis(curve, D)
    u = abel(curve, D, pd)
    errors = {}
    for w in curve.gaps:
        errors[f"p[{w}]"] = abs(wp_theta(pd, ch, u, (1, w)) - rec.p[w]) / (1.0 + abs(rec.p[w]))
        errors[f"q[{w}]"] = abs(wp_theta(pd, ch, u, (1, 1, w)) - rec.q[w]) / (1.0 + abs(rec.q[w]))
    return u, errors


def theta_bridge(rng, tols):
    """wp from theta equals wp from divisor algebra (genus 2): 4 divisors on
    each of 5 curves, a fresh one for each that falls near Sigma (``trials``
    counts both, by exception class), at most 16 draws per curve."""
    worst = 0.0
    trials = {"tested": 0, "skipped": Counter()}
    for _ in range(5):
        curve = random_curve(2, 5, rng)
        pd = period_matrices(curve)
        ch = riemann_characteristic(pd)
        completed = 0
        attempts = 0
        while completed < 4 and attempts < 16:
            attempts += 1
            try:
                _, errors = bridge_errors(curve, random_divisor(curve, 2, rng), pd, ch)
            except ThetaDivisorError as exc:  # near Sigma: draw a fresh divisor
                trials["skipped"][type(exc).__name__] += 1
                continue
            worst = max(worst, *errors.values())
            completed += 1
        trials["tested"] += completed
    return worst < tols["bridge"] and trials["tested"] >= 20, {"worst": worst, "trials": trials}


def matrix_machinery(rng, tols):
    """Cubic form, rank(H) = 3, and the Kummer quadrics, both input routes."""
    worst_cubic = worst_rank = worst_kummer = worst_minor = 0.0
    fixture_defect = 0.0
    for _ in range(6):
        curve = random_curve(2, 5, rng)
        pd = period_matrices(curve)
        ch = riemann_characteristic(pd)
        D = random_divisor(curve, 2, rng)
        u = abel(curve, D, pd)
        vals = {}
        for i, wa in enumerate(curve.gaps):
            for wb in curve.gaps[i:]:
                vals[(wa, wb)] = wp_theta(pd, ch, u, (wa, wb))
            vals[(1, 1, wa)] = wp_theta(pd, ch, u, (1, 1, wa))
        worst_cubic, worst_rank, worst_kummer, worst_minor = _bundle_checks(
            curve, vals, worst_cubic, worst_rank, worst_kummer, worst_minor
        )
    for _ in range(6):
        curve = random_curve(2, 7, rng)
        D = random_divisor(curve, 3, rng)
        vals = two_index_values_27(curve, D)
        Pe, Le = explicit_PL_27(vals, curve)
        bundle = build_H(curve, vals)
        fixture_defect = max(
            fixture_defect,
            float(np.max(np.abs(bundle.P - Pe))),
            float(np.max(np.abs(bundle.L - Le))),
        )
        worst_cubic, worst_rank, worst_kummer, worst_minor = _bundle_checks(
            curve, vals, worst_cubic, worst_rank, worst_kummer, worst_minor
        )
    ok = (
        worst_cubic < tols["cubic-matrix"]
        and worst_rank < tols["rank-gap"]
        and worst_kummer < tols["kummer"]
        and worst_minor < tols["kummer"]
        and fixture_defect == 0.0
    )
    return bool(ok), {
        "cubic": worst_cubic,
        "rank_gap": worst_rank,
        "kummer": worst_kummer,
        "minors": worst_minor,
        "fixture_defect": fixture_defect,
    }


def _bundle_checks(curve, vals, wc, wr, wk, wm):
    bundle = build_H(curve, vals)
    wc = max(wc, float(np.max(np.abs(cubic_residual(bundle)))) / cubic_scale(bundle))
    sv = h_rank_profile(bundle)
    wr = max(wr, float(sv[3] / sv[2]))
    K, kd, minors = kummer_residuals(bundle)
    kscale = float(np.max(np.abs(K)))
    wk = max(wk, float(np.max(np.abs(kd))) / kscale)
    wm = max(wm, float(np.max(np.abs(minors))) / kscale**2)
    return wc, wr, wk, wm


def homogeneity(rng, tols):
    """Sato-weight covariance of basis values under parameter scaling."""
    worst = 0.0
    for t in range(12):
        n, s = ((2, 5), (2, 7), (3, 4))[t % 3]
        curve = random_curve(n, s, rng)
        D = random_divisor(curve, curve.genus, rng)
        rec = divisor_to_basis(curve, D)
        c = complex(*rng.uniform(0.6, 1.4, 2))
        lam2 = {k: c**k * v for k, v in curve.lam.items()}
        curve2 = curve_model(n, s, lam2)
        D2 = Divisor(curve2, [(c**n * p.x, c**s * p.y) for p in D], validate=False)
        rec2 = divisor_to_basis(curve2, D2)
        for w in curve.gaps:
            worst = max(
                worst,
                abs(rec2.p[w] - c ** (w + 1) * rec.p[w]) / (1.0 + abs(rec2.p[w])),
                abs(rec2.q[w] - c ** (w + 2) * rec.q[w]) / (1.0 + abs(rec2.q[w])),
            )
    return worst < tols["homogeneity"], {"worst": worst, "tol": tols["homogeneity"]}


CRITERIA = (
    ("structural", "structural fixtures (gaps, genus, monomial order)", structural_fixtures),
    ("roundtrip", "uniformization roundtrip on (2,5), (2,7), (3,4)", uniformization_roundtrip),
    ("identities", "Jacobian-model residuals", jacobian_model_residuals),
    ("ladder", "derivative ladder q = d p / du_1", derivative_ladder),
    ("group-law", "divisor group law and explicit addition", group_law),
    ("legendre", "Legendre relation for period matrices", legendre_relation),
    ("lemniscatic", "lemniscatic curve has tau = i", lemniscatic_constant),
    ("g1-cubic", "genus-1 Weierstrass cubic from theta", genus1_cubic_from_theta),
    ("bridge", "theta path equals algebra path (genus 2)", theta_bridge),
    ("matrices", "hyperelliptic matrix machinery (cubic, rank, Kummer)", matrix_machinery),
    ("homogeneity", "Sato-weight scaling covariance", homogeneity),
)


def run_acceptance(seed: int = 0, suites=None, tol_overrides=None, echo=print) -> dict:
    """Run the acceptance criteria; returns a JSON-ready report."""
    tols = resolve(tol_overrides)
    wanted = set(suites) if suites else None
    report = {"seed": seed, "criteria": [], "ok": True}
    for idx, (key, name, fn) in enumerate(CRITERIA, start=1):
        if wanted and key not in wanted:
            continue
        rng = np.random.default_rng([seed, idx])
        t0 = time.time()
        try:
            ok, details = fn(rng, tols)
        except KleinianError as exc:
            ok, details = False, {"error": str(exc)}
        elapsed = time.time() - t0
        report["criteria"].append(
            {"id": idx, "key": key, "name": name, "ok": bool(ok), "elapsed_s": round(elapsed, 3), "details": _jsonable(details)}
        )
        report["ok"] &= bool(ok)
        if echo:
            echo(f"[{'PASS' if ok else 'FAIL'}] {idx:2d}. {name} ({elapsed:.2f}s)")
    return report


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
