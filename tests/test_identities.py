import numpy as np
import pytest

from kleinian.curves import curve_model
from kleinian.errors import IncompleteRecordError
from kleinian import acceptance
from kleinian.identities import (
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
from kleinian.sampling import random_curve, random_divisor
from kleinian.uniformization import BasisRecord, divisor_to_basis, extended_34


def test_residuals_27_random(rng):
    worst = {}
    for _ in range(30):
        curve = random_curve(2, 7, rng)
        D = random_divisor(curve, 3, rng)
        for k, v in residuals_27(divisor_to_basis(curve, D), curve).items():
            worst[k] = max(worst.get(k, 0.0), v)
    assert set(worst) == {"J10", "J12", "J14"}
    assert max(worst.values()) < 1e-8


def test_residuals_27_pham(rng):
    curve = curve_model(2, 7)
    D = random_divisor(curve, 3, rng)
    assert max(residuals_27(divisor_to_basis(curve, D), curve).values()) < 1e-8


def test_residuals_27_sensitivity(rng):
    curve = random_curve(2, 7, rng)
    D = random_divisor(curve, 3, rng)
    rec = divisor_to_basis(curve, D)
    rec.p[1] += 0.1
    assert max(residuals_27(rec, curve).values()) > 1e-3


def test_residuals_34_random(rng):
    worst = {}
    for _ in range(20):
        curve = random_curve(3, 4, rng)
        D = random_divisor(curve, 3, rng)
        rec = extended_34(curve, divisor_to_basis(curve, D))
        rec.extended.update(derivative_values_34(curve, D))
        for k, v in residuals_34(rec, curve).items():
            worst[k] = max(worst.get(k, 0.0), v)
    assert set(worst) == {"J12", "J13", "J16", "G6", "G7", "G10", "G11", "G14",
                          "E1111", "E1112", "E1115"}
    for k, v in worst.items():
        assert v < (1e-5 if k.startswith("E") else 1e-7), (k, v)


def test_derivative_values_34_match_the_rational_extension(rng):
    for _ in range(10):
        curve = random_curve(3, 4, rng)
        D = random_divisor(curve, 3, rng)
        rational = extended_34(curve, divisor_to_basis(curve, D)).extended
        jets = derivative_values_34(curve, D)
        for key in ((1, 1, 2), (1, 1, 5), (2, 2), (2, 5)):
            assert abs(jets[key] - rational[key]) < 1e-10 * (1 + abs(rational[key])), key


def test_identity_residuals_34_catch_an_error_the_rational_extension_absorbs(rng, monkeypatch):
    # extended_34 solves G6 and G7 for (2,2) and (2,5), so on its own output
    # they vanish whatever q[1] is; with the jet-flow values they see it
    real = acceptance.divisor_to_basis

    def off_by_1e4(curve, D):
        rec = real(curve, D)
        rec.q[1] += 1e-4 * (1 + abs(rec.q[1]))
        return rec

    curve = random_curve(3, 4, rng)
    D = random_divisor(curve, 3, rng)
    assert max(residuals_34(extended_34(curve, off_by_1e4(curve, D)), curve)[k]
               for k in ("G6", "G7")) < 1e-12
    monkeypatch.setattr(acceptance, "divisor_to_basis", off_by_1e4)
    out = acceptance.identity_residuals(curve, D)
    assert out["G6"] > 1e-7 and out["G7"] > 1e-7, out


def _negated_34(rec):
    """The (3,4) record at -u, from one carrying the (2,2) and (2,5)
    extension: p is even, and q mixes parities, q(-u) = -q(u) - 2 wp_{2,w}(u)."""
    wp2 = {1: rec.p[2], 2: rec.extended[(2, 2)], 5: rec.extended[(2, 5)]}
    return BasisRecord(dict(rec.p), {w: -v - 2.0 * wp2[w] for w, v in rec.q.items()})


def test_residuals_34_evenness(rng):
    # the involuted record (u -> -u) stays on the model; for a trigonal
    # curve the involution acts as q -> -q - 2 wp_{2,w}, not q -> -q
    curve = random_curve(3, 4, rng)
    D = random_divisor(curve, 3, rng)
    rec = extended_34(curve, divisor_to_basis(curve, D))
    rec_neg = extended_34(curve, _negated_34(rec))
    out = residuals_34(rec_neg, curve)
    assert max(out[k] for k in ("J12", "J13", "J16", "G6", "G7")) < 1e-8
    # the honest involuted divisor gives the same record
    from kleinian.divisors import complement, interpolate

    Dstar = complement(curve, interpolate(curve, 6, D), D)
    rec_star = divisor_to_basis(curve, Dstar)
    for w in curve.gaps:
        assert abs(rec_star.p[w] - rec_neg.p[w]) < 1e-9 * (1 + abs(rec_star.p[w]))
        assert abs(rec_star.q[w] - rec_neg.q[w]) < 1e-9 * (1 + abs(rec_star.q[w]))
    # negative control: a bare q sign flip is NOT the trigonal involution
    naive = rec.copy()
    naive.q = {w: -v for w, v in rec.q.items()}
    bad = residuals_34(extended_34(curve, naive), curve)
    assert max(bad[k] for k in ("J12", "J13", "J16")) > 1e-3


def test_residuals_34_requires_extension(rng):
    curve = random_curve(3, 4, rng)
    D = random_divisor(curve, 3, rng)
    with pytest.raises(IncompleteRecordError):
        residuals_34(divisor_to_basis(curve, D), curve)


def test_wp55_mixed_derivative(rng):
    curve = random_curve(3, 4, rng)
    D = random_divisor(curve, 3, rng)
    assert wp55_mixed_derivative_check_34(curve, D) < 1e-9


def test_build_H_matches_display(rng):
    curve = random_curve(2, 7, rng)
    D = random_divisor(curve, 3, rng)
    vals = two_index_values_27(curve, D)
    bundle = build_H(curve, vals)
    Pe, Le = explicit_PL_27(vals, curve)
    assert np.max(np.abs(bundle.P - Pe)) == 0.0
    assert np.max(np.abs(bundle.L - Le)) == 0.0
    # symmetry of the assembled matrices
    assert np.max(np.abs(bundle.P - bundle.P.T)) < 1e-12
    assert np.max(np.abs(bundle.L - bundle.L.T)) < 1e-12
    # T top block is the identity
    assert np.allclose(bundle.T[:3], np.eye(3))


def test_27_cubic_rank_kummer(rng):
    curve = random_curve(2, 7, rng)
    D = random_divisor(curve, 3, rng)
    vals = two_index_values_27(curve, D)
    bundle = build_H(curve, vals)
    assert np.max(np.abs(cubic_residual(bundle))) / cubic_scale(bundle) < 1e-9
    sv = h_rank_profile(bundle)
    assert sv[3] / sv[2] < 1e-8
    K, kd, minors = kummer_residuals(bundle)
    kscale = np.max(np.abs(K))
    assert np.max(np.abs(kd)) / kscale < 1e-9
    assert np.max(np.abs(minors)) / kscale**2 < 1e-9
    assert np.max(np.abs(K - K.T)) < 1e-12 * kscale


def test_genus1_cubic_reduction(rng):
    # the bundle machinery at genus 1 is the Weierstrass cubic
    curve = random_curve(2, 3, rng)
    D = random_divisor(curve, 1, rng)
    rec = divisor_to_basis(curve, D)
    vals = {(1, 1): rec.p[1], (1, 1, 1): rec.q[1]}
    bundle = build_H(curve, vals)
    res = cubic_residual(bundle)[0, 0]
    # -2 (wp^3 + l4 wp + l6) + wp'^2/2 = 0 under the monic convention
    direct = 0.5 * rec.q[1] ** 2 - 2.0 * (
        rec.p[1] ** 3 + curve.lam_get(4) * rec.p[1] + curve.lam_get(6)
    )
    assert abs(res - direct) < 1e-10 * (1 + abs(direct))
    assert abs(res) < 1e-10 * max(1.0, abs(rec.q[1]) ** 2)


def test_cubic_residual_q_sign_invariance(rng):
    # T^t H T has no q at all and Y2 Y2^t is quadratic in q, so flipping
    # the sign of every three-index value reproduces the residual bitwise
    curve = random_curve(2, 5, rng)
    D = random_divisor(curve, 2, rng)
    rec = divisor_to_basis(curve, D)
    vals = {
        (1, 1): rec.p[1],
        (1, 3): rec.p[3],
        (3, 3): 0.37 - 0.21j,  # any value: the invariance is structural
        (1, 1, 1): rec.q[1],
        (1, 1, 3): rec.q[3],
    }
    vals_neg = dict(vals)
    vals_neg[(1, 1, 1)] = -vals[(1, 1, 1)]
    vals_neg[(1, 1, 3)] = -vals[(1, 1, 3)]
    b1, b2 = build_H(curve, vals), build_H(curve, vals_neg)
    assert np.array_equal(cubic_residual(b1), cubic_residual(b2))
    K1, _, _ = kummer_residuals(b1)
    K2, _, _ = kummer_residuals(b2)
    assert np.array_equal(K1, K2)  # K never sees q


def test_build_H_incomplete(rng):
    curve = random_curve(2, 5, rng)
    with pytest.raises(IncompleteRecordError):
        build_H(curve, {(1, 1): 1.0})


def test_L_matrix_pham():
    # lambda = 0 leaves only the unit entries of the x^g x~^g (x + x~) term
    curve = curve_model(2, 7)
    dummy = {(w1, w2): 0.1 for w1 in (1, 3, 5) for w2 in (1, 3, 5)}
    dummy.update({(1, 1, w): 0.1 for w in (1, 3, 5)})
    bundle = build_H(curve, dummy)
    g = curve.genus
    expected = np.zeros((g + 2, g + 2), dtype=complex)
    expected[g, g + 1] = expected[g + 1, g] = 1.0
    assert np.array_equal(bundle.L, expected)
