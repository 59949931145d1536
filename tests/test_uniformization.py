import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinian import divisors, uniformization
from kleinian.curves import curve_model
from kleinian.divisors import (
    Divisor,
    fiber_points,
    interpolate,
    multiset_distance,
)
from kleinian.errors import (
    BranchPointError,
    InconsistentRecordError,
    InvalidCurveError,
    PoleOfRepresentationError,
    SpecialDivisorError,
)
from kleinian.sampling import random_curve, random_divisor
from kleinian.transcendental import branch_points
from kleinian.uniformization import (
    BasisRecord,
    abel_jacobian,
    basis_flow,
    basis_to_divisor,
    divisor_to_basis,
    extended_34,
    solution_polynomials,
)

FAMILIES = ((2, 5), (2, 7), (3, 4))
FAMILY_IDS = ["2-5", "2-7", "3-4"]


def test_genus1_record():
    curve = curve_model(2, 3, {4: -1.0})
    x1, y1 = 2.0, np.sqrt(6.0)
    rec = divisor_to_basis(curve, Divisor(curve, [(x1, y1)]))
    assert abs(rec.p[1] - x1) < 1e-13
    assert abs(rec.q[1] + 2.0 * y1) < 1e-13
    D = basis_to_divisor(curve, rec)
    assert abs(D.points[0].x - x1) < 1e-13 and abs(D.points[0].y - y1) < 1e-13


def test_27_vieta(rng):
    curve = random_curve(2, 7, rng)
    D = random_divisor(curve, 3, rng)
    rec = divisor_to_basis(curve, D)
    xs = D.xs()
    assert abs(rec.p[1] - xs.sum()) < 1e-10
    assert abs(rec.p[3] + (xs[0] * xs[1] + xs[0] * xs[2] + xs[1] * xs[2])) < 1e-10
    assert abs(rec.p[5] - xs.prod()) < 1e-10


def test_34_solution_polynomial_display(rng):
    # R_lo from the record equals the monic weight-6 interpolation
    curve = random_curve(3, 4, rng)
    D = random_divisor(curve, 3, rng)
    rec = divisor_to_basis(curve, D)
    R6 = interpolate(curve, 6, D)
    R_lo, R_hi = solution_polynomials(curve, rec)
    for key in set(R6.coeffs) | set(R_lo.coeffs):
        assert abs(R6.coeffs.get(key, 0) - R_lo.coeffs.get(key, 0)) < 1e-9
    # coefficient pattern: x^2 - y p[1] - x p[2] - p[5]
    assert abs(R_lo.coeffs[(0, 1)] + rec.p[1]) < 1e-12
    assert abs(R_lo.coeffs[(1, 0)] + rec.p[2]) < 1e-12
    assert abs(R_lo.coeffs[(0, 0)] + rec.p[5]) < 1e-12
    # R_hi vanishes on D with leading coefficient 2 on x y
    assert abs(R_hi.coeffs[(1, 1)] - 2.0) < 1e-15
    for p in D:
        assert abs(R_hi.eval(p.x, p.y)) < 1e-8 * max(1.0, R_hi.term_scale(p.x, p.y))


def test_roundtrip_all_families(rng):
    for n, s in FAMILIES:
        worst = 0.0
        for _ in range(30):
            curve = random_curve(n, s, rng)
            D = random_divisor(curve, curve.genus, rng)
            worst = max(worst, multiset_distance(D, basis_to_divisor(curve, divisor_to_basis(curve, D))))
        assert worst < 1e-8


@pytest.mark.parametrize("s", [5, 7])
def test_confluent_roundtrip_recovers_the_double_point(s):
    # a double x-root of the record's polynomial splits by ~1e-8 under the
    # companion-matrix eigenvalues; clustered and polished on the derivative
    # it comes back to rounding
    rng = np.random.default_rng(40 + s)
    worst = 0.0
    for _ in range(10):
        curve = random_curve(2, s, rng)
        pts = list(random_divisor(curve, curve.genus, rng).points)
        D = Divisor(curve, [pts[0]] + pts[:-1])
        assert D.points[0].x == D.points[1].x
        worst = max(worst, multiset_distance(D, basis_to_divisor(curve, divisor_to_basis(curve, D))))
    assert worst < 1e-8


def test_special_divisor_raises(rng):
    # two involution-paired points make the hyperelliptic system singular
    curve = random_curve(2, 7, rng)
    D = random_divisor(curve, 3, rng)
    p = D.points[0]
    bad = Divisor(curve, [(p.x, p.y), (p.x, -p.y), D.points[1]], validate=False)
    with pytest.raises(Exception) as exc_info:
        divisor_to_basis(curve, bad)
    assert exc_info.type.__name__ in ("NonReducedDivisorError", "SpecialDivisorError")


@pytest.mark.parametrize("ns", FAMILIES, ids=FAMILY_IDS)
def test_perturbed_record_rejected(rng, ns):
    # a 10 percent violation of the model must not invert cleanly
    curve = random_curve(*ns, rng)
    D = random_divisor(curve, curve.genus, rng)
    rec = divisor_to_basis(curve, D)
    w = curve.gaps[1]
    rec.q[w] = rec.q[w] * 1.1 + 0.1
    with pytest.raises(InconsistentRecordError):
        basis_to_divisor(curve, rec)


def test_record_free_of_y_at_a_root_rejected():
    # (3,4) with p[1] = q[1] = 0: R_lo = (x - x1)(x - x2) and
    # R_hi = 2 x y + q[2] x + q[5] through two curve points, so the
    # resultant's root x = 0 has no y in either polynomial
    curve = curve_model(3, 4, {6: 0.3})
    (x1, y1), (x2, y2) = ((x, fiber_points(curve, [x])[0][0]) for x in (0.4 + 0.2j, -0.7 + 0.5j))
    q2, q5 = np.linalg.solve([[x1, 1.0], [x2, 1.0]], [-2.0 * x1 * y1, -2.0 * x2 * y2])
    rec = BasisRecord({1: 0.0, 2: x1 + x2, 5: -x1 * x2}, {1: 0.0, 2: q2, 5: q5})
    with pytest.raises(InconsistentRecordError, match="free of y"):
        basis_to_divisor(curve, rec)


def test_basis_to_divisor_takes_no_resultant_with_f(rng, monkeypatch):
    # one path for every family: the 2x2 y-resultant of (R_lo, R_hi), never
    # the zero divisor of R_lo nor its resultant with the curve equation
    calls = []
    for module in (divisors, uniformization):
        for name in ("zero_divisor", "y_resultant"):
            monkeypatch.setattr(module, name, lambda *a, _n=name: calls.append(_n), raising=False)
    for n, s in FAMILIES:
        curve = random_curve(n, s, rng)
        D = random_divisor(curve, curve.genus, rng)
        assert multiset_distance(D, basis_to_divisor(curve, divisor_to_basis(curve, D))) < 1e-8
    assert calls == []


def test_roundtrip_of_simple_divisors_ends_at_rounding(algebra_ops):
    # one Newton polish per simple point: unpolished, 4 of the fixture's
    # non-confluent ops come back 1.2e-14 .. 5.1e-14 off
    worst = 0.0
    for kind, curve, D1, _ in algebra_ops.values():
        if kind != "confluent":
            back = basis_to_divisor(curve, divisor_to_basis(curve, D1))
            worst = max(worst, multiset_distance(D1, back))
    assert worst < 1e-14


def test_roundtrip_polishes_on_the_better_conditioned_pair(algebra_ops, monkeypatch):
    # a (3,4) op whose points, polished on (R_hi, f), once came back 8.1e-14
    # off, 27x their unpolished 3.0e-15; (R_lo, f) is the better-conditioned
    # system there
    _, curve, D1, _ = algebra_ops["9:278"]
    rec = divisor_to_basis(curve, D1)
    polished = multiset_distance(D1, basis_to_divisor(curve, rec))
    monkeypatch.setattr(uniformization, "_polish_common_zero", lambda curve, R, x, y: (x, y))
    assert polished <= 4.0 * multiset_distance(D1, basis_to_divisor(curve, rec))


@pytest.mark.parametrize("kind", ["confluent", "far-x", "near-ramification"])
@pytest.mark.parametrize("ns", FAMILIES, ids=FAMILY_IDS)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.floats(-5.0, -2.0))
def test_roundtrip_at_hard_divisors(hard_divisor, ns, kind, seed, log10_dist):
    # the benchmark's hard shares: a doubled point on |x| = 1, a point at
    # |x| = 10, a point 1e-5..1e-2 from a ramification point
    curve, D, _ = hard_divisor(ns, kind, seed, log10_dist)
    back = basis_to_divisor(curve, divisor_to_basis(curve, D))
    assert multiset_distance(D, back) < 1e-8


def test_wrong_degree_rejected(rng):
    curve = random_curve(2, 5, rng)
    with pytest.raises(InvalidCurveError):
        divisor_to_basis(curve, random_divisor(curve, 1, rng))


def test_abel_jacobian_genus1():
    curve = curve_model(2, 3, {4: -1.0})
    D = Divisor(curve, [(2.0, np.sqrt(6.0))])
    M = abel_jacobian(curve, D)
    assert abs(M[0, 0] + 1.0 / (2.0 * np.sqrt(6.0))) < 1e-14


def test_abel_jacobian_degenerates_toward_involution(rng):
    curve = random_curve(2, 5, rng)
    D = random_divisor(curve, 2, rng)
    p = D.points[0]
    dets = []
    for eps in (0.1, 0.01, 0.001):
        # the point over p.x + eps on p's branch
        ys = fiber_points(curve, [p.x + eps])[0]
        y = ys[np.argmin(np.abs(ys - p.y))]
        close = Divisor(curve, [(p.x + eps, -y), p], validate=False)
        M = abel_jacobian(curve, close)
        dets.append(abs(np.linalg.det(M)))
    assert dets[2] < dets[1] < dets[0]


def test_basis_flow_symmetry(rng):
    # d wp_{1,wi} / du_wj is symmetric in (wi, wj): both are wp_{1,wi,wj}
    curve = random_curve(2, 5, rng)
    D = random_divisor(curve, 2, rng)
    d13 = basis_flow(curve, D, 3, 1)[0][1].derivative_at_zero(1)
    d31 = basis_flow(curve, D, 1, 1)[0][3].derivative_at_zero(1)
    assert abs(d13 - d31) < 1e-10 * (1 + abs(d13))


def test_ladder_jets(rng):
    curve = random_curve(2, 7, rng)
    D = random_divisor(curve, 3, rng)
    rec = divisor_to_basis(curve, D)
    p, _ = basis_flow(curve, D, 1, 1)
    for w in curve.gaps:
        jet = p[w].derivative_at_zero(1)
        assert abs(jet - rec.q[w]) < 1e-10 * (1 + abs(rec.q[w]))


def test_34_q3_via_derivative(rng):
    curve = random_curve(3, 4, rng)
    D = random_divisor(curve, 3, rng)
    rec = divisor_to_basis(curve, D)
    wp111 = basis_flow(curve, D, 1, 1)[0][1].derivative_at_zero(1)
    assert abs(rec.q[1] - (wp111 - rec.p[2])) < 1e-10


@pytest.mark.parametrize("ns", [(2, 5), (2, 7)], ids=["2-5", "2-7"])
def test_basis_flow_rejects_a_branch_point(rng, ns):
    curve = random_curve(*ns, rng)
    D = random_divisor(curve, curve.genus, rng)
    e = branch_points(curve)[0]
    bad = Divisor(curve, [(e, 0.0), *D.points[1:]], validate=False)
    with pytest.raises(BranchPointError):
        basis_flow(curve, bad, 1, 1)


def test_basis_flow_rejects_a_negative_order(rng):
    curve = random_curve(2, 5, rng)
    D = random_divisor(curve, curve.genus, rng)
    with pytest.raises(InvalidCurveError, match="non-negative"):
        basis_flow(curve, D, 1, -1)


@pytest.mark.parametrize("ns", FAMILIES, ids=FAMILY_IDS)
def test_basis_flow_rejects_a_special_divisor(rng, ns):
    # hyperelliptic: an involution pair; (3,4): the full fiber over one x
    curve = random_curve(*ns, rng)
    D = random_divisor(curve, curve.genus, rng)
    x = D.points[0].x
    ys = fiber_points(curve, [x])[0][: curve.genus if curve.n == 3 else 2]
    bad = Divisor(curve, [*((x, y) for y in ys), *D.points[len(ys):]], validate=False)
    with pytest.raises(SpecialDivisorError):
        basis_flow(curve, bad, 1, 1)


def test_extended_34_pham(rng):
    # lambda = 0: wp_1111 = 6 p2^2 - 3 wp22
    curve = curve_model(3, 4)
    D = random_divisor(curve, 3, rng)
    rec = extended_34(curve, divisor_to_basis(curve, D))
    lhs = rec.extended[(1, 1, 1, 1)]
    rhs = 6.0 * rec.p[1] ** 2 - 3.0 * rec.extended[(2, 2)]
    assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))


def test_extended_34_derivative_crosscheck(rng):
    curve = random_curve(3, 4, rng)
    D = random_divisor(curve, 3, rng)
    rec = extended_34(curve, divisor_to_basis(curve, D))
    p, q = basis_flow(curve, D, 1, 1)
    d1 = (q[1] + p[2]).derivative_at_zero(1)
    assert abs(rec.extended[(1, 1, 1, 1)] - d1) < 1e-10 * (1 + abs(d1))


def test_extended_34_pole(rng):
    curve = random_curve(3, 4, rng)
    D = random_divisor(curve, 3, rng)
    rec = divisor_to_basis(curve, D)
    rec.p[1] = 0.0
    with pytest.raises(PoleOfRepresentationError):
        extended_34(curve, rec)


def test_extended_relabeling_invariance(rng):
    curve = random_curve(3, 4, rng)
    D = random_divisor(curve, 3, rng)
    rec1 = extended_34(curve, divisor_to_basis(curve, D))
    shuffled = Divisor(curve, [D.points[2], D.points[0], D.points[1]], validate=False)
    rec2 = extended_34(curve, divisor_to_basis(curve, shuffled))
    assert abs(rec1.extended[(2, 2)] - rec2.extended[(2, 2)]) < 1e-10


def test_evenness_surrogate(rng):
    # involution of the divisor fixes p and flips q (hyperelliptic)
    curve = random_curve(2, 7, rng)
    D = random_divisor(curve, 3, rng)
    rec = divisor_to_basis(curve, D)
    recI = divisor_to_basis(curve, Divisor(curve, [(p.x, -p.y) for p in D], validate=False))
    for w in curve.gaps:
        assert abs(rec.p[w] - recI.p[w]) < 1e-10 * (1 + abs(rec.p[w]))
        assert abs(rec.q[w] + recI.q[w]) < 1e-10 * (1 + abs(rec.q[w]))


def test_homogeneity_of_basis_values(rng):
    for n, s in FAMILIES:
        curve = random_curve(n, s, rng)
        D = random_divisor(curve, curve.genus, rng)
        rec = divisor_to_basis(curve, D)
        c = complex(*rng.uniform(0.7, 1.3, 2))
        curve2 = curve_model(n, s, {k: c**k * v for k, v in curve.lam.items()})
        D2 = Divisor(curve2, [(c**n * p.x, c**s * p.y) for p in D], validate=False)
        rec2 = divisor_to_basis(curve2, D2)
        for w in curve.gaps:
            assert abs(rec2.p[w] - c ** (w + 1) * rec.p[w]) < 1e-9 * (1 + abs(rec2.p[w]))
            assert abs(rec2.q[w] - c ** (w + 2) * rec.q[w]) < 1e-9 * (1 + abs(rec2.q[w]))


def test_abel_jacobian_row_scaling(rng):
    # under lambda_k -> c^k lambda_k, (x,y) -> (c^n x, c^s y), the row of
    # gap w scales by c^(-w-n): du_w has weight -w and x has weight n
    curve = random_curve(2, 5, rng)
    D = random_divisor(curve, 2, rng)
    M1 = abel_jacobian(curve, D)
    c = complex(*rng.uniform(0.7, 1.3, 2))
    curve2 = curve_model(2, 5, {k: c**k * v for k, v in curve.lam.items()})
    D2 = Divisor(curve2, [(c**2 * p.x, c**5 * p.y) for p in D], validate=False)
    M2 = abel_jacobian(curve2, D2)
    for i, w in enumerate(curve.gaps):
        factor = c ** (-w - curve.n)
        assert np.max(np.abs(M2[i] - factor * M1[i])) < 1e-10 * np.max(np.abs(M2[i]))
