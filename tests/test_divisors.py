import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinian import divisors, roots, series, uniformization
from kleinian.addition import add, negate
from kleinian.curves import curve_model, y_split
from kleinian.divisors import (
    Divisor,
    PolyFunction,
    branch_jet,
    complement,
    fiber_points,
    interpolate,
    interpolate_y_linear,
    multiset_distance,
    poly_mul_raw,
    y_resultant,
    zero_divisor,
)
from kleinian.errors import (
    BranchPointError,
    InconsistencyError,
    KleinianError,
    NonReducedDivisorError,
    SpecialDivisorError,
)
from kleinian.roots import newton_polish, poly_roots
from kleinian.sampling import random_curve, random_divisor
from kleinian.uniformization import basis_to_divisor, divisor_to_basis

FAMILIES = ((2, 5), (2, 7), (3, 4))
FAMILY_IDS = ["2-5", "2-7", "3-4"]


def test_interpolate_genus1_line():
    curve = curve_model(2, 3, {4: -1.0})
    D = Divisor(curve, [(2.0, np.sqrt(6.0))])
    R = interpolate(curve, 2, D)
    assert set(R.coeffs) == {(1, 0), (0, 0)}
    assert abs(R.coeffs[(1, 0)] - 1.0) < 1e-15
    assert abs(R.coeffs[(0, 0)] + 2.0) < 1e-12


def test_interpolation_exactness_random():
    rng = np.random.default_rng(5)
    for n, s in FAMILIES:
        worst = 0.0
        for _ in range(200):
            curve = random_curve(n, s, rng)
            g = curve.genus
            D = random_divisor(curve, g, rng)
            R = interpolate(curve, 2 * g, D)
            for p in D:
                worst = max(worst, abs(R.eval(p.x, p.y)) / max(1.0, R.term_scale(p.x, p.y)))
        assert worst < 1e-9


def test_34_determinant_ratio_oracle(rng):
    # weight-6 interpolation equals the 4x4 / 3x3 determinant ratio
    curve = random_curve(3, 4, rng)
    D = random_divisor(curve, 3, rng)
    R = interpolate(curve, 6, D)
    xs, ys = D.xs(), D.ys()

    def ratio(x, y):
        num = np.array(
            [
                [x**2, y, x, 1.0],
                [xs[0] ** 2, ys[0], xs[0], 1.0],
                [xs[1] ** 2, ys[1], xs[1], 1.0],
                [xs[2] ** 2, ys[2], xs[2], 1.0],
            ]
        )
        den = np.array([[ys[0], xs[0], 1.0], [ys[1], xs[1], 1.0], [ys[2], xs[2], 1.0]])
        return np.linalg.det(num) / np.linalg.det(den)

    for _ in range(5):
        x = complex(*rng.uniform(-1, 1, 2))
        y = fiber_points(curve, [x])[0, 1]
        assert abs(R.eval(x, y) - ratio(x, y)) < 1e-9 * max(1.0, abs(ratio(x, y)))


def test_confluent_interpolation(rng):
    for n, s in FAMILIES:
        curve = random_curve(n, s, rng)
        g = curve.genus
        base = random_divisor(curve, g - 1, rng)
        doubled = Divisor(curve, list(base.points) + [base.points[0]], validate=False)
        R = interpolate(curve, 2 * g, doubled)
        p = base.points[0]
        fy = curve.eval_fy(p.x, p.y)
        dRdx = R.eval_dx(p.x, p.y) - R.eval_dy(p.x, p.y) * curve.eval_fx(p.x, p.y) / fy
        scale = max(1.0, R.term_scale(p.x, p.y))
        assert abs(R.eval(p.x, p.y)) / scale < 1e-7
        assert abs(dRdx) / scale < 1e-7


def test_interpolation_builds_one_jet_per_repeated_point(rng, monkeypatch):
    # the basis and the leads share one row pass, so the Newton on jets of
    # branch_jet runs once per repeated point and solve, and the rows split
    # into the same A and B as two passes
    calls, real = [], divisors.branch_jet
    monkeypatch.setattr(divisors, "branch_jet", lambda *a: calls.append(a) or real(*a))
    for n, s in FAMILIES:
        curve = random_curve(n, s, rng)
        g = curve.genus
        base = random_divisor(curve, g - 1, rng)
        doubled = Divisor(curve, list(base.points) + [base.points[0]], validate=False)
        mons = curve.monomials_up_to(2 * g)
        del calls[:]
        C = divisors.interpolate_in_basis(curve, mons[:-1], [(mons[-1], 1.0)], doubled)
        assert len(calls) == 1
        A = divisors.interpolation_rows(curve, mons[:-1], doubled)
        B = -(divisors.interpolation_rows(curve, mons[-1:], doubled) * [1.0])
        E, r, c = divisors._equilibrate(A)
        assert np.array_equal(C, np.linalg.solve(E, B / r[:, None]) / c[:, None])


@pytest.mark.parametrize("sep", (0.0, 1e-13, 1e-10), ids=["pair", "1e-13", "1e-10"])
@pytest.mark.parametrize("ns", ((2, 5), (2, 7)), ids=["2-5", "2-7"])
def test_interpolation_through_an_involution_pair_raises_on_every_draw(ns, sep):
    # P, the mirror of the point over x(P) + sep, and the rest of a degree-g
    # divisor: the weight-2g function through it is not (well) determined.
    # Elimination rounding once let 20 of 50 exact (2,7) pairs through, and
    # pairs 1e-13..1e-10 apart returned a function whose complement drifted
    for seed in range(50):
        rng = np.random.default_rng(seed)
        curve = random_curve(*ns, rng)
        x = complex(rng.normal(), rng.normal())
        y = fiber_points(curve, [x])[0][0]
        ys = fiber_points(curve, [x + sep])[0]
        pair = [(x, y), (x + sep, ys[int(np.argmin(np.abs(ys + y)))])]
        rest = random_divisor(curve, curve.genus - 2, rng).points
        D = Divisor(curve, pair + list(rest), validate=False)
        with pytest.raises(SpecialDivisorError):
            interpolate(curve, 2 * curve.genus, D)


def test_branch_jet_rejects_branch_points():
    curve = curve_model(2, 3, {4: -1.0})
    with pytest.raises(BranchPointError):
        branch_jet(curve, 1.0, 0.0, 2)


def test_zero_divisor_fiber():
    curve = curve_model(2, 3, {4: -1.0})
    x1 = 2.0
    y1 = np.sqrt(6.0)
    R = interpolate(curve, 2, Divisor(curve, [(x1, y1)]))
    Z = zero_divisor(curve, R)
    assert Z.degree == 2
    got = sorted([(p.x.real, p.y.real) for p in Z])
    assert abs(got[0][1] + got[1][1]) < 1e-12
    assert all(abs(x - 2.0) < 1e-12 for x, _ in got)


def test_zero_divisor_pham_34():
    # zeros of (y - 1, f) on the Pham (3,4) curve: the four points (i^k, 1)
    curve = curve_model(3, 4)
    from kleinian.divisors import PolyFunction

    R = PolyFunction(curve, {(0, 1): 1.0, (0, 0): -1.0})
    Z = zero_divisor(curve, R)
    assert Z.degree == 4
    xs = np.sort_complex(Z.xs())
    assert np.allclose(np.sort_complex(np.array([1, -1, 1j, -1j])), xs, atol=1e-10)
    assert np.allclose(Z.ys(), 1.0, atol=1e-10)


def _hungarian_distance(A, B):
    """multiset_distance's reference: the worst pair of scipy's least-sum matching."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(A.xs()[:, None] - B.xs()[None, :]) + np.abs(A.ys()[:, None] - B.ys()[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols])) / (1.0 + max(np.max(np.abs(A.xs())), np.max(np.abs(A.ys()))))


def test_multiset_distance_is_the_worst_pair_of_a_least_sum_matching(rng):
    curve = random_curve(3, 4, rng)

    def points(d):
        xs = rng.normal(size=d) + 1j * rng.normal(size=d)
        return [(x, ys[rng.integers(3)]) for x, ys in zip(xs, fiber_points(curve, xs))]

    def divisor(pts):
        return Divisor(curve, pts, validate=False)

    pairs = []
    for d in range(1, 10):
        for _ in range(10):
            A = points(d)
            noise = 10.0 ** rng.uniform(-12, 0, size=(d, 2)) * np.exp(2j * np.pi * rng.uniform(size=(d, 2)))
            near = [(x + e[0], y + e[1]) for (x, y), e in zip(A, noise)]
            pairs += [(A, points(d)), (A, [near[i] for i in rng.permutation(d)])]
    p, q, r = points(3)  # exact ties: several least-sum matchings
    pairs += [([p, p, q], [q, q, p]), ([p, p, p, q], [q, p, r, p]), ([q] * 5, [q] * 5)]
    for A, B in pairs:
        assert multiset_distance(divisor(A), divisor(B)) == _hungarian_distance(divisor(A), divisor(B))


def test_zero_divisor_containment(rng):
    for n, s in FAMILIES:
        curve = random_curve(n, s, rng)
        g = curve.genus
        D = random_divisor(curve, 2 * g, rng)
        R = interpolate(curve, 3 * g, D)
        Z = zero_divisor(curve, R)
        assert Z.degree == 3 * g
        # containment: match D into Z
        from scipy.optimize import linear_sum_assignment

        cost = np.abs(D.xs()[:, None] - Z.xs()[None, :]) + np.abs(
            D.ys()[:, None] - Z.ys()[None, :]
        )
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() < 1e-8 * (1 + np.abs(D.xs()).max())


def test_resultant_degree(rng):
    for n, s in FAMILIES:
        curve = random_curve(n, s, rng)
        g = curve.genus
        D = random_divisor(curve, g, rng)
        R = interpolate(curve, 2 * g, D)
        if R.y_degree() == 0:
            continue
        res = y_resultant(curve, R)
        res = res / np.max(np.abs(res))
        lead = int(np.argmax(np.abs(res) > 1e-11))
        assert len(res) - 1 - lead == R.weight


def test_complement_bookkeeping(rng):
    for n, s in FAMILIES:
        curve = random_curve(n, s, rng)
        g = curve.genus
        D = random_divisor(curve, g, rng)
        R = interpolate(curve, 2 * g, D)
        Dstar = complement(curve, R, D)
        assert D.degree + Dstar.degree == R.weight
        assert Dstar.max_curve_residual() < 1e-10
        if n == 2:  # involution: R is x-only, zeros pair as (x, +/-y)
            assert multiset_distance(
                Dstar, Divisor(curve, [(p.x, -p.y) for p in D], validate=False)
            ) < 1e-10


def test_complement_rejects_foreign_divisor(rng):
    curve = random_curve(2, 5, rng)
    D = random_divisor(curve, 2, rng)
    R = interpolate(curve, 4, D)
    other = random_divisor(curve, 2, rng)
    with pytest.raises(InconsistencyError):
        complement(curve, R, other)


def test_complement_of_two_points_of_a_trigonal_fiber(rng):
    # the weight-6 function through two points of one fiber and a third
    # point is x-only, (x - x0)(x - x1): D* is the fiber's third point and
    # the two points over x1 that D lacks, found without a root-finder
    curve = random_curve(3, 4, rng)
    x0, x1 = 0.4 + 0.3j, -0.5 + 0.2j
    y0, y1 = fiber_points(curve, [x0, x1])
    D = Divisor(curve, [(x0, y0[0]), (x0, y0[1]), (x1, y1[2])])
    R = interpolate(curve, 6, D)
    assert R.y_degree() == 0
    want = Divisor(curve, [(x0, y0[2]), (x1, y1[0]), (x1, y1[1])])
    assert multiset_distance(complement(curve, R, D), want) < 1e-12


def test_complement_leaves_out_ds_point_of_a_shared_fiber(rng):
    # R of weight 9 through four points and two points of one fiber; D is
    # the four and one of the two, so a root of the quotient shares its
    # fiber with D, where R vanishes at both points and D* takes only one
    curve = random_curve(3, 4, rng)
    x0 = 0.3 - 0.4j
    ys = fiber_points(curve, [x0])[0]
    four = list(random_divisor(curve, 4, rng).points)
    R = interpolate(curve, 9, Divisor(curve, four + [(x0, ys[0]), (x0, ys[1])]))
    assert R.y_degree()
    Dstar = complement(curve, R, Divisor(curve, four + [(x0, ys[0])]))
    assert Dstar.degree == 4
    assert min(abs(p.x - x0) + abs(p.y - ys[1]) for p in Dstar) < 1e-10
    assert min(abs(p.x - x0) + abs(p.y - ys[0]) for p in Dstar) > 1e-3


def test_complement_rejects_a_point_off_the_zeros_over_the_right_x(rng):
    # the division sees only x: a point swapped for another of its fiber
    # leaves u_D unchanged, and only |R(P)| at the point catches it
    for n, s in FAMILIES:
        curve = random_curve(n, s, rng)
        g = curve.genus
        D = random_divisor(curve, 2 * g, rng)
        R = interpolate(curve, 3 * g, D)
        p = D.points[0]
        ys = fiber_points(curve, [p.x])[0]
        other = Divisor(curve, [(p.x, ys[np.argmax(np.abs(ys - p.y))])] + list(D.points[1:]))
        with pytest.raises(InconsistencyError, match="off the zeros"):
            complement(curve, R, other)


def test_complement_rejects_a_divisor_doubling_a_simple_zero(rng):
    # every point of D is a zero of R, but R's zero at the doubled one is
    # simple: only the division remainder catches it
    for n, s in FAMILIES:
        curve = random_curve(n, s, rng)
        g = curve.genus
        for w in (2 * g, 3 * g):
            E = random_divisor(curve, w - g, rng).points
            R = interpolate(curve, w, Divisor(curve, E))
            with pytest.raises(InconsistencyError, match="remainder"):
                complement(curve, R, Divisor(curve, (E[0],) + E[:-1]))


def test_complement_with_a_point_at_x_zero(rng):
    # a root at x = 0 leaves a resultant coefficient at its rounding
    # noise; the division weighs it at the scale of a root of modulus 1
    for n, s in FAMILIES:
        curve = random_curve(n, s, rng)
        g = curve.genus
        origin = (0j, fiber_points(curve, [0j])[0][0])
        D1 = Divisor(curve, [origin] + list(random_divisor(curve, g - 1, rng).points))
        D2 = random_divisor(curve, g, rng)
        assert multiset_distance(add(curve, add(curve, D1, D2), negate(curve, D2)), D1) < 1e-7
        assert multiset_distance(negate(curve, negate(curve, D1)), D1) < 1e-10


def test_divide_keeps_each_root_of_the_quotient_at_its_own_precision():
    # roots from 1e-3 to 1e5: with every coefficient at its own scale the
    # quotient's roots come back to rounding, where a solve weighting rows
    # alike leaves the small ones to the rounding of the largest (7e-12
    # relative on these)
    rng = np.random.default_rng(0)
    for _ in range(4):
        turn = lambda: np.exp(2j * np.pi * rng.uniform())  # noqa: E731
        xs = np.array([r * turn() for r in (1e5, 3e4, 0.5, 0.8, 1.3, 2.0)])
        want = np.array([r * turn() for r in (1e4, 1e-3, 0.9)])
        q, rem = divisors._divide(np.poly(np.r_[xs, want]), xs)
        got = np.roots(q)
        assert rem < 1e-14
        assert max(min(abs(got - w)) / abs(w) for w in want) < 1e-13


def test_resultant_lead_of_interpolated_functions_is_one(algebra_ops):
    # Res_y(R, f) of a monic R of weight w is +/- the product of (x - x_k)
    # over its w zeros, and its x^w coefficient comes out exactly +/-1 even
    # where the roots reach |x| ~ 724 (op 3:224); no lead is lost to rounding
    for _, curve, D1, D2 in algebra_ops.values():
        g = curve.genus
        one = Divisor(curve, D2.points[:1])
        for w, D in ((2 * g, D1), (2 * g + 1, D1 + one), (3 * g, D1 + D2)):
            R = interpolate(curve, w, D)
            if R.y_degree():
                res = np.trim_zeros(y_resultant(curve, R), "f")
                assert abs(res[0]) == 1.0 and len(res) == w + 1


def test_grouped_points_at_each_points_own_scale():
    # a far point once set the tolerance of every point: at 1e-9 (1 + 1e4)
    # two points 1e-7 apart merged into one double point
    curve = curve_model(2, 5, {4: 0.3})
    xs = [0.3 + 0.1j, 0.3 + 0.1j + 1e-7, 1e4 + 0j]
    D = Divisor(curve, [(x, fiber_points(curve, [x])[0][0]) for x in xs])
    assert [m for _, m in divisors._grouped_points(D)] == [1, 1, 1]


def test_involution_groups_at_each_points_own_scale():
    # (x0, y0) and (x0 + 1e-6, -y) are no fiber pair, whatever a far point
    # does to the scale of the others
    curve = curve_model(2, 5, {4: 0.3})
    x0, x1 = 0.7 + 0.2j, 0.7 + 0.2j + 1e-6
    y0 = fiber_points(curve, [x0])[0][0]
    ys1 = fiber_points(curve, [x1])[0]
    far = (1e4 + 0j, fiber_points(curve, [1e4 + 0j])[0][0])
    D = Divisor(curve, [(x0, y0), (x1, ys1[np.argmin(np.abs(ys1 + y0))]), far])
    assert D.is_reduced()


def test_involution_detection():
    curve = curve_model(2, 5, {4: 0.3})
    x = 0.7 + 0.2j
    y = np.sqrt(curve.eval_f(x, 0.0) + 0j)  # f = -y^2 + P: y^2 = P(x)
    D = Divisor(curve, [(x, y), (x, -y)], validate=False)
    assert not D.is_reduced()
    with pytest.raises(NonReducedDivisorError):
        D.assert_reduced()
    c34 = curve_model(3, 4, {6: 0.4})
    ys = fiber_points(c34, [x])[0]
    two = Divisor(c34, [(x, ys[0]), (x, ys[1])], validate=False)
    assert two.is_reduced()  # n-1 = 2 points of a fiber are allowed
    three = Divisor(c34, [(x, ys[0]), (x, ys[1]), (x, ys[2])], validate=False)
    assert not three.is_reduced()


def _reduced_by_fiber_matching(D):
    """Reducedness as a fiber solve decides it, the oracle: D is reduced
    unless, over some x of D, each of the n fiber points matches its own
    point of D, x and y within PAIR_TOL."""
    n, xs, ys = D.curve.n, D.xs(), D.ys()
    for i, x in enumerate(xs):
        shared = [j for j in range(i, len(xs)) if divisors._near(x, xs[j], divisors.PAIR_TOL)]
        picked: list = []
        for yf in fiber_points(D.curve, [x])[0]:
            hit = next((j for j in shared if j not in picked
                        and divisors._near(yf, ys[j], divisors.PAIR_TOL)), None)
            if hit is None:
                break
            picked.append(hit)
        if len(picked) == n:
            return False
    return True


@pytest.mark.parametrize("kind", ["confluent", "far-x", "near-ramification"])
@pytest.mark.parametrize("ns", FAMILIES, ids=FAMILY_IDS)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.floats(-5.0, -2.0))
def test_is_reduced_reads_the_divisors_own_points(hard_divisor, ns, kind, seed, log10_dist):
    # n distinct points of the curve over one x are all of its fiber, so
    # is_reduced needs no fiber solve and agrees with the fiber-matching
    # rule: on the hard draw, on its sum with a random divisor, and around
    # its hard point P with a full fiber, n - 1 points of one fiber, a
    # doubled point plus another point of its fiber (a full fiber on n = 2
    # only) and a pair 1e-6 apart (no fiber)
    curve, D, rng = hard_divisor(ns, kind, seed, log10_dist)
    rest = list(random_divisor(curve, curve.genus, rng).points)
    n, P = curve.n, D.points[0]
    ys = fiber_points(curve, [P.x])[0]
    other = ys[np.argmax(np.abs(ys - P.y))]
    x1 = P.x + 1e-6
    ys1 = fiber_points(curve, [x1])[0]
    cases = [
        (D, None),
        (D + Divisor(curve, rest), None),
        ([(P.x, y) for y in ys] + rest, False),
        ([(P.x, y) for y in ys[: n - 1]] + rest, True),
        ([P, P, (P.x, other)] + rest, n > 2),
        ([P, (x1, ys1[np.argmin(np.abs(ys1 - other))])] + rest, True),
    ]
    for points, want in cases:
        E = points if isinstance(points, Divisor) else Divisor(curve, points, validate=False)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(divisors, "fiber_points", None)  # no fiber solve
            got = E.is_reduced()
        assert got == _reduced_by_fiber_matching(E)
        assert want is None or got == want


def test_group_law_and_inversion_solve_no_fiber(algebra_ops, monkeypatch):
    # reducedness is read off D's own points: over the benchmark's ops,
    # add, negate and divisor_to_basis make no fiber_points call (add's
    # check on D1 + D2 and divisor_to_basis's once made 20)
    calls, done, real = [], 0, divisors.fiber_points
    monkeypatch.setattr(divisors, "fiber_points", lambda *a: calls.append(a) or real(*a))
    for _, curve, D1, D2 in algebra_ops.values():
        for op in (lambda: divisor_to_basis(curve, D1), lambda: negate(curve, D1),
                   lambda: add(curve, add(curve, D1, D2), negate(curve, D2))):
            try:
                op()
                done += 1
            except KleinianError:
                pass
    assert done > 2 * len(algebra_ops) and calls == []


def test_every_divisor_system_is_solved_through_the_special_divisor_gate(rng, monkeypatch):
    # the interpolation system, the Abel Jacobian and every jet system of
    # the flow equilibrate only inside _solve_nonspecial, whose gate they
    # all pass, once per system: the order-3 flow's three steps, its Abel
    # Jacobian and its values system make order + 2 = 5 calls
    callers, real = [], divisors._equilibrate

    def spy(A):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(A)

    monkeypatch.setattr(divisors, "_equilibrate", spy)
    monkeypatch.setattr(uniformization, "_equilibrate", spy, raising=False)
    for n, s in FAMILIES:
        curve = random_curve(n, s, rng)
        D = random_divisor(curve, curve.genus, rng)
        basis, m_lo, m_hi = uniformization.solution_monomials(curve)
        leads = [(m_lo, 1.0), (m_hi, 2.0)]
        for run, calls in ((lambda: divisors.interpolate_in_basis(curve, basis, leads, D), 1),
                           (lambda: uniformization.abel_jacobian(curve, D), 1),
                           (lambda: uniformization.basis_flow(curve, D, curve.gaps[-1], 3), 5)):
            del callers[:]
            run()
            assert callers == ["_solve_nonspecial"] * calls


@pytest.mark.parametrize("order, solves", ((1, 4), (3, 11), (6, 29)))
def test_each_flow_step_solves_only_the_orders_it_keeps(rng, monkeypatch, order, solves):
    # step m solves orders 0..m, the Abel Jacobian one, the values system
    # order + 1: 1 + (order + 1)(order + 2) / 2 solves, each on its
    # system's one equilibrated A_0
    calls, real = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or real(*a))
    for n, s in FAMILIES:
        curve = random_curve(n, s, rng)
        D = random_divisor(curve, curve.genus, rng)
        del calls[:]
        uniformization.basis_flow(curve, D, curve.gaps[0], order)
        assert len(calls) == solves


def test_poly_mul_raw():
    prod = poly_mul_raw({(1, 0): 1.0, (0, 1): 2.0}, {(0, 1): 1.0})
    assert prod == {(1, 1): 1.0, (0, 2): 2.0}
    # like terms collect; the product of a table with f is the raw, unreduced one
    curve = curve_model(2, 5, {4: 0.5})
    prod = poly_mul_raw({(1, 0): 1.0, (0, 0): 1.0}, curve.coeffs)
    assert prod == {(6, 0): 1, (1, 2): -1, (4, 0): 0.5, (5, 0): 1, (0, 2): -1, (3, 0): 0.5}


# -- bit-identity of the resultant and of the batched fibers ------------------


def _leibniz(mat):
    """Full Leibniz expansion over every permutation, the reference for _poly_det."""
    size = len(mat)
    acc = np.zeros(1, dtype=complex)
    for perm in itertools.permutations(range(size)):
        sign = 1
        for i in range(size):
            for j in range(i + 1, size):
                if perm[i] > perm[j]:
                    sign = -sign
        term = np.array([sign + 0j])
        for r in range(size):
            term = np.convolve(term, mat[r][perm[r]])
        if len(term) > len(acc):
            acc = np.pad(acc, (len(term) - len(acc), 0))
        elif len(acc) > len(term):
            term = np.pad(term, (len(acc) - len(term), 0))
        acc = acc + term
    return acc


def _fiber_coeffs(curve, x):
    """f(x, y) as a polynomial in y (descending), in the scalar arithmetic of fiber_points."""
    n = curve.n
    c = np.zeros(n + 1, dtype=complex)
    c[0] = -1.0
    c[n] += x**curve.s
    for i, j, k in curve.terms:
        lk = curve.lam.get(k)
        if lk:
            c[n - j] += lk * x**i
    return c


def _sparse_34():
    # f = -y^3 + x^4 + 0.4 x^2 + 0.5 y: no constant term, so x = 0 gives a
    # fiber polynomial whose constant coefficient is exactly 0
    return curve_model(3, 4, {6: 0.4, 8: 0.5})


def _sylvester(curve, R):
    """Sylvester matrix of (f, R) in y, entries x-polynomials (descending)."""
    n, dr = curve.n, R.y_degree()
    fc = y_split(curve.coeffs)[:n] + [np.array([-1.0 + 0j])]
    rc = y_split(R.coeffs)
    mat = [[np.array([0j])] * (n + dr) for _ in range(n + dr)]
    for r in range(dr):
        for k in range(n + 1):
            mat[r][r + k] = fc[n - k]
    for r in range(n):
        for k in range(dr + 1):
            mat[dr + r][r + k] = rc[dr - k]
    return mat


def _same_bits(a, b) -> bool:
    """Equal arrays, bit for bit: the sign of a zero counts."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_poly_det_bit_identical_to_full_expansion(rng, monkeypatch):
    # the Sylvester matrices of the interpolants of every family, a y-linear
    # R's included, and the 2 x 2 resultant of the Jacobi inversion pair
    sizes = set()
    curves = [random_curve(n, s, rng) for n, s in FAMILIES] + [_sparse_34()]
    for curve in curves:
        g = curve.genus
        for w in (2 * g, 2 * g + 1, 3 * g):
            R = interpolate(curve, w, random_divisor(curve, w - g, rng))
            if R.y_degree():
                mat = _sylvester(curve, R)
                sizes.add(len(mat))
                assert np.array_equal(divisors._poly_det(mat), _leibniz(mat))
                assert np.array_equal(y_resultant(curve, R), _leibniz(mat))
    assert sizes == {3, 4, 5}
    # basis_to_divisor's resultant against the expression it replaced,
    # a_1 b_0 - a_0 b_1 with a_1 = 0 on n = 2; np.polymul trims the leading
    # exact zeros that y_split's common x-degree gives b_1, and that
    # poly_roots strips
    seen = []
    monkeypatch.setattr(uniformization, "clustered_roots",
                        lambda c: seen.append(c) or divisors.clustered_roots(c))
    for curve in curves:
        for _ in range(8):
            rec = divisor_to_basis(curve, random_divisor(curve, curve.genus, rng))
            R_lo, R_hi = uniformization.solution_polynomials(curve, rec)
            a, b = y_split(R_lo.coeffs) + [np.zeros(1)], y_split(R_hi.coeffs)
            want = np.polysub(np.polymul(a[1], b[0]), np.polymul(a[0], b[1]))
            seen.clear()
            basis_to_divisor(curve, rec)
            assert len(seen) == 1 and _same_bits(np.trim_zeros(seen[0], "f"), want)


def _fiber_xs(curve, rng):
    """Random x, |x| = 1e3, x = 0 and the branch points (double y) of a curve."""
    fy = PolyFunction(
        curve,
        {(0, curve.n - 1): -curve.n}
        | {(i, j - 1): j * curve.lam[k] for i, j, k in curve.terms if j and k in curve.lam},
    )
    branch = poly_roots(y_resultant(curve, fy))
    xs = [complex(*rng.uniform(-1, 1, 2)) for _ in range(4)]
    return xs + [1e3 * np.exp(0.7j), -1e3 + 0j, 0j] + [complex(b) for b in branch[:3]]


def test_fiber_points_bit_identical_to_roots_and_polish(rng):
    families = FAMILIES + ((2, 3), (3, 5))
    curves = [random_curve(n, s, rng) for n, s in families] + [_sparse_34()]
    for curve in curves:
        xs = _fiber_xs(curve, rng)
        got = fiber_points(curve, xs)
        assert got.shape == (len(xs), curve.n)
        for x, row in zip(xs, got):
            c = _fiber_coeffs(curve, x)
            assert np.array_equal(row, newton_polish(c, np.roots(c)))


def test_fiber_points_zero_constant_term():
    # at x = 0 the constant coefficient is exactly 0: np.roots strips it and
    # returns y = 0 exactly, which a singular companion matrix would not
    for curve in (_sparse_34(), curve_model(3, 4, {6: 0.4}), curve_model(2, 5, {6: 1.5})):
        c = _fiber_coeffs(curve, 0j)
        assert c[-1] == 0
        rows = fiber_points(curve, [0.3 + 0.1j, 0j, 1.0 + 0j])
        assert np.array_equal(rows[1], newton_polish(c, np.roots(c)))
        assert 0 in rows[1]


def test_fiber_points_empty():
    assert fiber_points(_sparse_34(), []).shape == (0, 3)


def test_zero_divisor_reads_a_y_linear_function_off_its_graph(rng, monkeypatch):
    # a function with y-terms takes one Leibniz expansion for its resultant,
    # whose terms a second pass over the same functions finds listed, with
    # no permutation search; a y-linear R then reads its zeros off its
    # graph, while an x-only R, or (3,4)'s weight-9 R of y-degree 2, solves
    # all of its fibers in one stacked call
    calls = []
    for name in ("fiber_points", "_poly_det"):
        real = getattr(divisors, name)
        monkeypatch.setattr(divisors, name, lambda *a, _n=name, _r=real: calls.append(_n) or _r(*a))
    functions = []
    for n, s in FAMILIES:
        curve = random_curve(n, s, rng)
        g = curve.genus
        for w in (2 * g, 2 * g + 1, 3 * g):
            functions.append((curve, interpolate(curve, w, random_divisor(curve, w - g, rng))))

    def sweep():
        for curve, R in functions:
            calls.clear()
            assert zero_divisor(curve, R).degree == R.weight
            if R.y_degree() == 1:
                assert calls == ["_poly_det"]
            else:
                assert calls.count("fiber_points") == 1
                assert calls.count("_poly_det") == (R.y_degree() > 1)

    sweep()
    searches = []
    permutations = itertools.permutations
    monkeypatch.setattr(itertools, "permutations", lambda *a: searches.append(a) or permutations(*a))
    sweep()
    assert searches == []
    assert {R.y_degree() for _, R in functions} == {0, 1, 2}


def _fiber_route(curve, R, D):
    """complement before it read a y-linear R's zeros off its graph, kept as
    the oracle: the Sylvester resultant's quotient, its roots clustered with
    D's points over them, and the zeros solved on each fiber by _fiber_zeros."""
    def fiber_zeros(curve, R, roots, D):
        return divisors._fiber_zeros(curve, R, [(x, m, divisors._held(D, x)) for x, m in roots])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divisors, "y_resultant", lambda curve, R: divisors._poly_det(_sylvester(curve, R)))
        mp.setattr(divisors, "_graph_zeros", fiber_zeros)
        return complement(curve, R, D)


def _outcome(fn, *args):
    """fn's divisor, or the class of the KleinianError it raised."""
    try:
        return fn(*args)
    except KleinianError as exc:
        return type(exc)


@pytest.mark.parametrize("kind", ["confluent", "far-x", "near-ramification"])
@pytest.mark.parametrize("ns", FAMILIES, ids=FAMILY_IDS)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.floats(-5.0, -2.0))
def test_graph_zeros_agree_with_the_fiber_route(hard_divisor, ns, kind, seed, log10_dist):
    # the y-linear functions of the group law at the benchmark's hard
    # shares: add's least-weight one through D1 + D2 (weight 3g on n = 2,
    # 10 on (3,4)), and on (3,4) negate's weight-2g one through D1 and a
    # weight-(2g + 1) one, as add's second step takes through D'
    curve, D1, rng = hard_divisor(ns, kind, seed, log10_dist)
    D2 = random_divisor(curve, curve.genus, rng)
    g = curve.genus
    cases = [(D1 + D2, interpolate_y_linear, ())]
    if curve.n == 3:
        cases += [(D1, interpolate, (2 * g,)), (D1 + Divisor(curve, D2.points[:1]), interpolate, (2 * g + 1,))]
    for D, make, w in cases:
        R = _outcome(make, curve, *w, D)
        if isinstance(R, type):
            continue
        assert R.y_degree() == 1
        empty = Divisor(curve, (), validate=False)
        for got, want in ((_outcome(complement, curve, R, D), _outcome(_fiber_route, curve, R, D)),
                          (_outcome(zero_divisor, curve, R), _outcome(_fiber_route, curve, R, empty))):
            if isinstance(want, type) or isinstance(got, type):
                assert got is want
            else:
                assert multiset_distance(got, want) < 1e-12


@pytest.mark.parametrize("ns", FAMILIES, ids=FAMILY_IDS)
def test_graph_route_takes_the_fiber_points_d_lacks_where_r_vanishes_on_it(ns, rng):
    # R = (x - a)(y - b) is linear in y with r1(a) = r0(a) = 0: no graph
    # point over x = a, where R vanishes on the whole fiber.  Through n - 1
    # of that fiber's points, the zeros D lacks are its last point and the
    # graph points (x, b), f(x, b) = 0; through none, the whole fiber and
    # those graph points (on (3,4) Res_y(f, R) has a triple root at a,
    # which rounding splits by some 5e-6: zero_divisor raised
    # PrecisionError before the certified merge)
    curve = random_curve(*ns, rng)
    a, b = 0.3 + 0.2j, 5.0 - 1.0j
    R = PolyFunction(curve, {(1, 1): 1.0, (0, 1): -a, (1, 0): -b, (0, 0): a * b})
    ys = fiber_points(curve, [a])[0]
    fb = np.zeros(curve.s + 1, dtype=complex)
    for (i, j), c in curve.coeffs.items():
        fb[curve.s - i] += c * b**j
    graph = [(x, b) for x in newton_polish(fb, np.roots(fb))]
    got = complement(curve, R, Divisor(curve, [(a, y) for y in ys[1:]]))
    assert multiset_distance(got, Divisor(curve, [(a, ys[0])] + graph, validate=False)) < 1e-12
    got = zero_divisor(curve, R)
    assert multiset_distance(got, Divisor(curve, [(a, y) for y in ys] + graph, validate=False)) < 1e-12


def _polish_common_zero_5_steps(curve, R, x, y):
    """The joint Newton polish as it was before its stopping rule: always 5
    steps, with the same determinant and big-step guards."""
    for _ in range(5):
        r1, r2 = R.eval(x, y), curve.eval_f(x, y)
        j11, j12 = R.eval_dx(x, y), R.eval_dy(x, y)
        j21, j22 = curve.eval_fx(x, y), curve.eval_fy(x, y)
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-12 * (1 + abs(j11) + abs(j12) + abs(j21) + abs(j22)) ** 2:
            return x, y
        dx = (r1 * j22 - r2 * j12) / det
        dy = (r2 * j11 - r1 * j21) / det
        if abs(dx) + abs(dy) > 0.5 * (1 + abs(x) + abs(y)):
            return x, y
        x, y = x - dx, y - dy
    return x, y


def _joint_residual(curve, R, x, y):
    """max of |R| and |f| at (x, y), each over the sum of its |terms|, the
    scale of the rounding error in evaluating it."""
    def rel(coeffs, value):
        return abs(value) / sum(abs(c) * abs(x) ** i * abs(y) ** j for (i, j), c in coeffs.items())

    return max(rel(R.coeffs, R.eval(x, y)), rel(curve.coeffs, curve.eval_f(x, y)))


def test_polish_common_zero_is_as_accurate_as_five_fixed_steps(algebra_ops, monkeypatch):
    calls = []
    real = divisors._polish_common_zero
    monkeypatch.setattr(divisors, "_polish_common_zero",
                        lambda curve, R, x, y: calls.append((curve, R, x, y)) or real(curve, R, x, y))
    for _, curve, D1, D2 in algebra_ops.values():
        try:
            basis_to_divisor(curve, divisor_to_basis(curve, D1))
            negate(curve, D1)
            add(curve, add(curve, D1, D2), negate(curve, D2))
            # complement polishes only the new zeros; every zero of the
            # op's interpolants of weights 2g + 1 and 3g adds starts
            g = curve.genus
            for D in (D1 + Divisor(curve, D2.points[:1]), D2 + Divisor(curve, D1.points[:1])):
                zero_divisor(curve, interpolate(curve, 2 * g + 1, D))
            zero_divisor(curve, interpolate(curve, 3 * g, D1 + D2))
        except KleinianError:
            pass
    assert len(calls) > 1000
    # the starts the pipeline gives, and the same moved by 1e-6 of their
    # scale, which one Newton step leaves far above rounding
    def moved(x, y):
        d = 1e-6j * (1 + abs(x) + abs(y))
        return x + d, y - d

    starts = calls + [(c, R, *moved(x, y)) for c, R, x, y in calls]
    got = np.array([_joint_residual(c, R, *real(c, R, x, y)) for c, R, x, y in starts])
    ref = np.array([_joint_residual(c, R, *_polish_common_zero_5_steps(c, R, x, y))
                    for c, R, x, y in starts])
    # both sit at the rounding floor; a point can land a few units above
    # the reference's, which went on taking steps of rounding noise
    eps = np.finfo(float).eps
    assert np.all(got <= ref + 2 * eps)
    assert np.mean(got) <= np.mean(ref)


def test_polish_multiple_zero_stops_when_its_step_stops_shrinking(algebra_ops, monkeypatch):
    # at the double zeros of these two confluent ops the step floor is a few
    # 1e-15, above the 1e-15 exit, and the polish used to take all 30 steps
    rounds, made = [], []
    real_jet, real_polish = divisors.branch_jet, divisors._polish_multiple_zero
    monkeypatch.setattr(divisors, "branch_jet", lambda *a: rounds.append(1) or real_jet(*a))

    def polish(*args):
        rounds.clear()
        out = real_polish(*args)
        made.append(len(rounds))
        return out

    monkeypatch.setattr(divisors, "_polish_multiple_zero", polish)
    for key in ("1:257", "3:361"):
        _, curve, D1, D2 = algebra_ops[key]
        made.clear()
        add(curve, add(curve, D1, D2), negate(curve, D2))
        assert made and max(made) <= 6


def test_each_new_zero_is_polished_once(algebra_ops, monkeypatch):
    # the group law and Jacobi inversion polish each new zero once, on
    # (R, f) or along the curve branch: newton_polish runs on no quotient's
    # raw roots, only on a multiple root's centre (on the (m-1)-st
    # derivative), the certified merge's included, and a multiple zero's
    # polish solves no fiber.  The polish inside fiber_points, a fiber's
    # own, is no zero's
    centres, polished, strays = [], [], []
    calls, depth = {"fiber": 0, "multiple": 0}, {"fiber": 0, "multiple": 0}
    real_cluster, real_polish = divisors._certified, divisors.newton_polish

    def cluster(*args):
        out = real_cluster(*args)
        centres.extend(x for x, m in out if m > 1)
        return out

    def polish(c, r):
        if not depth["fiber"]:
            polished.append([complex(z) for z in np.ravel(r)])
        return real_polish(c, r)

    def spy(key, real):
        def call(*args):
            if key == "fiber" and depth["multiple"]:
                strays.append(args)
            calls[key] += 1
            depth[key] += 1
            try:
                return real(*args)
            finally:
                depth[key] -= 1
        return call

    monkeypatch.setattr(divisors, "_certified", cluster)
    monkeypatch.setattr(roots, "newton_polish", polish)
    monkeypatch.setattr(divisors, "newton_polish", polish)
    monkeypatch.setattr(divisors, "fiber_points", spy("fiber", divisors.fiber_points))
    monkeypatch.setattr(divisors, "_polish_multiple_zero", spy("multiple", divisors._polish_multiple_zero))
    for _, curve, D1, D2 in algebra_ops.values():
        try:
            basis_to_divisor(curve, divisor_to_basis(curve, D1))
            if curve.n == 3:
                negate(curve, D1)
            add(curve, add(curve, D1, D2), negate(curve, D2))
        except KleinianError:
            pass
    assert centres and calls["multiple"]  # both polishes of a multiple zero ran
    assert all(len(r) == 1 and r[0] in centres for r in polished)
    assert strays == []


@pytest.mark.parametrize("ns", FAMILIES, ids=FAMILY_IDS)
def test_x_only_complement_polishes_its_quotients_roots(ns, rng):
    # an x-only R vanishes on whole fibers, over roots that no joint polish
    # follows: zero_divisor polishes them on the quotient itself, to within
    # 4 eps (1 + |x|) of the 40-digit roots (1.7 at most over these draws)
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for _ in range(20):
        curve = random_curve(*ns, rng)
        g = curve.genus
        if curve.n == 2:
            R = interpolate(curve, 2 * g, random_divisor(curve, g, rng))
        else:
            c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            R = PolyFunction(curve, {(3, 0): 1.0, (2, 0): c[0], (1, 0): c[1], (0, 0): c[2]})
        assert R.y_degree() == 0
        q, _ = divisors._divide(y_split(R.coeffs)[0], [])
        with mp.workdps(40):
            want = [complex(r) for r in mp.polyroots([mp.mpc(z.real, z.imag) for z in q], extraprec=100)]
        xs = zero_divisor(curve, R).xs()
        assert len(xs) == curve.n * len(want)
        for r in want:  # the n points over r, one whole fiber
            assert np.all(np.sort(np.abs(xs - r))[: curve.n] <= 4 * eps * (1 + abs(r)))


def test_exact_double_root_stays_double():
    # the x-polynomial of an interpolating function in the group law of a
    # confluent (2,5) benchmark op (seed 7, op 21): an exact square, whose
    # double root np.roots returns twice with p and p' both rounding noise
    c = np.array([
        1.0,
        complex(float.fromhex("-0x1.a06fde7821cdap+0"), float.fromhex("0x1.29ddbb0fae7cep+0")),
        complex(float.fromhex("0x1.4ad787d236bd5p-2"), float.fromhex("-0x1.e48a79f7a6d3bp-1")),
    ])
    r = newton_polish(c, np.roots(c))
    assert abs(r[0] - r[1]) < 1e-7
    [(x, m)] = divisors.clustered_roots(c)
    assert m == 2 and abs(x - r[0]) < 1e-7


def test_the_group_law_raises_no_jet_to_a_power(algebra_ops, monkeypatch):
    # poly_eval is Horner's scheme, y_jet takes f's passes in x once, and a
    # repeated point's interpolation rows take one ladder of powers per jet:
    # no Jet.__pow__ on the confluent ops, though their branch jets run
    powers, jets = [], []
    real_pow, real_jet = series.Jet.__pow__, divisors.y_jet
    monkeypatch.setattr(series.Jet, "__pow__", lambda self, k: powers.append(k) or real_pow(self, k))
    monkeypatch.setattr(divisors, "y_jet", lambda *a: jets.append(a) or real_jet(*a))
    for kind, curve, D1, D2 in algebra_ops.values():
        if kind != "confluent":
            continue
        try:
            basis_to_divisor(curve, divisor_to_basis(curve, D1))
            add(curve, add(curve, D1, D2), negate(curve, D2))
        except KleinianError:
            pass
    assert jets and powers == []


def test_certified_merge_takes_a_split_double_root_as_one():
    # roots 2e-6 apart, past CLUSTER_TOL at |x| = 0.5, are one double root
    # within an error of 1e-12: p' at their mean reads 1.3e-13 of its term
    # scale.  Roots 3e-4 apart read 2.9e-9, past MERGE_CERT, and stay two
    # simple roots though they share the window
    a, rest = 0.3 + 0.4j, [-0.8 + 0.1j, 0.2 - 0.9j, 1.1 + 0.6j, -0.4 - 0.5j]
    def near_a(split):
        return [(x, m) for x, m in divisors.clustered_roots(np.poly([a, a + split, *rest]))
                if abs(x - a) < 1e-3]

    [(x, m)] = near_a(2e-6j)
    assert m == 2 and abs(x - (a + 1e-6j)) < 1e-9
    assert [m for _, m in near_a(3e-4j)] == [1, 1]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_a_multiple_root_under_coefficient_noise_keeps_its_multiplicity(m, seed):
    # an exact m-fold root a, |a| <= 1, among four simple roots at least 0.2
    # away, each coefficient moved by 1e-12 relative: the split roots come
    # back as one root of multiplicity m near a, the rest simple
    rng = np.random.default_rng(seed)
    a = complex(*rng.uniform(-0.7, 0.7, 2))
    rest = []
    while len(rest) < 4:
        z = complex(*rng.uniform(-1.5, 1.5, 2))
        if min(abs(z - w) for w in [a, *rest]) > 0.2:
            rest.append(z)
    c = np.poly([a] * m + rest)
    c = c * (1 + 1e-12 * (rng.standard_normal(len(c)) + 1j * rng.standard_normal(len(c))))
    clusters = divisors.clustered_roots(c)
    assert sorted(mult for _, mult in clusters) == [1, 1, 1, 1, m]
    [(x, _)] = [(x, mult) for x, mult in clusters if mult == m]
    assert abs(x - a) < 1e-8


def test_zero_divisor_keeps_the_small_lead_of_far_roots():
    # points at |x| = 60 .. 700 put the weight-9 resultant's genuine x^9
    # coefficient at ~4e-12 of its largest; cut as noise, one zero was lost
    rng = np.random.default_rng(5)
    curve = random_curve(3, 4, rng)
    pts = list(random_divisor(curve, 2, rng).points)
    for r in (60.0, 80.0, 200.0, 700.0):
        x = r * np.exp(2j * np.pi * rng.uniform())
        pts.append((x, fiber_points(curve, [x])[0][0]))
    D = Divisor(curve, pts)
    R = interpolate(curve, 9, D)
    res = np.trim_zeros(y_resultant(curve, R), "f")
    assert abs(res[0]) < 1e-11 * np.max(np.abs(res))
    Z = zero_divisor(curve, R)
    assert Z.degree == 9
    assert multiset_distance(D + complement(curve, R, D), Z) < 1e-12
