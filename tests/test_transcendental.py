import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kleinian.transcendental as transcendental
from kleinian.curves import curve_model, y_split
from kleinian.divisors import Divisor
from kleinian.errors import (
    CharacteristicSearchError,
    DegenerateCurveError,
    InvalidCurveError,
    PrecisionError,
    ThetaDivisorError,
)
from kleinian.jsonio import period_to_json
from kleinian.sampling import random_curve, random_divisor
from kleinian.theta import Characteristic, _log_derivative, _terms, theta_directional
from kleinian.transcendental import (
    _EDGE_EPS,
    _EDGE_MARGIN,
    _MAX_EDGE_NODES,
    _bernstein_radius,
    _canonical_rows,
    _chain_homology,
    _chain_order,
    _continue_sqrt,
    _edge_sqrt,
    _junction_sign,
    _lattice_coords,
    _leg_rule,
    _node_count,
    _segment_distance,
    abel,
    branch_points,
    period_matrices,
    riemann_characteristic,
    wp_theta,
    x_polynomial,
)


def test_branch_points_examples():
    curve = curve_model(2, 3, {4: -1.0})  # y^2 = x^3 - x
    assert np.allclose(branch_points(curve), [-1.0, 0.0, 1.0])
    # y^2 = x^5 - 1: fifth roots of unity
    curve = curve_model(2, 5, {10: -1.0})
    e = branch_points(curve)
    assert np.allclose(np.sort(np.abs(e)), 1.0)
    assert abs(np.prod(e) - 1.0) < 1e-12  # (-1)^5 * (-1)


def test_branch_points_degenerate():
    with pytest.raises(DegenerateCurveError):
        branch_points(curve_model(2, 3))  # y^2 = x^3 has a triple root


def test_branch_point_collisions_use_the_chain_scale():
    # a far root and a pair 1e-6 apart: distinct at the pair's own scale,
    # yet too close for any chain at the global one, so either test refuses it
    e = np.array([1000.0, -1000.6 - 1e-6, 0.3, 0.3 + 1e-6, 0.0])
    with pytest.raises(DegenerateCurveError, match="collide at 0.3"):
        branch_points(_curve_from_branch_points(e))
    with pytest.raises(PrecisionError, match="too clustered"):
        _chain_order(np.sort_complex(e.astype(complex)))
    # with the far root at 10 the same pair clears the collision test, is
    # resolved, and the chain gate still refuses it
    e = np.array([10.0, -10.6 - 1e-6, 0.3, 0.3 + 1e-6, 0.0])
    got = branch_points(_curve_from_branch_points(e))
    assert np.max(np.abs(got - np.sort_complex(e.astype(complex)))) < 1e-9
    with pytest.raises(PrecisionError, match="too clustered"):
        period_matrices(_curve_from_branch_points(e))


def test_branch_points_continuity(rng):
    curve = random_curve(2, 5, rng)
    e1 = branch_points(curve)
    lam2 = {k: v + 1e-7 for k, v in curve.lam.items()}
    e2 = branch_points(curve_model(2, 5, lam2))
    assert np.max(np.abs(e1 - e2)) < 1e-5


def test_lemniscatic_tau():
    pd = period_matrices(curve_model(2, 3, {4: -1.0}))
    assert abs(pd.tau[0, 0] - 1j) < 1e-8
    assert pd.legendre_residual < 1e-8


def test_legendre_and_tau_random(rng):
    for g in (1, 2):
        for _ in range(3):
            curve = random_curve(2, 2 * g + 1, rng)
            pd = period_matrices(curve)
            assert pd.legendre_residual < 1e-8
            assert np.max(np.abs(pd.tau - pd.tau.T)) < 1e-8
            assert np.min(np.linalg.eigvalsh(pd.tau.imag)) > 0
            assert np.max(np.abs(pd.kappa - pd.kappa.T)) < 1e-7


def test_riemann_characteristic_genus1(rng):
    curve = random_curve(2, 3, rng)
    pd = period_matrices(curve)
    ch = riemann_characteristic(pd)
    assert ch.eps_prime == (0.5,) and ch.eps == (0.5,)
    assert -curve.sigma_weight() == 1


def test_riemann_characteristic_genus2(rng):
    curve = random_curve(2, 5, rng)
    assert -curve.sigma_weight() == 3
    pd = period_matrices(curve)
    ch = riemann_characteristic(pd)
    assert ch.parity() == -1  # odd characteristic
    twice = 2 * np.concatenate(ch.vectors())
    assert np.all(np.isin(twice, (0.0, 1.0)))  # half-integer
    assert pd.char is ch  # cached


def test_abel_empty_divisor(rng):
    curve = random_curve(2, 5, rng)
    pd = period_matrices(curve)
    D = Divisor(curve, [], validate=False)
    assert np.allclose(abel(curve, D, pd), 0.0)


def test_abel_conjugate_in_lattice(rng):
    curve = random_curve(2, 5, rng)
    pd = period_matrices(curve)
    D = random_divisor(curve, 1, rng)
    p = D.points[0]
    u1 = abel(curve, D, pd)
    u2 = abel(curve, Divisor(curve, [(p.x, -p.y)], validate=False), pd)
    total = u1 + u2
    # solve for lattice coordinates and check integrality
    M = np.vstack([np.hstack([pd.omega.real, pd.omega_prime.real]),
                   np.hstack([pd.omega.imag, pd.omega_prime.imag])])
    rhs = np.concatenate([total.real, total.imag])
    coeff = np.linalg.solve(M, rhs)
    assert np.max(np.abs(coeff - np.round(coeff))) < 1e-7


def test_abel_of_a_branch_point_is_its_half_period():
    curve = curve_model(2, 3, {4: -1.0})
    pd = period_matrices(curve)
    LR = pd.lattice[1]
    # 1.0 is a branch point, whether or not the computed one equals it exactly
    k = int(np.argmin(np.abs(pd.chain - 1.0)))
    for x, U in [(1.0, pd.images[:, k])] + list(zip(pd.chain, pd.images.T)):
        u = abel(curve, Divisor(curve, [(x, 0.0)], validate=False), pd)
        coords = _lattice_coords(LR, u - U)
        assert np.max(np.abs(coords - np.round(coords))) < 1e-14
        assert np.max(np.abs(_lattice_coords(LR, u))) <= 0.5 + 1e-14  # the centred cell


def test_wp_theta_bridge_and_x_recovery(rng):
    # genus 1: wp_11(A(P)) recovers the x-coordinate of P
    curve = random_curve(2, 3, rng)
    pd = period_matrices(curve)
    ch = riemann_characteristic(pd)
    D = random_divisor(curve, 1, rng)
    u = abel(curve, D, pd)
    assert abs(wp_theta(pd, ch, u, (1, 1)) - D.points[0].x) < 1e-9


def test_wp_theta_periodicity_evenness(rng):
    curve = random_curve(2, 5, rng)
    pd = period_matrices(curve)
    ch = riemann_characteristic(pd)
    D = random_divisor(curve, 2, rng)
    u = abel(curve, D, pd)
    ref = wp_theta(pd, ch, u, (1, 3))
    shifted = u + pd.omega @ np.array([1.0, 0.0]) + pd.omega_prime @ np.array([-1.0, 1.0])
    assert abs(wp_theta(pd, ch, shifted, (1, 3)) - ref) < 1e-7 * (1 + abs(ref))
    assert abs(wp_theta(pd, ch, -u, (1, 3)) - ref) < 1e-9 * (1 + abs(ref))
    q = wp_theta(pd, ch, u, (1, 1, 3))
    assert abs(wp_theta(pd, ch, -u, (1, 1, 3)) + q) < 1e-9 * (1 + abs(q))


def test_wp_theta_on_theta_divisor_raises(rng):
    curve = random_curve(2, 5, rng)
    pd = period_matrices(curve)
    ch = riemann_characteristic(pd)
    with pytest.raises(ThetaDivisorError):
        wp_theta(pd, ch, np.zeros(2), (1, 1))  # u = 0 is on Sigma


def test_wp_theta_validates_indices(rng):
    curve = random_curve(2, 5, rng)
    pd = period_matrices(curve)
    ch = riemann_characteristic(pd)
    with pytest.raises(InvalidCurveError):
        wp_theta(pd, ch, np.array([0.3, 0.2]), (1, 2))  # 2 is not a gap


def test_genus3_best_effort_flag(rng):
    curve = random_curve(2, 7, rng)
    with pytest.raises(InvalidCurveError):
        period_matrices(curve)
    pd = period_matrices(curve, best_effort_genus3=True)
    assert pd.legendre_residual < 1e-6


def test_trigonal_rejected(rng):
    with pytest.raises(InvalidCurveError):
        period_matrices(random_curve(3, 4, rng))


def test_wp_theta_four_index_vs_jet_flow(rng):
    from kleinian.uniformization import basis_flow

    curve = random_curve(2, 5, rng)
    pd = period_matrices(curve)
    ch = riemann_characteristic(pd)
    D = random_divisor(curve, 2, rng)
    u = abel(curve, D, pd)
    wp1111 = wp_theta(pd, ch, u, (1, 1, 1, 1))
    dq = basis_flow(curve, D, 1, 1)[1][1].derivative_at_zero(1)
    assert abs(wp1111 - dq) < 1e-9 * (1 + abs(dq))
    wp1113 = wp_theta(pd, ch, u, (1, 1, 1, 3))
    dq3 = basis_flow(curve, D, 3, 1)[1][1].derivative_at_zero(1)
    assert abs(wp1113 - dq3) < 1e-9 * (1 + abs(dq3))


def all_half_characteristics(g: int):
    """The 4^g characteristics with entries in {0, 1/2}."""
    vals = (0.0, 0.5)
    out = []
    for bits in range(4**g):
        ep, e = [], []
        b = bits
        for _ in range(g):
            ep.append(vals[b & 1])
            b >>= 1
            e.append(vals[b & 1])
            b >>= 1
        out.append(Characteristic(tuple(ep), tuple(e)))
    return out


def _reference_riemann_characteristic(pd):
    """The weighted-vanishing-order search over all 4^g half-integer
    characteristics, one theta_directional call per characteristic: the
    single one whose derivatives along the u_1 line vanish below order d
    and whose order-d derivative does not, relative to the largest of all."""
    g = pd.curve.genus
    d = -pd.curve.sigma_weight()
    w = pd.omega_inv[:, 0]
    chars = all_half_characteristics(g)
    table = np.array([np.abs(theta_directional(np.zeros(g), pd.tau, w, d, char=ch))
                      for ch in chars])
    ref = np.max(table, axis=0)
    winners = [i for i, row in enumerate(table)
               if np.all(row[:d] <= 1e-5 * ref[:d]) and row[d] >= 1e-2 * ref[d]]
    if len(winners) != 1:
        raise CharacteristicSearchError(f"{len(winners)} characteristics satisfy the criteria")
    return chars[winners[0]]


def _curve_from_branch_points(e):
    """The (2, len(e)) curve whose finite branch points are e shifted to mean 0."""
    e = np.asarray(e, dtype=complex)
    c = np.poly(e - np.mean(e))
    s = len(e)
    return curve_model(2, s, {k: complex(c[s - i]) for (i, _, k) in curve_model(2, s).terms})


FIXED_CURVES = {
    "g1": lambda: random_curve(2, 3, np.random.default_rng(11)),
    "g2": lambda: random_curve(2, 5, np.random.default_rng(12)),
    # two branch points 1e-2 apart
    "clustered": lambda: _curve_from_branch_points(
        [-0.6 + 0.1j, 0.5j, 0.7 - 0.2j, -0.1 - 0.6j, -0.6 + 0.11j]
    ),
    "g3": lambda: random_curve(2, 7, np.random.default_rng(13)),
}


@pytest.mark.parametrize("name", sorted(FIXED_CURVES))
def test_riemann_characteristic_matches_per_characteristic_search(name):
    curve = FIXED_CURVES[name]()
    pd = period_matrices(curve, best_effort_genus3=curve.genus == 3)
    expected = _reference_riemann_characteristic(pd)
    ch = riemann_characteristic(pd)
    assert ch == expected and str(ch) == str(expected)
    assert all(type(x) is float for x in ch.eps_prime + ch.eps)
    assert expected.parity() == (-1) ** (-curve.sigma_weight() % 2)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_riemann_characteristic_matches_the_search_on_random_curves(g):
    rng = np.random.default_rng(1200 + g)
    for _ in range(40):
        pd = period_matrices(random_curve(2, 2 * g + 1, rng), best_effort_genus3=g == 3)
        assert riemann_characteristic(pd) == _reference_riemann_characteristic(pd)


@pytest.mark.parametrize("name", sorted(FIXED_CURVES))
def test_riemann_characteristic_certificate_rejects_swapped_branch_images(name):
    # an odd and an even chain position swapped: K moves to another
    # half-period, whose theta fails the vanishing-order certificate
    curve = FIXED_CURVES[name]()
    pd = period_matrices(curve, best_effort_genus3=curve.genus == 3)
    riemann_characteristic(dataclasses.replace(pd))
    for odd, even in ((1, 0), (1, 2), (2 * curve.genus - 1, 2 * curve.genus)):
        images = pd.images.copy()
        images[:, [odd, even]] = images[:, [even, odd]]
        with pytest.raises(CharacteristicSearchError, match="fails its certificate"):
            riemann_characteristic(dataclasses.replace(pd, images=images))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_canonical_rows_pair_symplectically_in_the_chain_matrix(g):
    A = np.eye(2 * g, k=1, dtype=int) - np.eye(2 * g, k=-1, dtype=int)
    rows, J = _canonical_rows(g)
    a, b = rows[:, :g].T, rows[:, g:].T
    assert a.shape == b.shape == (g, 2 * g)
    assert np.array_equal(J, _legendre_J(g))
    assert rows is _canonical_rows(g)[0] and not rows.flags.writeable and not J.flags.writeable
    assert np.array_equal(a @ A @ b.T, np.eye(g, dtype=int))
    assert not np.any(a @ A @ a.T) and not np.any(b @ A @ b.T)


# -- sqrt(P) continuation --------------------------------------------------------


def _serial_continuation(w2, y0):
    """Reference: sqrt(w2) continued one node at a time against the last value,
    starting from the root of w2[0] nearest y0."""
    w = np.sqrt(w2[0])
    out = np.empty(len(w2), dtype=complex)
    out[0] = (1.0 if abs(w - y0) <= abs(w + y0) else -1.0) * w
    for k in range(1, len(w2)):
        w = np.sqrt(w2[k])
        out[k] = -w if abs(w - out[k - 1]) > abs(w + out[k - 1]) else w
    return out


@pytest.mark.parametrize("g, seed", [(1, 11), (2, 12), (3, 13)])
def test_continue_sqrt_matches_serial_reference_on_abel_legs(g, seed):
    curve = random_curve(2, 2 * g + 1, np.random.default_rng(seed))
    pd = period_matrices(curve, best_effort_genus3=g == 3)
    c = pd.chain
    # a far target and targets 1e-3 and 1e-5 from each branch point
    targets = [0.3 - 0.2j, 40.0 - 25.0j] + [ek + d * np.exp(0.7j) for ek in c for d in (1e-3, 1e-5)]
    flipped = False
    for n, x in enumerate(targets):
        # the Abel map's leg x = c_k + (x - c_k) s^2 from the branch point of
        # widest Bernstein radius, from s = 1 down to s = 0
        z = np.sqrt([[(cm - ck) / (x - ck) for cm in c if cm != ck] for ck in c])
        rho = _bernstein_radius(np.concatenate([2.0 * z - 1.0, -2.0 * z - 1.0], axis=1))
        k = int(np.argmax(rho))
        s = _leg_rule(_node_count(rho[k], "Abel leg"))[0]
        d = x - c[k]
        Q = np.prod((c[k] - np.delete(c, k)) + d * np.append(1.0, s[::-1] ** 2)[:, None], axis=1)
        y0 = (-1) ** n * np.sqrt(np.prod(x - c)) / np.sqrt(d)
        q = _continue_sqrt(Q, y0, [0, len(Q)])
        assert np.array_equal(q, _serial_continuation(Q, y0))
        assert abs(q[0] - y0) < abs(q[0] + y0)
        flipped |= bool(np.any(q[1:] != np.sqrt(Q[1:])))
    assert flipped  # some leg leaves the principal branch


# -- wp_theta shares its theta passes per argument -------------------------------


def _bridge_setup(name="g2"):
    curve = FIXED_CURVES[name]()
    pd = period_matrices(curve, best_effort_genus3=curve.genus == 3)
    ch = riemann_characteristic(pd)
    rng = np.random.default_rng(21)
    us = [abel(curve, random_divisor(curve, curve.genus, rng), pd) for _ in range(2)]
    return curve, pd, ch, us


def test_wp_theta_memo_values_equal_a_fresh_period_data():
    curve, pd, ch, (u1, u2) = _bridge_setup()
    other = next(c for c in all_half_characteristics(2) if c.parity() == 1 and c != ch)
    calls = [(ch, u1, (1, 1)), (ch, u1, (1, 1, 1)), (ch, u1, (1, 3)), (ch, u1, (1, 1, 3)),
             (ch, u2, (3, 3)), (ch, u2, (1, 1, 3)), (ch, u1, (3, 3)), (ch, u1, (1, 1, 1)),
             (other, u1, (1, 3)), (other, u1, (1, 1, 3)), (ch, u1, (1, 1, 1, 3))]
    for char, u, idx in calls:
        fresh = dataclasses.replace(pd)
        assert fresh.theta_memo is None and "omega_inv" not in vars(fresh)
        assert wp_theta(pd, char, u, idx) == wp_theta(fresh, char, u, idx)
        assert np.array_equal(fresh.omega_inv, pd.omega_inv)
        assert fresh.omega_inv is vars(fresh)["omega_inv"]
        assert pd.theta_memo[0] == (char, np.asarray(u, dtype=complex).tobytes())


def test_wp_theta_makes_one_theta_pass_per_argument(monkeypatch):
    curve, pd, ch, (u1, u2) = _bridge_setup()
    real, passes = transcendental._terms, []

    def spy(v, form, char, tol, k):
        passes.append(k)
        return real(v, form, char, tol, k)

    monkeypatch.setattr(transcendental, "_terms", spy)
    bundle = [(1, 1), (1, 3), (3, 3), (1, 1, 1), (1, 1, 3)]  # the genus-2 wp-bundle
    for idx in bundle:
        wp_theta(pd, ch, u1, idx)
    assert passes == [4]
    for idx in [(1, 1), (1, 1, 1, 3), (1, 3), (1, 1, 3), (3, 3, 3, 3)]:  # interleaved orders
        wp_theta(pd, ch, list(u2), idx)
    assert passes == [4, 4]
    wp_theta(pd, ch, u1, (1, 1, 1))
    assert passes == [4, 4, 4]


def test_lattice_is_stacked_once_per_period_data(monkeypatch):
    curve, pd, _, _ = _bridge_setup()
    L, LR = pd.lattice  # riemann_characteristic and abel filled it
    assert np.array_equal(L, np.hstack([pd.omega, pd.omega_prime]))
    assert np.array_equal(LR, np.vstack([L.real, L.imag]))
    assert not L.flags.writeable and not LR.flags.writeable
    calls = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np, "hstack", spy("hstack", np.hstack))
    monkeypatch.setattr(np, "vstack", spy("vstack", np.vstack))
    rng = np.random.default_rng(5)
    for _ in range(3):
        abel(curve, random_divisor(curve, curve.genus, rng), pd)
    assert calls == [] and pd.lattice[0] is L


def test_wp_theta_sets_up_theta_once_per_period_data(monkeypatch):
    curve, pd, ch, (u1, u2) = _bridge_setup()
    assert "theta_form" in vars(pd)  # riemann_characteristic filled it
    calls = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigvalsh", spy("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "inv", spy("inv", np.linalg.inv))
    for u in (u1, u2, u1):
        for idx in [(1, 1), (1, 3), (3, 3), (1, 1, 1), (1, 1, 3), (1, 1, 1, 1)]:
            wp_theta(pd, ch, u, idx)
    assert calls == []


def test_wp_theta_memo_raises_on_every_call_on_the_theta_divisor(monkeypatch):
    curve, pd, ch, _ = _bridge_setup()
    real, passes = transcendental._terms, []

    def spy(*args):
        passes.append(args[-1])
        return real(*args)

    monkeypatch.setattr(transcendental, "_terms", spy)
    for idx in [(1, 1), (1, 1), (1, 1, 3)]:
        with pytest.raises(ThetaDivisorError):
            wp_theta(pd, ch, np.zeros(2), idx)
    key, F, moments = pd.theta_memo
    base, t0 = moments[()]
    assert key == (ch, np.zeros(2, dtype=complex).tobytes()) and passes == [4]
    assert abs(t0) < 1e-8 and t0 == np.sum(base) and F.shape == (base.size, 2)
    assert list(moments) == [()]  # a raise forms no product


@pytest.mark.parametrize("name", ["g2", "g3"])
def test_wp_theta_values_have_the_bits_of_a_cumulant_without_a_table(name):
    # every index tuple of order 2-4, at two arguments, in shuffled orders:
    # a shared product has the bits of the product formed for that call alone
    curve, pd, ch, us = _bridge_setup(name)
    gaps = curve.gaps
    calls = [(u, idx) for u in range(2) for k in (2, 3, 4)
             for idx in itertools.product(gaps, repeat=k)]
    refs = {}
    for u in range(2):
        m, _, base = _terms(pd.omega_inv @ us[u], pd.theta_form, ch, 1e-14, 4)
        F = 2j * np.pi * (m.T @ pd.omega_inv)
        for _, idx in calls:
            pos = [gaps.index(w) for w in idx]
            refs[u, idx] = -_log_derivative(base, F[:, pos])
            if len(pos) == 2:
                refs[u, idx] += pd.kappa[pos[0], pos[1]]
    rng = np.random.default_rng(5)
    for order in (rng.permutation(len(calls)), rng.permutation(len(calls))):
        for u, idx in (calls[i] for i in order):
            assert wp_theta(pd, ch, us[u], idx) == complex(refs[u, idx])


def test_wp_theta_bundle_forms_seven_products_once(monkeypatch):
    # the genus-2 bundle reads 23 lattice products over 7 distinct chains;
    # each chain's product and sum are formed once, base is summed once
    curve, pd, ch, (u1, u2) = _bridge_setup()
    real, sums = np.sum, []

    def spy(a, *args, **kwargs):
        if np.ndim(a) == 1:  # the lattice pass's own sums are over a 2-D array
            sums.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "sum", spy)
    bundle = [(1, 1), (1, 3), (3, 3), (1, 1, 1), (1, 1, 3)]
    for idx in bundle:
        wp_theta(pd, ch, u1, idx)
    key, F, moments = pd.theta_memo
    assert sorted(moments) == [(), (0,), (0, 0), (0, 0, 0), (1,), (1, 0), (1, 0, 0), (1, 1)]
    assert len(sums) == 8 and all(any(a is p for p, _ in moments.values()) for a in sums)
    assert all(t == real(p) for p, t in moments.values())
    for idx in bundle:  # the same argument again forms nothing
        wp_theta(pd, ch, u1, idx)
    assert len(sums) == 8 and pd.theta_memo[2] is moments
    wp_theta(pd, ch, u2, (1, 3))  # a new argument starts an empty table
    assert pd.theta_memo[0] != key and sorted(pd.theta_memo[2]) == [(), (0,), (1,), (1, 0)]
    assert len(sums) == 12


def test_wp_theta_memo_leaves_repr_and_equality_alone():
    curve, pd, ch, (u1, _) = _bridge_setup()
    twin = dataclasses.replace(pd)
    wp_theta(pd, ch, u1, (1, 3))
    assert pd.theta_memo is not None and twin.theta_memo is None
    assert repr(pd) == repr(twin) and "theta_memo" not in repr(pd)
    assert pd == twin


# -- abel: branch images and legs against an mpmath oracle -----------------------


def _oracle_abel_point(e, x, y):
    """Reference: the Abel image of (x, y) from infinity as mpmath.quad at 30
    digits along the ray x + r d, r >= 0, that keeps clearest of the branch
    points e: A = int_0^inf F(x + r d) d / (2 y(r)) dr.  y(r) is the root of
    prod(x + r d - e) on the sheet of y, picked by the product of principal
    roots of 1 + r d / (x - c), which is continuous on the ray.  At a branch
    point the sheet is immaterial (its image is a half-period)."""
    mp = pytest.importorskip("mpmath")
    g = (len(e) - 1) // 2
    others = [complex(c) for c in e if c != x]
    at_branch = len(others) < len(e)

    def clearance(phi):
        w = (np.array(others) - x) * np.exp(-1j * phi)
        return np.min(np.where(w.real > 0, np.abs(w.imag), np.abs(w)))

    phi = max(np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False), key=clearance)
    d0 = np.exp(1j * phi)
    y0 = np.sqrt(np.prod([x - c for c in others]))
    y0 = y0 if at_branch or abs(y0 - y) <= abs(y0 + y) else -y0

    def sheet(r):
        v = y0 * np.prod([np.sqrt(1 + r * d0 / (x - c)) for c in others])
        return v * np.sqrt(r * d0) if at_branch else v

    with mp.workdps(30):
        X, d = mp.mpc(x), mp.expj(phi)
        C = [mp.mpc(c) for c in e]
        cache = {}

        def vals(r):
            if r not in cache:  # the g rules share their nodes
                xr = X + r * d
                yr = mp.sqrt(mp.fprod(xr - c for c in C))
                ref = sheet(float(r))
                yr = -yr if abs(complex(yr) + ref) < abs(complex(yr) - ref) else yr
                cache[r] = [xr ** (g - 1 - i) * d / (2 * yr) for i in range(g)]
            return cache[r]

        pts = [0] + sorted({float(abs(x - c)) for c in others}) + [mp.inf]
        return np.array([complex(mp.quad(lambda r: vals(r)[i], pts, maxdegree=5))
                         for i in range(g)])


def _off_lattice(pd, u):
    """Largest distance of the lattice coordinates of u from integers."""
    coords = _lattice_coords(pd.lattice[1], u)
    return float(np.max(np.abs(coords - np.round(coords))))


@pytest.mark.parametrize("name", ["g1", "g2", "g3"])
def test_branch_images_are_half_periods_matching_an_mpmath_ray_from_infinity(name):
    curve = FIXED_CURVES[name]()
    pd = period_matrices(curve, best_effort_genus3=curve.genus == 3)
    assert sorted(pd.chain, key=lambda z: (z.real, z.imag)) == list(pd.branch)
    assert pd.quadrature["snap"] <= 1e-12
    assert _off_lattice(pd, 2.0 * pd.images) <= 1e-12
    for c, U in zip(pd.chain, pd.images.T):
        assert _off_lattice(pd, U - _oracle_abel_point(pd.branch, c, 0.0)) < 1e-13


# real branch points: rays and legs along the real axis meet branch points
REAL_CURVE = {"real": lambda: _curve_from_branch_points([-1.3, -0.4, 0.2, 0.9, 1.6])}


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "real"])
def test_abel_matches_an_mpmath_oracle_mod_the_lattice(name):
    curve = {**FIXED_CURVES, **REAL_CURVE}[name]()
    pd = period_matrices(curve, best_effort_genus3=curve.genus == 3)
    P, LR = x_polynomial(curve), pd.lattice[1]
    # far points, |x| = 1e3, and one point 1e-2, 1e-5 or 1e-8 from each branch point
    targets = [0.3 - 0.2j, 2.5, 1e3 * np.exp(0.3j)]
    targets += [ek + (1e-2, 1e-5, 1e-8)[k % 3] * np.exp(0.7j) for k, ek in enumerate(pd.branch)]
    for n, x in enumerate(map(complex, targets)):
        y = (-1) ** n * np.sqrt(np.polyval(P, x))
        u = abel(curve, Divisor(curve, [(x, y)], validate=False), pd)
        assert _off_lattice(pd, u - _oracle_abel_point(pd.branch, x, y)) < 1e-14
        assert np.max(np.abs(_lattice_coords(LR, u))) <= 0.5 + 1e-12  # the centred cell


def test_branch_images_off_the_half_periods_raise(monkeypatch):
    curve = FIXED_CURVES["g2"]()
    snap = period_matrices(curve).quadrature["snap"]
    assert 0.0 < snap <= 1e-12
    monkeypatch.setattr(transcendental, "_SNAP_TOL", snap)
    period_matrices(curve)
    monkeypatch.setattr(transcendental, "_SNAP_TOL", 0.5 * snap)
    with pytest.raises(PrecisionError, match="half-periods"):
        period_matrices(curve)


def _scale_loops(rows, cols, factor):
    """Edit of the raw loop integrals: rows x cols scaled by factor."""
    def edit(raw):
        raw[np.ix_(rows, cols)] *= factor
    return edit


@pytest.mark.parametrize(
    "edit, gate",
    [
        (_scale_loops([0, 1], [0, 1, 2, 3], 0.0), "omega is singular"),
        (_scale_loops([0], [3], 1.01), "not symmetric"),
        (_scale_loops([2, 3], [0, 1, 2, 3], 1.01), "Legendre relation fails"),
    ],
)
def test_each_period_gate_raises_naming_itself(monkeypatch, edit, gate):
    curve = FIXED_CURVES["g2"]()
    chain_homology = transcendental._chain_homology

    def edited(curve, e):
        raw, chain, quadrature = chain_homology(curve, e)
        edit(raw)
        return raw, chain, quadrature

    monkeypatch.setattr(transcendental, "_chain_homology", edited)
    with pytest.raises(PrecisionError, match=gate):
        period_matrices(curve)


def test_swapped_cycles_fail_the_positivity_gate(monkeypatch):
    # the one orientation period_matrices tries is the one that can pass
    curve = FIXED_CURVES["g2"]()
    rows = transcendental._canonical_rows
    monkeypatch.setattr(transcendental, "_canonical_rows",
                        lambda g: (np.roll(rows(g)[0], g, axis=1), rows(g)[1]))
    with pytest.raises(PrecisionError, match="not positive definite"):
        period_matrices(curve)


def test_abel_leg_needing_too_many_nodes_raises(monkeypatch):
    curve = FIXED_CURVES["g2"]()
    pd = period_matrices(curve)
    far, bad = (_on_curve(curve, 10.0**p * np.exp(0.3j)) for p in (7, 16))  # 1846 nodes; too many
    abel(curve, Divisor(curve, [far], validate=False), pd)
    calls = []
    monkeypatch.setattr(transcendental, "_continue_sqrt", lambda *a: calls.append(a))
    for pts in ([bad], [far, bad], [_on_curve(curve, 0.3 - 0.2j), bad]):
        with pytest.raises(PrecisionError, match="Abel leg needs"):
            abel(curve, Divisor(curve, pts, validate=False), pd)
    assert calls == []  # it raises before the batched pass


def test_continue_sqrt_on_coarse_leg_nodes_is_ambiguous():
    # the Abel leg from 0 to 1, x = s^2, passing 0.05 from a branch point:
    # on two nodes sqrt(x - 0.5 - 0.05i) turns by a quarter between them
    c = np.array([0.0, 0.5 + 0.05j, 3.0])
    y = np.sqrt(np.prod(1.0 - c))
    for N, ambiguous in [(2, True), (64, False)]:
        x = np.append(1.0, _leg_rule(N)[0][::-1] ** 2)
        Q = (x - c[1]) * (x - c[2])
        if ambiguous:
            with pytest.raises(PrecisionError, match="ambiguous"):
                _continue_sqrt(Q, y, [0, len(Q)])
        else:
            assert np.allclose(_continue_sqrt(Q, y, [0, len(Q)]) ** 2, Q, rtol=1e-14, atol=0)


def test_continue_sqrt_restarts_at_each_segment():
    # two segments of one array: each starts from its own y0, whatever the
    # one before ended on, and the jump between them is a step of neither
    t = np.linspace(0.0, 1.0, 40)
    w2 = np.concatenate([np.exp(1j * np.pi * t), -np.exp(1j * np.pi * t)])  # sqrt(w2) turns a quarter
    for y0 in ([1.0, -1j], [-1.0, 1j], [1.0, 1j]):
        y = _continue_sqrt(w2, np.array(y0), [0, 40, 80])
        assert np.array_equal(y[:40], _serial_continuation(w2[:40], y0[0]))
        assert np.array_equal(y[40:], _serial_continuation(w2[40:], y0[1]))
    # the principal root jumps from i to -i at the boundary: one path flips
    # there, while a segment starting there keeps its own start, so
    # y[39], y[40] = i, -i is no ambiguous step
    one = _continue_sqrt(w2, 1.0, [0, 80])
    assert np.allclose(one[[39, 40, -1]], [1j, 1j, -1.0])
    two = _continue_sqrt(w2, np.array([1.0, -1j]), [0, 40, 80])
    assert np.array_equal(two[:40], one[:40]) and np.array_equal(two[40:], -one[40:])
    # a near quarter turn of sqrt between two nodes is ambiguous inside a
    # segment, and no step where a segment boundary falls between them
    coarse = np.concatenate([w2[:40], np.exp(1j * np.pi * np.array([0.0, 0.9]))])
    with pytest.raises(PrecisionError, match="ambiguous"):
        _continue_sqrt(coarse, np.array([1.0, 1.0]), [0, 40, 42])
    _continue_sqrt(coarse, np.ones(3), [0, 40, 41, 42])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_continue_sqrt_over_segments_is_the_one_path_routine_per_segment(data):
    # coarse random paths: both flip the sign at the same steps, to the
    # bit, and both refuse the same ambiguous steps
    cplx = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    segs = data.draw(st.lists(st.lists(cplx, min_size=1, max_size=6), min_size=1, max_size=4))
    y0 = np.array([data.draw(cplx) for _ in segs])
    bounds = np.cumsum([0] + [len(seg) for seg in segs])
    w2 = np.concatenate([np.array(seg) for seg in segs])
    try:
        ref = np.concatenate([_reference_continue_sqrt(np.array(seg), y) for seg, y in zip(segs, y0)])
    except PrecisionError:
        with pytest.raises(PrecisionError, match="ambiguous"):
            _continue_sqrt(w2, y0, bounds)
        return
    y = _continue_sqrt(w2, y0, bounds)
    assert np.array_equal(y, ref) and np.array_equal(np.signbit(y.view(float)), np.signbit(ref.view(float)))


def test_leg_rule_is_fejer_with_full_precision_nodes_next_to_zero():
    for N in (1, 2, 9, 40, 1846, _MAX_EDGE_NODES):
        s, w = _leg_rule(N)
        ws = w.copy()  # w s^p
        for p in range(min(N, 2048)):  # exact below degree N; checked to degree 2047
            assert abs(np.sum(ws) - 1.0 / (p + 1)) < 1e-14
            ws *= s
        th = (np.arange(N) + 0.5) * np.pi / N
        assert np.allclose(s, 0.5 * (1.0 - np.cos(th)), rtol=1e-12, atol=1e-16)
        assert s[0] == np.sin(0.25 * np.pi / N) ** 2
    assert _leg_rule(40) is _leg_rule(40)  # one rule per node count


def test_leg_rule_weights_match_an_mpmath_dct():
    # the weights (1/N) sum_k c_k m_k cos(k th_j), c = (1, 2, 2, ...), summed
    # at 40 digits by the cosines' three-term recurrence over the first half
    # of the nodes (w_j = w_(N-1-j)); the FFT errs by at most 0.25 N eps
    # relative here (2.8e-14 at N = 512, as scipy's DCT did)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for N in (8, 33, 64, 127, 256, 512):
            th = [(j + mp.mpf(1) / 2) * mp.pi / N for j in range((N + 1) // 2)]
            two_cos = np.array([2 * mp.cos(2 * t) for t in th], dtype=object)
            prev, cur = np.ones(len(th), dtype=object), two_cos / 2
            half = np.ones(len(th), dtype=object)
            for k in range(2, N, 2):  # cur = cos(k th)
                half = half - 2 * cur / (k * k - 1)
                prev, cur = cur, two_cos * cur - prev
            ref = np.concatenate([half, half[: N // 2][::-1]]) / N
            w = _leg_rule(N)[1]
            err = max(abs((mp.mpf(float(a)) - b) / b) for a, b in zip(w, ref))
            assert err < N * np.finfo(float).eps, (N, err)


# (branch points, target) where abs(u) ** 2 over an array of starts rounds
# unlike the scalar expression in at least one start
ROUNDING_CASES = [
    ([-0.278 - 0.113j, 0.906 + 0.682j, 1.24 + 0.519j, -0.324 + 0.217j, 0.032 + 1.404j],
     0.854 + 0.633j),
    ([1.213 - 0.417j, 0.418 - 0.446j, 0.315 - 0.09j, 0.988 + 0.813j, -1.805 - 0.341j],
     -2.785 - 0.993j),
    ([-0.853 + 0.036j, -0.195 + 0.612j, 0.348 + 0.909j, 0.872 + 0.505j, -0.353 - 0.425j],
     0.539 + 0.01j),
]


def test_segment_distance_column_of_starts_matches_one_call_per_start():
    rng = np.random.default_rng(3)
    cases = ROUNDING_CASES + [(rng.normal(size=5) + 1j * rng.normal(size=5),
                               complex(*rng.normal(size=2))) for _ in range(200)]
    for e, x in cases:
        e = np.array(e)
        starts = 4.0 * max(1.0, np.max(np.abs(e)), abs(x)) * np.exp(
            1j * (np.angle(x) + np.array([0.0, 0.35, -0.35, 0.7, -0.7, 1.1, -1.1])))
        one_by_one = [_segment_distance(a, x, e) for a in starts]
        assert np.array_equal(_segment_distance(starts[:, None], x, e), one_by_one)


# -- chain edges: homology, sheets and quadrature -------------------------------


def _legendre_J(g):
    return np.block([[np.zeros((g, g)), -np.eye(g)], [np.eye(g), np.zeros((g, g))]])


def _crosses(p1, p2, q1, q2) -> bool:
    """Reference: the segments p1 p2 and q1 q2 cross at a point inside both."""

    def orient(a, b, c):
        return np.sign((b.real - a.real) * (c.imag - a.imag) - (b.imag - a.imag) * (c.real - a.real))

    return orient(p1, p2, q1) * orient(p1, p2, q2) < 0 and orient(q1, q2, p1) * orient(q1, q2, p2) < 0


def _is_simple(z) -> bool:
    return not any(_crosses(z[i], z[i + 1], z[k], z[k + 1])
                   for i in range(len(z) - 1) for k in range(i + 2, len(z) - 1))


@pytest.mark.parametrize("g, seed", [(1, 11), (2, 12), (3, 13)])
def test_chain_loops_pair_as_the_tridiagonal_intersection_matrix(g, seed):
    # Riemann's bilinear relation in the basis of the loops round the chain
    # edges: raw^T J raw = -2 pi i A, with A[j, j + 1] = +1 and A 0 off the
    # band.  Continuing y round a junction counter-clockwise instead flips
    # the sheet of every other loop, and with it the sign of A.
    curve = random_curve(2, 2 * g + 1, np.random.default_rng(seed))
    raw, _, _ = _chain_homology(curve, branch_points(curve))
    A = np.eye(2 * g, k=1) - np.eye(2 * g, k=-1)
    R = raw.T @ _legendre_J(g) @ raw
    assert np.max(np.abs(R + 2j * np.pi * A)) < 1e-12 * max(1.0, np.max(np.abs(raw)) ** 2)


# (omega, omega', eta, eta') and characteristic of FIXED_CURVES from the
# elliptic contours, trapezoid doubling and counted crossings that the
# straight chain edges replaced
ELLIPSE_PERIODS = {
    "g1": {
        "omega": [[(1.1605338811379136+2.1562711361024722j)]],
        "omega_prime": [[(-2.7765541190612377+0.32406224800670624j)]],
        "eta": [[(-0.6708694221002629+1.2054749386376122j)]],
        "eta_prime": [[(1.262545773752134-0.0031671303821169117j)]],
        "char": ((0.5,), (0.5,)),
    },
    "g2": {
        "omega": [[(-1.2248401369271937+0.7630869070707927j), (-1.0495885330838979+2.1190762243630052j)], [(0.02931560426347489-1.4019348880223106j), (1.0657169868959206-0.14866384722572734j)]],
        "omega_prime": [[(0.8072119699156708-1.4365170091342778j), (-1.2014029985666625-0.8314402502522448j)], [(1.657352276911657-0.6436904335415432j), (-1.1426467313667117+1.4415286809594479j)]],
        "eta": [[(1.118381380516587+0.5876477434859434j), (0.6872690854655618+1.5584702730712865j)], [(0.2282960694443077-1.8333003355320523j), (-0.8260578181766787-0.2803965533301893j)]],
        "eta_prime": [[(-0.3022452532549451-0.8532680165566923j), (0.4928026743455022-0.808345087952317j)], [(-0.8218649125037369-0.03709185359218825j), (0.43474811179475836+1.070579347937928j)]],
        "char": ((0.5, 0.0), (0.5, 0.5)),
    },
    "clustered": {
        "omega": [[(-1.7075363067785987-0.08584313699357375j), (-1.9818908935418393-2.016788357700462j)], [(3.2950786887094337+1.0231546730769234j), (1.3170313406111915-1.3353480390919503j)]],
        "omega_prime": [[(-1.2156287262780023-3.344095899105626j), (0.6555566276204725-1.7690378193000533j)], [(-2.5541214625355693+7.1920863199787615j), (2.6097432602261295-0.9368248746645955j)]],
        "eta": [[(0.8301620897779264-0.1688299473310427j), (0.9786385743607067-1.06288633493302j)], [(-0.7067459058281409+0.19975607864298434j), (-0.40585155414751195-0.43958908155795134j)]],
        "eta_prime": [[(0.9725114786409947+0.7573698513064557j), (-0.3695710300364671-0.9665621758618079j)], [(0.0646953737651546-0.17309876964220872j), (-0.7210701899407297-0.40674455333840553j)]],
        "char": ((0.5, 0.0), (0.5, 0.5)),
    },
    "g3": {
        "omega": [[(0.790811635748675-0.2338838643166978j), (1.2777450266210033-1.1873379719648325j), (0.8362849130958356-1.9730808988082031j)], [(-0.6851151779701856+0.6610880692898602j), (0.3180920062645922+0.3410022060239749j), (-0.7242052223766537+0.2861515957688106j)], [(0.22993305374916276-1.1284311108149796j), (1.1111063840696978-0.6681771829054515j), (0.44795517634416304+0.19781458280159203j)]],
        "omega_prime": [[(-0.6451932568519572+0.42422170057663633j), (0.1767995605281405+1.0336607589334892j), (0.8313253723268108+0.5853461829209723j)], [(-0.7602958102200778-0.8069651980829341j), (0.13654641409428925+1.2049193372093812j), (0.30181580028109656-0.999321050450755j)], [(1.0961680560374367-0.9597212422253256j), (0.13397843054066144+1.2153935798055033j), (-0.9605780607674687+0.010499536098051682j)]],
        "eta": [[(-0.7565856935043609-0.06653427962280536j), (-1.0817183245357722-1.0577321699958822j), (-0.7240735574599475-1.6517147375627925j)], [(1.9531990259016765+1.2861129938208606j), (-0.3731038154642774+0.47896902102554884j), (1.4728235097892695+0.6763781825213737j)], [(-0.7862594543467063-2.0470661287694303j), (-1.440504075416103-1.4261839944008616j), (-0.540081755443173+0.040311505717647744j)]],
        "eta_prime": [[(0.0895723557898144+0.5334203441899233j), (0.23548330787384833+0.7427248046145389j), (-0.7136784340324409+0.5077514205004592j)], [(1.233424553210565+0.11878971747786027j), (0.34381355146803405+0.9392877195191008j), (-0.9713846649326978-1.664278930108191j)], [(-1.055421147979141-1.5832826501129853j), (-0.06577205582233095+1.3703908377144742j), (1.1242712788133034+0.4279016549586976j)]],
        "char": ((0.5, 0.0, 0.5), (0.5, 0.5, 0.5)),
    },
}


@pytest.mark.parametrize("name", sorted(FIXED_CURVES))
def test_periods_are_a_unimodular_transform_of_the_ellipse_periods(name):
    curve = FIXED_CURVES[name]()
    pd = period_matrices(curve, best_effort_genus3=curve.genus == 3)
    ref = ELLIPSE_PERIODS[name]
    old = np.vstack([np.hstack([ref["omega"], ref["omega_prime"]]),
                     np.hstack([ref["eta"], ref["eta_prime"]])])
    new = np.vstack([np.hstack([pd.omega, pd.omega_prime]), np.hstack([pd.eta, pd.eta_prime])])
    g = curve.genus
    lattice = np.vstack([old[:g].real, old[:g].imag])
    M = np.linalg.solve(lattice, np.vstack([new[:g].real, new[:g].imag]))
    Mi = np.round(M)
    assert np.max(np.abs(M - Mi)) < 1e-10
    assert abs(round(np.linalg.det(Mi))) == 1
    # one canonical basis to another: M is symplectic and carries eta along
    assert np.array_equal(Mi.T @ _legendre_J(g) @ Mi, _legendre_J(g))
    assert np.max(np.abs(old @ Mi - new)) < 1e-10 * np.max(np.abs(old))
    ch = riemann_characteristic(pd)
    assert (ch.eps_prime, ch.eps) == ref["char"]


def _clustered(gap):
    """FIXED_CURVES["clustered"] with its close pair gap apart."""
    return _curve_from_branch_points(
        [-0.6 + 0.1j, 0.5j, 0.7 - 0.2j, -0.1 - 0.6j, -0.6 + 0.1j + gap * np.exp(1j)]
    )


@pytest.mark.parametrize("gap", [1e-3, 1e-4])
def test_clustered_curves_pass_the_legendre_gate(gap):
    # the elliptic contours could not isolate these pairs (sheet tracking
    # was ambiguous); the edge next to the pair takes more Chebyshev nodes
    pd = period_matrices(_clustered(gap))
    Omega = np.block([[pd.omega, pd.omega_prime], [pd.eta, pd.eta_prime]])
    scale = max(1.0, float(np.max(np.abs(Omega))) ** 2)
    assert pd.legendre_residual < 1e-13 * scale
    assert min(pd.quadrature["bernstein"]) < 1.1 and max(pd.quadrature["nodes"]) > 400
    assert riemann_characteristic(pd).parity() == -1


# op 182 of the periods benchmark pool of seed 7: the nearest-neighbour walk
# of largest clearance crosses itself
SELF_CROSSING_WALK = {
    10: -0.06508843440014256 - 0.1272078228822161j,
    8: -0.27257399161070217 + 0.15483628164547159j,
    6: 0.05642241152004501 - 0.24828397382129697j,
    4: -0.4806037002500183 - 0.39900557052127616j,
}


def _nn_path(e, start):
    """Reference: the nearest-neighbour walk from start, one Python step at a
    time, the first of equally near points in index order."""
    left = list(range(len(e)))
    path = [left.pop(left.index(start))]
    while left:
        last = e[path[-1]]
        nxt = min(left, key=lambda i: abs(e[i] - last))
        left.remove(nxt)
        path.append(nxt)
    return path


def test_chain_order_skips_self_crossing_walks():
    curve = curve_model(2, 5, SELF_CROSSING_WALK)
    e = branch_points(curve)

    def clearance(path):
        return min(_segment_distance(e[path[j]], e[path[j + 1]], np.delete(e, path[j:j + 2]))
                   for j in range(len(e) - 1))

    walks = transcendental._nn_walks(e).tolist()
    assert walks == [_nn_path(e, s) for s in range(len(e))]
    sweeps = [list(np.argsort((e * np.exp(-1j * phi)).real)) for phi in (0.0, 0.4, 0.8, 1.2, 1.6)]
    widest = max(walks + sweeps, key=clearance)
    assert widest in walks and not _is_simple(e[widest])
    order, q = _chain_order(e)
    assert _is_simple(e[order])
    assert q == pytest.approx(max(clearance(p) for p in walks + sweeps if _is_simple(e[p])), rel=1e-12)
    pd = period_matrices(curve)
    assert pd.legendre_residual < 1e-13


def test_edge_needing_too_many_nodes_raises():
    # a pair 4e-6 apart passes the chain's clearance gate, but the long edge
    # ending next to it needs about 26000 Chebyshev nodes
    curve = _curve_from_branch_points([-2.0, 2.0, 2.0 + 4e-6j])
    with pytest.raises(PrecisionError, match="nodes"):
        period_matrices(curve)


def test_edge_sqrt_coarse_nodes_are_ambiguous():
    # two nodes across an edge passing 0.05 from a branch point: sqrt(x - 0.05i)
    # turns by a quarter between them
    c, others = np.array([-1.0 + 0j, 1.0]), np.array([[0.05j]])
    with pytest.raises(PrecisionError, match="ambiguous"):
        _edge_sqrt(c, others, [2])
    x, q, starts, ends = _edge_sqrt(c, others, [64])
    assert np.allclose(q ** 2, x - 0.05j, rtol=1e-14, atol=0)
    assert x[0] == -1.0 and x[-1] == 1.0 and np.all(np.diff(x.real) > 0)
    assert list(starts) == [0] and list(ends) == [65]
    # beside an edge of fine nodes, an edge of coarse ones is still refused
    c, others = np.array([-1.0 + 0j, 1.0, 3.0]), np.array([[3.0], [2.0 + 0.05j]])
    with pytest.raises(PrecisionError, match="ambiguous"):
        _edge_sqrt(c, others, [64, 2])
    x, q, starts, ends = _edge_sqrt(c, others, [64, 64])
    assert list(starts) == [0, 66] and list(ends) == [65, 131] and x[65] == x[66] == 1.0
    assert np.allclose(q ** 2, np.append(x[:66] - 3.0, x[66:] - 2.0 - 0.05j), rtol=1e-14, atol=0)


def test_junction_sign_goes_round_clockwise_and_needs_a_unit_ratio():
    # chain -1 -> 0 -> 1: sqrt(x - 1) ends at 0 as i, sqrt(x + 1) starts there
    # as 1; the clockwise half turn from -1 to +1 turns sqrt(x) by -pi/2
    c = np.array([-1.0 + 0j, 0.0, 1.0])
    _, q, starts, ends = _edge_sqrt(c, c[[[2], [0]]], [16, 16])
    q0, q1 = q[ends[0]], q[starts[1]]
    assert abs(q0 - 1j) < 1e-15 and q1 == 1.0
    h = np.array([0.5 + 0j, 0.5])
    assert list(_junction_sign(h, np.array([q0, q0]), h, np.array([q1, -q1]))) == [1.0, -1.0]
    h = np.array([0.5 + 0j, 0.5, 0.5])
    with pytest.raises(PrecisionError, match=r"do not join \(ratio \S*-1j\)"):  # the first bad one
        _junction_sign(h, np.array([q0, q0, q0]), h, np.array([q1, 1j * q1, 2.0 * q1]))


def _oracle_columns(curve):
    """Reference: the loop integrals of (du, dr) round the library's chain edges
    from mpmath.quad at 30 digits.  Its tanh-sinh rule takes the edge integrals
    with their endpoint singularities; sqrt(Q) is a product of principal roots
    of (x - c) / (c_j - c); each next sheet comes from continuing y = sqrt(P)
    in 400 steps round the shared branch point on a clockwise arc."""
    mp = pytest.importorskip("mpmath")
    g = curve.genus
    e = branch_points(curve)
    order, _ = _chain_order(e)
    cols, prev = [], None
    with mp.workdps(30):
        c = [mp.mpc(z) for z in e[order]]
        rhos = [{i: mp.mpc(v) for (i, _), v in table.items()}
                for table in curve.second_kind_numerators()]

        def F(i, x):
            if i < g:
                return x ** (g - 1 - i)
            return mp.fsum(v * x**k for k, v in rhos[i - g].items())

        for j in range(2 * g):
            a, b = c[j], c[j + 1]
            others = c[:j] + c[j + 2:]
            m, h = (a + b) / 2, (b - a) / 2
            q_a = mp.sqrt(mp.fprod(a - ck for ck in others))

            def y(x, m=m, h=h, a=a, others=others, q_a=q_a):  # the sheet sigma = 1
                t = (x - m) / h
                sq = q_a * mp.fprod(mp.sqrt((x - ck) / (a - ck)) for ck in others)
                return 1j * h * mp.sqrt(1 - t * t) * sq

            sigma = 1
            if prev is not None:
                h0, y0 = prev
                r = min(abs(ck - a) for ck in c if ck != a) / 4
                start = mp.arg(-h0 / abs(h0))
                sweep = -((start - mp.arg(h / abs(h))) % (2 * mp.pi))
                val = y0(a - r * h0 / abs(h0))
                for k in range(1, 401):
                    w = mp.sqrt(mp.fprod(a + r * mp.expj(start + sweep * k / 400) - ck for ck in c))
                    val = w if abs(w - val) < abs(w + val) else -w
                here = y(a + r * h / abs(h))
                sigma = 1 if abs(val - here) < abs(val + here) else -1
            prev = h, (lambda x, y=y, s=sigma: s * y(x))
            cache = {}

            def integrands(t, m=m, h=h, a=a, others=others, q_a=q_a, cache=cache):
                if t not in cache:  # F_i / (sqrt(Q) sqrt(1 - t^2)); the 2g rules share nodes
                    x = m + h * t
                    sq = q_a * mp.fprod(mp.sqrt((x - ck) / (a - ck)) for ck in others)
                    w = 1 / (sq * mp.sqrt(1 - t * t))
                    cache[t] = [F(i, x) * w for i in range(2 * g)]
                return cache[t]

            cols.append([complex(1j * sigma * mp.quad(lambda t: integrands(t)[i], [-1, 1]))
                         for i in range(2 * g)])
    return np.array(cols).T


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "gap-1e-4"])
def test_chain_periods_match_an_mpmath_oracle(name):
    # next to a pair 1e-4 apart the nodes keep their distance to the near
    # end to full relative precision, or the edge loses two digits
    curve = _clustered(1e-4) if name == "gap-1e-4" else FIXED_CURVES[name]()
    ref = _oracle_columns(curve)
    raw, _, _ = _chain_homology(curve, branch_points(curve))
    assert np.all(np.max(np.abs(raw - ref), axis=0) <= 1e-14 * np.max(np.abs(ref), axis=0))


def test_period_data_records_the_edge_quadrature():
    pd = period_matrices(FIXED_CURVES["clustered"]())
    quad = pd.quadrature
    order, clearance = _chain_order(pd.branch)
    chain = pd.branch[order]
    assert quad["clearance"] == clearance and abs(clearance - 0.01) < 1e-9
    assert len(quad["nodes"]) == len(quad["bernstein"]) == 4
    for j, (N, rho) in enumerate(zip(quad["nodes"], quad["bernstein"])):
        a, b = chain[j], chain[j + 1]
        # the nearest other branch point lies on the ellipse with foci a, b
        # and semi-axis sum |b - a| rho / 2
        foci = min(abs(z - a) + abs(z - b) for z in np.delete(chain, [j, j + 1]))
        assert abs(foci - 0.5 * abs(b - a) * (rho + 1.0 / rho)) < 1e-12 * foci
        assert rho ** -(N - _EDGE_MARGIN) <= _EDGE_EPS < rho ** -(N - _EDGE_MARGIN - 1)
    # the pair 1e-2 apart is an edge of radius far above the others, and the
    # edge next to it has the smallest radius and the most nodes
    assert max(quad["bernstein"]) > 100 and np.argmin(quad["bernstein"]) == np.argmax(quad["nodes"])
    assert "quadrature" not in repr(pd) and "quadrature" not in period_to_json(pd)
    assert dataclasses.replace(pd, quadrature=None) == pd


def test_bernstein_radius_is_the_same_on_both_sides_of_a_signed_zero():
    # z = -3 - 0j: z - 1 and z + 1 get imaginary parts -0 and +0, so the
    # product of principal roots picks the root of modulus 3 - 2 sqrt 2
    z = np.array([[complex(-3.0, 0.0)], [complex(-3.0, -0.0)], [complex(3.0, -0.0)], [4j]])
    assert np.allclose(_bernstein_radius(z), [3.0 + 8.0**0.5] * 3 + [4.0 + 17.0**0.5], rtol=1e-15)


# -- the batched edge pass against the edge-by-edge loop -------------------------


def _reference_continue_sqrt(w2, y0):
    """Reference: the one-path sign tracking that the segmented
    _continue_sqrt replaced."""
    w = np.sqrt(w2)
    flips = np.where(np.abs(w[1:] - w[:-1]) > np.abs(w[1:] + w[:-1]), -1.0, 1.0)
    start = 1.0 if abs(w[0] - y0) <= abs(w[0] + y0) else -1.0
    y = np.concatenate([[start], start * np.cumprod(flips)]) * w
    if np.any(np.abs(y[1:] - y[:-1]) > 0.7 * np.abs(y[1:] + y[:-1])):
        raise PrecisionError("sheet continuation along a sampled path is ambiguous")
    return y


def _reference_chain_homology(curve, e):
    """Reference: the loop integrals edge by edge, as _chain_homology
    computed them before its edges became one batched pass."""
    g = curve.genus
    order, clearance = _chain_order(e)
    c = e[order]
    rho_coeffs = [y_split(table)[0] for table in curve.second_kind_numerators()]
    raw = np.empty((2 * g, 2 * g), dtype=complex)
    nodes, radii = [], []
    sigma, last = 1.0, None
    for j in range(2 * g):
        a, b, others = c[j], c[j + 1], np.delete(c, [j, j + 1])
        m, h = 0.5 * (a + b), 0.5 * (b - a)
        rho = float(_bernstein_radius((others - m) / h))
        N = _node_count(rho, "chain edge")
        th = (np.arange(N) + 0.5) * np.pi / N
        lo = np.concatenate([[0.0], 2.0 * np.sin(0.5 * th) ** 2, [2.0]])
        hi = np.concatenate([[2.0], 2.0 * np.cos(0.5 * th) ** 2, [0.0]])
        near_a = lo <= hi
        Q = np.prod(np.where(near_a[:, None], (a - others) + h * lo[:, None],
                             (b - others) - h * hi[:, None]), axis=1)
        q = _reference_continue_sqrt(Q, np.sqrt(Q[0]))
        x = np.where(near_a, a + h * lo, b - h * hi)
        if last is not None:  # the sheet round the junction, as _junction_sign
            h0, q0 = last
            d0, d1 = h0 / abs(h0), h / abs(h)
            dphi = -((np.angle(-d0) - np.angle(d1)) % (2.0 * np.pi))
            ratio = d0 * np.sqrt(abs(h0)) * q0 * np.exp(0.5j * dphi) / (d1 * np.sqrt(abs(h)) * q[0])
            if min(abs(ratio - 1.0), abs(ratio + 1.0)) > 1e-6:
                raise PrecisionError(f"sheets of consecutive chain edges do not join (ratio {ratio:.3g})")
            sigma *= float(np.sign(ratio.real))
        last = h, q[-1]
        x, q = x[1:-1], q[1:-1]
        F = [x ** (g - 1 - i) for i in range(g)] + [np.polyval(r, x) for r in rho_coeffs]
        raw[:, j] = (1j * sigma * np.pi / N) * np.sum(np.array(F) / q, axis=1)
        nodes.append(N)
        radii.append(rho)
    return raw, c, {"nodes": nodes, "bernstein": radii, "clearance": clearance}


def _assert_same_bits(curve):
    e = branch_points(curve)
    try:
        ref = _reference_chain_homology(curve, e)
    except PrecisionError as exc:
        with pytest.raises(PrecisionError, match=re.escape(str(exc))):
            _chain_homology(curve, e)
        return None
    raw, chain, quad = _chain_homology(curve, e)
    assert np.array_equal(raw, ref[0]) and raw.flags.c_contiguous
    assert np.array_equal(np.signbit(raw.view(float)), np.signbit(ref[0].view(float)))
    assert np.array_equal(chain, ref[1]) and quad == ref[2]
    assert [type(v) for v in quad["nodes"] + quad["bernstein"]] == [int] * len(raw) + [float] * len(raw)
    return raw


@pytest.mark.parametrize("name", sorted(FIXED_CURVES) + ["gap-1e-4", "real", "real-g1"])
def test_batched_edges_have_the_bits_of_the_edge_by_edge_loop(name):
    # on the real curves whole parts of loop integrals are exact zeros, whose
    # signs follow the rounding of i sigma pi / N
    curves = {**FIXED_CURVES, **REAL_CURVE, "gap-1e-4": lambda: _clustered(1e-4),
              "real-g1": lambda: curve_model(2, 3, {4: -1.0})}
    assert _assert_same_bits(curves[name]()) is not None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_batched_edges_have_the_bits_of_the_edge_by_edge_loop_on_random_curves(data):
    # branch points on a coarse grid give exact ties (walks, sweeps) and
    # exact zeros (real edges); free ones give everything else
    g = data.draw(st.integers(1, 3), label="g")
    coord = st.one_of(st.integers(-3, 3).map(lambda k: 0.5 * k),
                      st.floats(-2.0, 2.0, allow_subnormal=False))
    e = [complex(data.draw(coord), data.draw(coord)) for _ in range(2 * g + 1)]
    try:
        curve = _curve_from_branch_points(e)
        branch_points(curve)
    except (DegenerateCurveError, InvalidCurveError):
        return
    try:
        _assert_same_bits(curve)
    except PrecisionError:  # both refuse the chain itself
        with pytest.raises(PrecisionError):
            _chain_order(branch_points(curve))


# -- branch points are found once per curve -------------------------------------


def test_branch_points_are_found_once_per_curve(monkeypatch):
    calls = []
    roots = np.roots
    monkeypatch.setattr(np, "roots", lambda c: calls.append(1) or roots(c))
    curve = FIXED_CURVES["g2"]()
    e = branch_points(curve)
    pd = period_matrices(curve)
    assert len(calls) == 1 and pd.branch is e and branch_points(curve) is e
    assert not e.flags.writeable
    with pytest.raises(ValueError):
        e[0] = 0.0
    # a new curve with the same lambda finds its own, the same bits
    twin = curve_model(2, 5, dict(curve.lam))
    assert twin == curve and repr(twin) == repr(curve)
    assert np.array_equal(branch_points(twin), e) and branch_points(twin) is not e
    assert len(calls) == 2
    # a raise is not kept: every call finds the collision anew
    cusp = curve_model(2, 3)
    for n in (3, 4):
        with pytest.raises(DegenerateCurveError, match="collide"):
            branch_points(cusp)
        assert len(calls) == n


# -- the batched Abel legs against the point-by-point loop -----------------------


def _on_curve(curve, x):
    x = complex(x)
    return x, complex(np.sqrt(np.polyval(x_polynomial(curve), x)))


def _reference_abel(curve, D, pd):
    """Reference: the Abel map point by point, as abel computed it before
    the legs of a divisor became one batched pass."""
    g = curve.genus
    c, n = pd.chain, len(pd.chain)
    total = np.zeros(g, dtype=complex)
    for pt in D.points:
        on = np.flatnonzero(c == pt.x)
        if len(on):
            total += pd.images[:, on[0]]
            continue
        r = (c - c[:, None]) / (pt.x - c)[:, None]  # s^2 at the singularities of each leg
        z = np.sqrt(r[~np.eye(n, dtype=bool)].reshape(n, n - 1))
        rho = _bernstein_radius(np.concatenate([2.0 * z - 1.0, -2.0 * z - 1.0], axis=1))
        k = int(np.argmax(rho))
        s, w = _leg_rule(_node_count(rho[k], "Abel leg"))
        d = pt.x - c[k]
        s2 = np.append(1.0, s[::-1] ** 2)
        Q = np.prod((c[k] - c[np.arange(n) != k]) + d * s2[:, None], axis=1)
        q = _continue_sqrt(Q, pt.y / np.sqrt(d), [0, len(Q)])
        x = c[k] + d * s2[:0:-1]
        du = np.array([x ** (g - 1 - i) for i in range(g)]) / q[:0:-1]
        total += pd.images[:, k] - np.sqrt(d) * (du @ w)
    L = np.hstack([pd.omega, pd.omega_prime])
    return total - L @ np.round(_lattice_coords(np.vstack([L.real, L.imag]), total))


def _assert_abel_bits(curve, pts, pd):
    D = Divisor(curve, pts, validate=False)
    try:
        ref = _reference_abel(curve, D, pd)
    except PrecisionError:
        with pytest.raises(PrecisionError):
            abel(curve, D, pd)
        return None
    u = abel(curve, D, pd)
    assert np.array_equal(u, ref)
    assert np.array_equal(np.signbit(u.view(float)), np.signbit(ref.view(float)))
    return u


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "real"])
def test_batched_abel_legs_have_the_bits_of_the_point_by_point_loop(name):
    curve = {**FIXED_CURVES, **REAL_CURVE}[name]()
    pd = period_matrices(curve, best_effort_genus3=curve.genus == 3)
    c = pd.chain
    plain = [_on_curve(curve, x) for x in (0.3 - 0.2j, -0.5 + 0.4j, 2.5)]
    near = [_on_curve(curve, ck + 10.0 ** -(2 + k % 7) * np.exp(0.7j * (k + 1)))
            for k, ck in enumerate(c)]  # 1e-2 to 1e-8 from each branch point
    far = [_on_curve(curve, x) for x in (1e3 * np.exp(0.3j), 1e7 * np.exp(-2.1j))]
    branch = [(complex(ck), 0j) for ck in c]
    divisors = [plain[:2], [branch[1], plain[0]], [plain[1], branch[0], near[2]],
                near, far, [far[1], near[0], plain[2]], [plain[0], plain[0]],
                [near[1], branch[2], near[1], far[0]], branch[:2], [plain[2]], []]
    images = [_assert_abel_bits(curve, pts, pd) for pts in divisors]
    assert all(u is not None for u in images)
    assert np.array_equal(images[-1], np.zeros(curve.genus))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_batched_abel_legs_have_the_bits_of_the_point_by_point_loop_on_random_curves(data):
    g = data.draw(st.integers(1, 3), label="g")
    curve = random_curve(2, 2 * g + 1, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    try:
        pd = period_matrices(curve, best_effort_genus3=g == 3)
    except PrecisionError:
        return
    c = pd.chain
    unit = st.builds(lambda r, t: r * np.exp(2j * np.pi * t), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    point = st.one_of(
        unit.map(lambda z: _on_curve(curve, 2.0 * z)),  # ordinary
        st.tuples(st.integers(0, 2 * g), st.integers(2, 8), unit).map(  # near a branch point
            lambda a: _on_curve(curve, c[a[0]] + 10.0 ** -a[1] * a[2] / max(abs(a[2]), 1e-3))),
        st.tuples(st.sampled_from([1e3, 1e7]), unit).map(lambda a: _on_curve(curve, a[0] * a[1])),
        st.integers(0, 2 * g).map(lambda k: (complex(c[k]), 0j)),  # a branch point
    )
    pts = data.draw(st.lists(point, min_size=1, max_size=4))
    if data.draw(st.booleans(), label="repeat"):
        pts.append(pts[0])
    sheet = data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(pts), max_size=len(pts)))
    _assert_abel_bits(curve, [(x, s * y) for (x, y), s in zip(pts, sheet)], pd)
