import dataclasses

import numpy as np
import pytest

import kleinian.transcendental as transcendental
from kleinian.curves import curve_model, infinity_series
from kleinian.divisors import Divisor
from kleinian.errors import (
    CharacteristicSearchError,
    DegenerateCurveError,
    InvalidCurveError,
    PathError,
    PrecisionError,
    ThetaDivisorError,
)
from kleinian.sampling import random_curve, random_divisor
from kleinian.theta import all_half_characteristics, theta_directional
from kleinian.transcendental import (
    _GL_LEG,
    _PANELS,
    _SERIES_ORDER,
    _chain_homology,
    _continue_sqrt,
    _Ellipse,
    _intersection_number,
    _segment_distance,
    _segment_quad,
    _track_sqrt,
    abel,
    branch_points,
    period_matrices,
    riemann_characteristic,
    second_kind_residue_matrix,
    vanishing_order_target,
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


def test_branch_points_continuity(rng):
    curve = random_curve(2, 5, rng)
    e1 = branch_points(curve)
    lam2 = {k: v + 1e-7 for k, v in curve.lam.items()}
    e2 = branch_points(curve_model(2, 5, lam2))
    assert np.max(np.abs(e1 - e2)) < 1e-5


def test_residue_pairing_is_identity(rng):
    for g in (1, 2, 3):
        curve = random_curve(2, 2 * g + 1, rng)
        R = second_kind_residue_matrix(curve)
        assert np.max(np.abs(R - np.eye(g))) < 1e-10


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
    assert vanishing_order_target(curve) == 1


def test_riemann_characteristic_genus2(rng):
    curve = random_curve(2, 5, rng)
    assert vanishing_order_target(curve) == 3
    pd = period_matrices(curve)
    ch = riemann_characteristic(pd)
    assert ch.parity() == -1  # odd characteristic
    assert ch.is_half_integer()
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


def test_abel_keeps_the_infinity_series_of_its_curve(rng):
    curve = random_curve(2, 5, rng)
    pd = period_matrices(curve)
    assert pd.series is None  # period_matrices does not build it
    D = random_divisor(curve, 2, rng)
    u1 = abel(curve, D, pd)
    ser = pd.series
    assert ser is not None and ser.curve is curve
    u2 = abel(curve, D, pd)
    assert pd.series is ser
    assert np.array_equal(u1, u2)
    # an equal but distinct curve object gets its own series, bit-identical result
    twin = curve_model(curve.n, curve.s, curve.lam)
    assert np.array_equal(abel(twin, Divisor(twin, [(p.x, p.y) for p in D.points]), pd), u1)
    assert pd.series is ser


def test_abel_on_branch_point_raises(rng):
    curve = curve_model(2, 3, {4: -1.0})
    pd = period_matrices(curve)
    D = Divisor(curve, [(1.0, 0.0)], validate=False)
    with pytest.raises(PathError):
        abel(curve, D, pd)


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
    from kleinian.uniformization import basis_flow_derivative

    curve = random_curve(2, 5, rng)
    pd = period_matrices(curve)
    ch = riemann_characteristic(pd)
    D = random_divisor(curve, 2, rng)
    u = abel(curve, D, pd)
    wp1111 = wp_theta(pd, ch, u, (1, 1, 1, 1))
    dq = basis_flow_derivative(curve, D, 1, "q", 1, 1)
    assert abs(wp1111 - dq) < 1e-9 * (1 + abs(dq))
    wp1113 = wp_theta(pd, ch, u, (1, 1, 1, 3))
    dq3 = basis_flow_derivative(curve, D, 3, "q", 1, 1)
    assert abs(wp1113 - dq3) < 1e-9 * (1 + abs(dq3))


# -- intersection kernel against an all-pairs reference --------------------------


def _all_pairs_intersection(z1, y1, z2, y2) -> int:
    """Reference: the crossing test on every segment pair, no pruning."""
    p1, p2 = z1[:-1], z1[1:]
    q1, q2 = z2[:-1], z2[1:]

    def cross(a, b):
        return a.real * b.imag - a.imag * b.real

    d1 = (p2 - p1)[:, None]
    d2 = (q2 - q1)[None, :]
    pq = q1[None, :] - p1[:, None]
    denom = cross(d1, d2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = cross(pq, d2) / denom
        u = cross(pq, d1) / denom
    hits = (denom != 0) & (t >= 0) & (t < 1) & (u >= 0) & (u < 1)
    total = 0
    for i, j in zip(*np.nonzero(hits)):
        ya = y1[i] + t[i, j] * (y1[i + 1] - y1[i])
        yb = y2[j] + u[i, j] * (y2[j + 1] - y2[j])
        if abs(ya - yb) < abs(ya + yb):
            total += 1 if denom[i, j] > 0 else -1
    return total


def _lifted_ellipse(P, a, b, others, N=1024):
    z = _Ellipse(a, b, np.asarray(others, dtype=complex), 0.3).sample(N)
    y = _track_sqrt(P, z)
    return np.append(z, z[0]), np.append(y, y[0])


def _polyline(vertices, y):
    z = np.array([complex(*v) for v in vertices])
    return np.append(z, z[0]), np.append(np.asarray(y, dtype=complex), y[0])


def _edge(a, b, steps):
    """Equally spaced vertices from a (included) to b (excluded)."""
    return [(a[0] + (b[0] - a[0]) * k / steps, a[1] + (b[1] - a[1]) * k / steps)
            for k in range(steps)]


@pytest.mark.parametrize("g, seed", [(1, 11), (2, 12), (3, 13)])
def test_intersection_kernel_matches_all_pairs_on_chain(g, seed):
    curve = random_curve(2, 2 * g + 1, np.random.default_rng(seed))
    _, lifted, A = _chain_homology(curve, branch_points(curve))
    for i in range(2 * g):
        for j in range(i + 1, 2 * g):
            assert A[i, j] == _all_pairs_intersection(*lifted[i], *lifted[j])
    # consecutive chain loops meet once, the others not at all
    chain = np.eye(2 * g, k=1, dtype=np.int64) - np.eye(2 * g, k=-1, dtype=np.int64)
    assert A.tolist() == chain.tolist()
    assert round(np.linalg.det(A.astype(float))) == 1


def test_intersection_kernel_disjoint_and_shared_branch_point():
    P = np.poly([-1.0, 0.0, 1.0, 4.0, 5.0]).astype(complex)
    left = _lifted_ellipse(P, -1.0, 0.0, [1.0, 4.0, 5.0])
    middle = _lifted_ellipse(P, 0.0, 1.0, [-1.0, 4.0, 5.0])
    far = _lifted_ellipse(P, 4.0, 5.0, [-1.0, 0.0, 1.0])
    assert _intersection_number(*left, *far) == 0 == _all_pairs_intersection(*left, *far)
    shared = _intersection_number(*left, *middle)
    assert abs(shared) == 1
    assert shared == _all_pairs_intersection(*left, *middle)
    assert _intersection_number(*middle, *left) == -shared


@pytest.mark.parametrize("far_sheet, expected", [(-1.0, 1), (1.0, 0)])
@pytest.mark.parametrize("shift", [0.0, -0.5])
def test_intersection_kernel_crossing_on_block_boundary(shift, far_sheet, expected):
    # 136 segments (not a multiple of the block size); vertex 32, the first
    # vertex of the second block, sits at the origin
    rect = (_edge((-32, 0), (32, 0), 64) + _edge((32, 0), (32, 4), 4)
            + _edge((32, 4), (-32, 4), 64) + _edge((-32, 4), (-32, 0), 4))
    z1, y1 = _polyline(rect, np.ones(len(rect)))
    assert z1[32] == 0
    # a clockwise loop crossing the rectangle twice: at x = shift on the
    # bottom edge (sign +1, same sheet), either the shared vertex at the
    # origin or inside the last segment of the first block, and at the
    # rectangle's vertex (32, 2) (sign -1, sheet far_sheet)
    loop = (_edge((shift, -2), (shift, 2), 4) + _edge((shift, 2), (shift + 40, 2), 40)
            + _edge((shift + 40, 2), (shift + 40, -2), 4)
            + _edge((shift + 40, -2), (shift, -2), 40))
    z2, y2 = _polyline(loop, [1.0 if x < 16 else far_sheet for x, _ in loop])
    n = _intersection_number(z1, y1, z2, y2)
    assert n == expected == _all_pairs_intersection(z1, y1, z2, y2)


def _reference_riemann_characteristic(pd, van_tol=1e-5, nz_tol=1e-2):
    """The search with one theta_directional call per characteristic."""
    g = pd.curve.genus
    d = vanishing_order_target(pd.curve)
    w = pd.omega_inv()[:, 0]
    chars = all_half_characteristics(g)
    table = np.array([np.abs(theta_directional(np.zeros(g), pd.tau, w, d, char=ch))
                      for ch in chars])
    ref = np.max(table, axis=0)
    winners = [i for i, row in enumerate(table)
               if np.all(row[:d] <= van_tol * ref[:d]) and row[d] >= nz_tol * ref[d]]
    if len(winners) == 1:
        return chars[winners[0]]
    floor = max(van_tol, 1e-13) * ref[:d]
    ranked = sorted(range(len(chars)), key=lambda i: -float(np.sum(table[i, :d] <= floor)))
    top = ", ".join(str(chars[i]) for i in ranked[:3])
    raise CharacteristicSearchError(
        f"{len(winners)} characteristics satisfy the criteria (top candidates: {top})"
    )


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
    assert riemann_characteristic(pd) == expected
    assert expected.parity() == (-1) ** (vanishing_order_target(curve) % 2)
    # with van_tol = 0 nothing vanishes; the candidates are still ranked with
    # the symmetry zeros counted, whether they sum to 0.0 or to ~1e-16
    with pytest.raises(CharacteristicSearchError) as ref_err:
        _reference_riemann_characteristic(pd, van_tol=0.0)
    pd.char = None
    with pytest.raises(CharacteristicSearchError) as err:
        riemann_characteristic(pd, van_tol=0.0)
    assert str(err.value) == str(ref_err.value)
    assert str(err.value).startswith("0 characteristics satisfy the criteria (top candidates: ")


# -- sqrt(P) continuation --------------------------------------------------------


def _serial_continuation(P, z0, y0, z):
    """Reference: sqrt(P) continued one node at a time against the last value,
    starting from the root at z0 nearest y0."""
    w = np.sqrt(np.polyval(P, z0))
    ref = (1.0 if abs(w - y0) <= abs(w + y0) else -1.0) * w
    out = np.empty(len(z), dtype=complex)
    for k, zz in enumerate(z):
        w = np.sqrt(np.polyval(P, zz))
        if abs(w - ref) > abs(w + ref):
            w = -w
        out[k] = w
        ref = w
    return out


@pytest.mark.parametrize("g, seed", [(1, 11), (2, 12), (3, 13)])
def test_continue_sqrt_matches_serial_reference_on_abel_legs(g, seed):
    curve = random_curve(2, 2 * g + 1, np.random.default_rng(seed))
    P = x_polynomial(curve)
    e = branch_points(curve)
    # a far target and targets 1e-3 and 1e-5 from each branch point
    targets = [0.3 - 0.2j] + [ek + d * np.exp(0.7j) for ek in e for d in (1e-3, 1e-5)]
    flipped = False
    for k, x in enumerate(targets):
        # the Abel map's straight leg: from radius 4 max(1, |e|, |x|) along arg x
        x0 = 4.0 * max(1.0, float(np.max(np.abs(e))), abs(x)) * np.exp(1j * np.angle(x))
        zs = x0 + (x - x0) * np.linspace(0.0, 1.0, _PANELS + 1)
        h = 0.5 * (zs[1:] - zs[:-1])
        nodes = (0.5 * (zs[:-1] + zs[1:])[:, None] + h[:, None] * _GL_LEG[0]).ravel()
        y0 = (-1) ** k * np.sqrt(np.polyval(P, x0))
        y = _continue_sqrt(P, np.append(x0, nodes), y0)
        assert np.array_equal(y[1:], _serial_continuation(P, x0, y0, nodes))
        assert abs(y[0] - y0) < abs(y[0] + y0)
        flipped |= bool(np.any(y[1:] != np.sqrt(np.polyval(P, nodes))))
    assert flipped  # some leg leaves the principal branch


def test_track_sqrt_coarse_sampling_is_ambiguous():
    P = np.array([1.0, 0.0, -1.0], dtype=complex)  # branch points at +-1
    z = 2.0 * np.exp(1j * (0.3 + 0.5 * np.pi * np.arange(4)))  # quarter turns
    with pytest.raises(PrecisionError, match="ambiguous"):
        _track_sqrt(P, z)


def test_track_sqrt_loop_around_one_branch_point_does_not_close():
    P = np.array([1.0, 0.0, -1.0], dtype=complex)
    z = 1.0 + 0.5 * np.exp(2j * np.pi * np.arange(256) / 256)
    with pytest.raises(PrecisionError, match="did not close"):
        _track_sqrt(P, z)
    _track_sqrt(P, 2.0 * np.exp(2j * np.pi * np.arange(256) / 256))  # both: closes


# -- wp_theta shares its theta passes per argument -------------------------------


def _bridge_setup(name="g2"):
    curve = FIXED_CURVES[name]()
    pd = period_matrices(curve)
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
        assert fresh.theta_memo is None
        assert wp_theta(pd, char, u, idx) == wp_theta(fresh, char, u, idx)
        assert pd.theta_memo[0] == (char, np.asarray(u, dtype=complex).tobytes())


def test_wp_theta_bundle_makes_one_quality_and_one_derivative_pass_per_order(monkeypatch):
    curve, pd, ch, (u1, u2) = _bridge_setup()
    counts = {"quality": 0, "derivatives": 0}
    real_quality, real_log = transcendental.theta_sum_quality, transcendental.log_theta_derivatives

    def quality(*args, **kwargs):
        counts["quality"] += 1
        return real_quality(*args, **kwargs)

    def log_derivatives(*args, **kwargs):
        counts["derivatives"] += 1
        return real_log(*args, **kwargs)

    monkeypatch.setattr(transcendental, "theta_sum_quality", quality)
    monkeypatch.setattr(transcendental, "log_theta_derivatives", log_derivatives)
    bundle = [(1, 1), (1, 3), (3, 3), (1, 1, 1), (1, 1, 3)]  # the genus-2 wp-bundle
    for idx in bundle:
        wp_theta(pd, ch, u1, idx)
    assert counts == {"quality": 1, "derivatives": 2}
    for idx in [(1, 1), (1, 1, 1), (1, 3), (1, 1, 3)]:  # interleaved orders at a new u
        wp_theta(pd, ch, list(u2), idx)
    assert counts == {"quality": 2, "derivatives": 4}


def test_wp_theta_memo_raises_on_every_call_on_the_theta_divisor():
    curve, pd, ch, _ = _bridge_setup()
    for idx in [(1, 1), (1, 1), (1, 1, 3)]:
        with pytest.raises(ThetaDivisorError):
            wp_theta(pd, ch, np.zeros(2), idx)
    assert pd.theta_memo[1] < 1e-8 and pd.theta_memo[2] == {}


def test_wp_theta_memo_leaves_repr_and_equality_alone():
    curve, pd, ch, (u1, _) = _bridge_setup()
    twin = dataclasses.replace(pd)
    wp_theta(pd, ch, u1, (1, 3))
    assert pd.theta_memo is not None and twin.theta_memo is None
    assert repr(pd) == repr(twin) and "theta_memo" not in repr(pd)
    assert pd == twin


# -- abel against the per-panel loop and per-direction clearance it replaced -----


def _reference_abel_point(curve, pd, x, y):
    """One point's Abel image as abel summed it before: seven clearance calls
    and a Python sum over per-panel sums."""
    g, e, P = curve.genus, pd.branch, x_polynomial(curve)
    ser = infinity_series(curve, _SERIES_ORDER)
    R0 = 4.0 * max(1.0, float(np.max(np.abs(e))), abs(x))
    base_phi = np.angle(x) if x != 0 else 0.0
    best = None
    for dphi in (0.0, 0.35, -0.35, 0.7, -0.7, 1.1, -1.1):
        a = R0 * np.exp(1j * (base_phi + dphi))
        d = x - a
        t = np.clip(((e - a) * np.conj(d)).real / abs(d) ** 2, 0.0, 1.0)
        dmin = float(np.min(np.abs(e - (a + t * d))))
        if best is None or dmin > best[0]:
            best = (dmin, a)
    x0 = best[1]

    def leg_series(xi):
        xi = xi[:, 0]
        unit = np.polyval(ser.c[::-1], xi)
        return np.stack([xi ** (2 * i) / unit for i in range(g)], axis=-1)

    xi0 = 1.0 / np.sqrt(x0)
    I_series = _segment_quad(leg_series, 0.0, xi0)
    zs = x0 + (x - x0) * np.linspace(0.0, 1.0, _PANELS + 1)
    h = 0.5 * (zs[1:] - zs[:-1])
    nodes = 0.5 * (zs[:-1] + zs[1:])[:, None] + h[:, None] * _GL_LEG[0]
    yy = _continue_sqrt(P, np.append(x0, nodes), ser.y(xi0))[1:].reshape(nodes.shape)
    du = np.stack([nodes ** (g - 1 - i) / (-2.0 * yy) for i in range(g)], axis=-1)
    u_pt = I_series + sum(h[k] * np.sum(_GL_LEG[1][:, None] * du[k], axis=0)
                          for k in range(_PANELS))
    return -u_pt if abs(yy[-1, -1] - y) > abs(yy[-1, -1] + y) else u_pt


# real branch points: mirrored start directions tie in exact arithmetic, so
# the choice rests on how each clearance rounds
REAL_CURVE = {"real": lambda: _curve_from_branch_points([-1.3, -0.4, 0.2, 0.9, 1.6])}


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "real"])
def test_abel_leg_sum_and_start_choice_match_the_per_panel_loop(name):
    curve = {**FIXED_CURVES, **REAL_CURVE}[name]()
    pd = period_matrices(curve, best_effort_genus3=curve.genus == 3)
    P = x_polynomial(curve)
    # on the real curve the choice at the real targets turns on rounding alone:
    # abs(u) ** 2 of a complex array rounds differently and picks another start
    targets = [0.3 - 0.2j, 2.0 + 1.0j, -1.5j, 2.5, -1.49, -1.2, -1.18, -0.48, -0.31]
    targets += [ek + d * np.exp(1j * phi) for ek in pd.branch
                for d in (1e-3, 1e-5) for phi in (0.7, np.pi)]
    for k, x in enumerate(map(complex, targets)):
        y = (-1) ** k * np.sqrt(np.polyval(P, x))
        got = abel(curve, Divisor(curve, [(x, y)], validate=False), pd)
        assert np.array_equal(got, np.zeros(curve.genus, dtype=complex)
                              + _reference_abel_point(curve, pd, x, y))


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
