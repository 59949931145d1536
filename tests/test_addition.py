import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kleinian.addition as addition
import kleinian.divisors as divisors
from kleinian.addition import add, add27_explicit, negate, quotient_identity_residual_27
from kleinian.curves import y_split
from kleinian.divisors import Divisor, complement, fiber_points, interpolate, multiset_distance
from kleinian.errors import (
    BranchPointError,
    DegenerateComplementError,
    DegeneratePairError,
    KleinianError,
    SpecialDivisorError,
)
from kleinian.sampling import random_curve, random_divisor
from kleinian.transcendental import branch_points
from kleinian.uniformization import BasisRecord, basis_to_divisor, divisor_to_basis


def test_negate_hyperelliptic_is_involution(rng):
    for n, s in ((2, 3), (2, 5), (2, 7)):
        curve = random_curve(n, s, rng)
        D = random_divisor(curve, curve.genus, rng)
        N = negate(curve, D)
        ref = Divisor(curve, [(p.x, -p.y) for p in D], validate=False)
        assert multiset_distance(N, ref) < 1e-10


def _complement_route(curve, D):
    """An independent oracle for hyperelliptic negate: D complemented in the
    zeros of the x-only weight-2g function through it."""
    return complement(curve, interpolate(curve, 2 * curve.genus, D), D)


def _outcome(fn, *args):
    """fn's divisor, or the class of the KleinianError it raised."""
    try:
        return fn(*args)
    except KleinianError as exc:
        return type(exc)


def _kind(outcome):
    return outcome if isinstance(outcome, type) else type(outcome)


def _assert_same_bits(got, want):
    a = np.array([[p.x, p.y] for p in got.points], dtype=complex).reshape(-1, 2)
    b = np.array([[p.x, p.y] for p in want.points], dtype=complex).reshape(-1, 2)
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a.real), np.signbit(b.real))
    assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag))


def _mirror_case(ns, kind, seed, log10_dist):
    """(curve, D): D of degree g with a plain, doubled (on |x| = 1), near-branch
    (10**log10_dist from a branch point) or far (|x| = 10) first point."""
    rng = np.random.default_rng(seed)
    curve = random_curve(*ns, rng)
    g = curve.genus
    if kind == "plain":
        return curve, random_divisor(curve, g, rng)
    turn = np.exp(2j * np.pi * rng.uniform())
    if kind == "repeated":
        x, copies = turn, min(2, g)
    elif kind == "far":
        x, copies = 10.0 * turn, 1
    else:
        e = branch_points(curve)
        x, copies = e[int(rng.integers(len(e)))] + 10.0**log10_dist * turn, 1
    ys = fiber_points(curve, [x])[0]
    first = [(x, ys[int(rng.integers(2))])] * copies
    return curve, Divisor(curve, first + list(random_divisor(curve, g - copies, rng).points), tol=1e-8)


@pytest.mark.parametrize("ns", ((2, 3), (2, 5), (2, 7)), ids=["2-3", "2-5", "2-7"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["plain", "repeated", "near-branch", "far"]),
    st.integers(0, 2**32 - 1),
    st.floats(-8.0, -2.0),
)
def test_hyperelliptic_negate_is_the_exact_mirror(ns, kind, seed, log10_dist):
    # (x, -y) for every point, m times per point of multiplicity m in the
    # order the points first appear, sign bits included; the complement
    # route returns the same divisor, or raises the same class
    curve, D = _mirror_case(ns, kind, seed, log10_dist)
    want = _outcome(_complement_route, curve, D)
    got = _outcome(negate, curve, D)
    assert _kind(got) is _kind(want)
    if isinstance(got, Divisor):
        mirror = [(p.x, -p.y) for p, m in divisors._grouped_points(D) for _ in range(m)]
        _assert_same_bits(got, Divisor(curve, mirror, validate=False))
        assert multiset_distance(got, want) < 1e-14


def _pair(curve, rng, sep):
    """(x, y) and the point over x + sep on the other sheet."""
    x = complex(rng.normal(), rng.normal())
    y = fiber_points(curve, [x])[0][0]
    ys = fiber_points(curve, [x + sep])[0]
    return [(x, y), (x + sep, ys[int(np.argmin(np.abs(ys + y)))])]


def _parity_case(ns, case, seed):
    rng = np.random.default_rng(seed)
    curve = random_curve(*ns, rng)
    rest = list(random_divisor(curve, curve.genus - 2, rng).points)
    if case == "doubled-weierstrass":
        e = branch_points(curve)[int(rng.integers(curve.genus * 2 + 1))]
        return curve, Divisor(curve, [(e, 0j)] * 2 + rest, validate=False)
    sep = {"involution-pair": 0.0, "near-pair-1e-6": 1e-6, "near-pair-1e-10": 1e-10}[case]
    return curve, Divisor(curve, _pair(curve, rng, sep) + rest, validate=False)


@pytest.mark.parametrize(
    "ns, case",
    [
        ((2, 5), "involution-pair"),
        ((2, 5), "near-pair-1e-6"),
        ((2, 7), "near-pair-1e-6"),
        ((2, 5), "near-pair-1e-10"),
        ((2, 7), "near-pair-1e-10"),
        ((2, 5), "doubled-weierstrass"),
        ((2, 7), "doubled-weierstrass"),
    ],
)
def test_hyperelliptic_negate_raises_as_the_complement_route(ns, case):
    expected = {"involution-pair": SpecialDivisorError, "doubled-weierstrass": BranchPointError}
    for seed in range(5):
        curve, D = _parity_case(ns, case, seed)
        got = _outcome(negate, curve, D)
        want = _outcome(_complement_route, curve, D)
        assert _kind(got) is expected.get(case, Divisor)
        if case == "near-pair-1e-10":
            # the weight-2g function through a pair 1e-10 apart is past the
            # special-divisor gate; the mirror needs no function
            assert want is SpecialDivisorError
        else:
            assert _kind(want) is _kind(got)
        if isinstance(got, Divisor):
            mirror = Divisor(curve, [(p.x, -p.y) for p in D], validate=False)
            assert multiset_distance(got, mirror) < 1e-10


@pytest.mark.parametrize("ns", ((2, 5), (2, 7)), ids=["2-5", "2-7"])
def test_hyperelliptic_negate_raises_on_every_involution_pair(ns):
    # two points over one x leave the weight-2g function through D
    # undetermined; the complement route's singular solve misses some of
    # these at genus 3, where elimination rounding can leave a tiny pivot
    for seed in range(12):
        curve, D = _parity_case(ns, "involution-pair", seed)
        with pytest.raises(SpecialDivisorError):
            negate(curve, D)


def test_hyperelliptic_negate_solves_nothing(monkeypatch, rng):
    # no interpolation, complement, resultant or fiber solve on n = 2; the
    # divisors are drawn first, so that only negate runs under the spies
    cases = []
    for ns in ((2, 3), (2, 5), (2, 7), (3, 4)):
        curve = random_curve(*ns, rng)
        cases.append((curve, random_divisor(curve, curve.genus, rng)))
    calls = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapped

    for module in (addition, divisors):
        for name in ("interpolate", "complement", "y_resultant", "fiber_points"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    for curve, D in cases[:3]:
        negate(curve, D)
    assert calls == []
    negate(*cases[3])
    assert "complement" in calls


def test_negate_twice_identity(rng):
    for n, s in ((2, 5), (3, 4)):
        curve = random_curve(n, s, rng)
        D = random_divisor(curve, curve.genus, rng)
        assert multiset_distance(negate(curve, negate(curve, D)), D) < 1e-8


def test_negate_34_on_curve(rng):
    curve = random_curve(3, 4, rng)
    D = random_divisor(curve, 3, rng)
    N = negate(curve, D)
    assert N.degree == 3
    assert N.max_curve_residual() < 1e-8


def test_negate_34_through_two_points_of_one_fiber():
    # D = two points over x0 and one over x1: the weight-6 function through
    # D is (x - x0)(x - x1), exactly x-only in some draws (complement's
    # x-only branch) and with a y-part at rounding level in the rest (a
    # graph that cannot be read, so the fiber route with D's points held);
    # either way -D is the third point over x0 and the two D lacks over x1
    kinds = set()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        curve = random_curve(3, 4, rng)
        x0, x1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y0, y1 = fiber_points(curve, [x0, x1])
        i, j, third = rng.permutation(3)
        k = int(rng.integers(3))
        D = Divisor(curve, [(x0, y0[i]), (x0, y0[j]), (x1, y1[k])])
        R = interpolate(curve, 6, D)
        r0, *ry = y_split(R.coeffs)
        assert all(np.abs(r).max() < 1e-13 * np.abs(r0).max() for r in ry)
        kinds.add(R.y_degree())
        want = Divisor(curve, [(x0, y0[third])] + [(x1, y) for y in np.delete(y1, k)])
        assert multiset_distance(negate(curve, D), want) < 1e-10
    assert kinds == {0, 1}


def test_add_commutative(rng):
    curve = random_curve(3, 4, rng)
    D1, D2 = random_divisor(curve, 3, rng), random_divisor(curve, 3, rng)
    assert multiset_distance(add(curve, D1, D2), add(curve, D2, D1)) < 1e-12


def test_add_associative_and_inverse(rng):
    for n, s in ((2, 5), (3, 4)):
        curve = random_curve(n, s, rng)
        for _ in range(4):
            D1, D2, D3 = (random_divisor(curve, curve.genus, rng) for _ in range(3))
            lhs = add(curve, add(curve, D1, D2), D3)
            rhs = add(curve, D1, add(curve, D2, D3))
            assert multiset_distance(lhs, rhs) < 1e-7
            back = add(curve, add(curve, D1, D2), negate(curve, D2))
            assert multiset_distance(back, D1) < 1e-7


def test_add_identity_degeneration(rng):
    curve = random_curve(2, 5, rng)
    D = random_divisor(curve, 2, rng)
    with pytest.raises(DegeneratePairError):
        add(curve, D, negate(curve, D))


def test_add_outputs_on_curve(rng):
    for n, s in ((2, 7), (3, 4)):
        curve = random_curve(n, s, rng)
        D1, D2 = random_divisor(curve, curve.genus, rng), random_divisor(curve, curve.genus, rng)
        S = add(curve, D1, D2)
        assert S.degree == curve.genus
        assert S.max_curve_residual() < 1e-8


def test_evenness_bridge_hyperelliptic(rng):
    curve = random_curve(2, 7, rng)
    D = random_divisor(curve, 3, rng)
    rec = divisor_to_basis(curve, D)
    rec_neg = divisor_to_basis(curve, negate(curve, D))
    for w in curve.gaps:
        assert abs(rec_neg.p[w] - rec.p[w]) < 1e-8 * (1 + abs(rec.p[w]))
        assert abs(rec_neg.q[w] + rec.q[w]) < 1e-8 * (1 + abs(rec.q[w]))


def test_add27_explicit_cross_path(rng):
    curve = random_curve(2, 7, rng)
    worst = 0.0
    for _ in range(8):
        D1, D2 = random_divisor(curve, 3, rng), random_divisor(curve, 3, rng)
        rec_hat, gammas = add27_explicit(
            divisor_to_basis(curve, D1), divisor_to_basis(curve, D2), curve
        )
        Dhat = complement(curve, interpolate(curve, 9, D1 + D2), D1 + D2)
        ref = divisor_to_basis(curve, Dhat)
        for w in curve.gaps:
            worst = max(worst, abs(rec_hat.p[w] - ref.p[w]) / (1 + abs(ref.p[w])))
            worst = max(worst, abs(rec_hat.q[w] - ref.q[w]) / (1 + abs(ref.q[w])))
    assert worst < 1e-6


def test_add27_explicit_full_sum_matches_generic(rng):
    # negating the hat record gives the record of add(D1, D2) itself
    curve = random_curve(2, 7, rng)
    D1, D2 = random_divisor(curve, 3, rng), random_divisor(curve, 3, rng)
    rec_hat, _ = add27_explicit(divisor_to_basis(curve, D1), divisor_to_basis(curve, D2), curve)
    rec_sum = divisor_to_basis(curve, add(curve, D1, D2))
    for w in curve.gaps:
        assert abs(rec_hat.p[w] - rec_sum.p[w]) < 1e-6 * (1 + abs(rec_sum.p[w]))
        assert abs(rec_hat.q[w] + rec_sum.q[w]) < 1e-6 * (1 + abs(rec_sum.q[w]))


def _negated(rec):
    """The hyperelliptic record at -u: p is even and q purely odd."""
    return BasisRecord(dict(rec.p), {w: -v for w, v in rec.q.items()})


def test_add27_gamma_parity(rng):
    curve = random_curve(2, 7, rng)
    D1, D2 = random_divisor(curve, 3, rng), random_divisor(curve, 3, rng)
    r1, r2 = divisor_to_basis(curve, D1), divisor_to_basis(curve, D2)
    _, gam = add27_explicit(r1, r2, curve)
    _, gam_neg = add27_explicit(_negated(r1), _negated(r2), curve)
    for k in (1, 3, 5, 7, 9):
        assert abs(gam_neg[k] + gam[k]) < 1e-9 * (1 + abs(gam[k]))
    assert abs(gam_neg[2] - gam[2]) < 1e-9 * (1 + abs(gam[2]))


def test_add27_quotient_identity(rng):
    curve = random_curve(2, 7, rng)
    D1, D2 = random_divisor(curve, 3, rng), random_divisor(curve, 3, rng)
    r1, r2 = divisor_to_basis(curve, D1), divisor_to_basis(curve, D2)
    rec_hat, gammas = add27_explicit(r1, r2, curve)
    assert quotient_identity_residual_27(curve, r1, r2, rec_hat, gammas) < 1e-7


def test_add27_degenerate_pair(rng):
    curve = random_curve(2, 7, rng)
    D = random_divisor(curve, 3, rng)
    rec = divisor_to_basis(curve, D)
    with pytest.raises(DegeneratePairError):
        add27_explicit(rec, rec.copy(), curve)


@pytest.mark.parametrize("key", ["1:111", "7:21", "7:489", "7:525", "7:543"])
def test_confluent_benchmark_ops_pass_roundtrip_and_group_law(algebra_ops, key):
    # confluent (2,5) ops where a double root of an interpolating function
    # was once split in two, and negate or add raised InconsistencyError
    kind, curve, D1, D2 = algebra_ops[key]
    assert kind == "confluent" and (curve.n, curve.s) == (2, 5)
    back = basis_to_divisor(curve, divisor_to_basis(curve, D1))
    assert multiset_distance(D1, back) < 1e-8
    mirror = Divisor(curve, [(p.x, -p.y) for p in D1.points])
    assert multiset_distance(mirror, negate(curve, D1)) < 1e-10
    assert multiset_distance(D1, add(curve, add(curve, D1, D2), negate(curve, D2))) < 1e-7


@pytest.mark.parametrize("key", ["61:208", "3:224"])
def test_plain_benchmark_ops_pass_roundtrip_and_group_law(algebra_ops, key):
    # 61:208 (2,7): one resultant root at |x| ~ 8.9e4 once widened the
    # clustering tolerance and merged two divisor x-values 0.078 apart;
    # 3:224 (3,4): a weight-9 resultant whose roots reach |x| ~ 724 has
    # its genuine x^9 coefficient at 9e-13 of the largest, once cut as noise
    kind, curve, D1, D2 = algebra_ops[key]
    assert kind == "plain"
    back = basis_to_divisor(curve, divisor_to_basis(curve, D1))
    assert multiset_distance(D1, back) < 1e-8
    assert multiset_distance(D1, add(curve, add(curve, D1, D2), negate(curve, D2))) < 1e-7


def test_confluent_34_op_11_401_roundtrip(algebra_ops):
    # the double x-root of the inversion resultant comes back as two roots
    # about 2e-6 apart, past CLUSTER_TOL; polished as two simple roots they
    # missed D1 by 3.76e-8, and the certified merge takes them as one
    _, curve, D1, _ = algebra_ops["11:401"]
    back = basis_to_divisor(curve, divisor_to_basis(curve, D1))
    assert multiset_distance(D1, back) < 1e-8


def test_confluent_34_op_107_491_group_law(algebra_ops):
    # D2 holds two points whose x-values are 0.052 apart; through the
    # weight-9 function D1 + D2 - D2 missed D1 by 8.32e-7
    _, curve, D1, D2 = algebra_ops["107:491"]
    assert multiset_distance(D1, add(curve, add(curve, D1, D2), negate(curve, D2))) < 1e-7


@pytest.mark.parametrize("kind", ["confluent", "far-x", "near-ramification"])
@pytest.mark.parametrize("ns", ((2, 5), (2, 7), (3, 4)), ids=["2-5", "2-7", "3-4"])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.floats(-5.0, -2.0))
def test_group_law_at_hard_divisors(hard_divisor, ns, kind, seed, log10_dist):
    # the hard shares of test_roundtrip_at_hard_divisors through the group
    # law: D1 + D2 - D2 and -(-D1) give D1 back
    curve, D1, rng = hard_divisor(ns, kind, seed, log10_dist)
    D2 = random_divisor(curve, curve.genus, rng)
    assert multiset_distance(add(curve, add(curve, D1, D2), negate(curve, D2)), D1) < 1e-7
    assert multiset_distance(negate(curve, negate(curve, D1)), D1) < 1e-10


def _weight9_add(curve, D1, D2):
    """add before it composed through the least-weight y-linear function,
    kept as the reference: D1 + D2 complemented in the zeros of the
    weight-3g function through it, then negated.  On a hyperelliptic curve
    that function is the least-weight y-linear one; on (3,4) it is
    x^3 + ... + c y^2, of y-degree 2 (a 5 x 5 Sylvester resultant and the
    fiber solve with held points)."""
    union = D1 + D2
    if not union.is_reduced():
        raise DegeneratePairError("inputs share points in involution")
    try:
        Dhat = complement(curve, interpolate(curve, 3 * curve.genus, union), union)
    except DegenerateComplementError as exc:
        raise DegeneratePairError(str(exc)) from exc
    return negate(curve, Dhat)


@pytest.mark.parametrize("kind", ["plain", "confluent", "far-x", "near-ramification"])
@pytest.mark.parametrize("ns", ((2, 5), (2, 7), (3, 4)), ids=["2-5", "2-7", "3-4"])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.floats(-5.0, -2.0))
def test_add_equals_the_weight9_route(hard_divisor, ns, kind, seed, log10_dist):
    # hyperelliptic sums keep every bit of the reference, which takes the
    # same function; (3,4) sums agree within 1e-10, or both routes raise
    if kind == "plain":
        rng = np.random.default_rng(seed)
        curve = random_curve(*ns, rng)
        D1 = random_divisor(curve, curve.genus, rng)
    else:
        curve, D1, rng = hard_divisor(ns, kind, seed, log10_dist)
    D2 = random_divisor(curve, curve.genus, rng)
    got, want = _outcome(add, curve, D1, D2), _outcome(_weight9_add, curve, D1, D2)
    if curve.n == 2:
        assert _kind(got) is _kind(want)
        if isinstance(want, Divisor):
            _assert_same_bits(got, want)
    elif isinstance(want, type) or isinstance(got, type):
        assert isinstance(want, type) and isinstance(got, type)
    else:
        assert multiset_distance(got, want) < 1e-10


def _shared_fiber_pair(seed, sep):
    """(curve, D1, D2) on (3,4): D1 holds a point over x, D2 the point over
    x + sep nearest another point of x's fiber."""
    rng = np.random.default_rng(seed)
    curve = random_curve(3, 4, rng)
    x = complex(rng.normal(), rng.normal())
    ys, ys2 = fiber_points(curve, [x, x + sep])
    P, Q = (x, ys[0]), (x + sep, ys2[int(np.argmin(np.abs(ys2 - ys[1])))])
    D1 = Divisor(curve, [P] + list(random_divisor(curve, 2, rng).points), validate=False)
    D2 = Divisor(curve, [Q] + list(random_divisor(curve, 2, rng).points), validate=False)
    return curve, D1, D2


@pytest.mark.parametrize("sep", [0.0, 1e-12, 1e-9, 1e-6])
def test_34_add_through_two_points_of_one_fiber(sep):
    # the y-linear function through D1 + D2 then vanishes on the whole
    # fiber (r1 = r0 = 0 there), so its new zero over x is the fiber point
    # that D1 + D2 lacks, not a point of its graph
    for seed in range(6):
        curve, D1, D2 = _shared_fiber_pair(seed, sep)
        S = add(curve, D1, D2)
        assert multiset_distance(S, _weight9_add(curve, D1, D2)) < 1e-10
        assert multiset_distance(add(curve, S, negate(curve, D2)), D1) < 1e-10


def test_34_add_takes_two_y_linear_steps(monkeypatch, rng):
    # no 5 x 5 Sylvester expansion (the y^2 function's) and no fiber solve
    sizes, fibers = [], []
    real_det, real_fiber = divisors._poly_det, divisors.fiber_points

    def det(mat):
        sizes.append(len(mat))
        return real_det(mat)

    def fiber(*args):
        fibers.append(args)
        return real_fiber(*args)

    monkeypatch.setattr(divisors, "_poly_det", det)
    monkeypatch.setattr(divisors, "fiber_points", fiber)
    curve = random_curve(3, 4, rng)
    for _ in range(5):
        add(curve, random_divisor(curve, 3, rng), random_divisor(curve, 3, rng))
    assert sizes == [4] * 10
    assert fibers == []
