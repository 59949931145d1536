import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinian.addition import add, add27_explicit, negate, quotient_identity_residual_27
from kleinian.divisors import Divisor, complement, interpolate, multiset_distance
from kleinian.errors import DegeneratePairError
from kleinian.sampling import random_curve, random_divisor
from kleinian.uniformization import basis_to_divisor, divisor_to_basis


def test_negate_hyperelliptic_is_involution(rng):
    for n, s in ((2, 3), (2, 5), (2, 7)):
        curve = random_curve(n, s, rng)
        D = random_divisor(curve, curve.genus, rng)
        N = negate(curve, D)
        ref = Divisor(curve, [(p.x, -p.y) for p in D], validate=False)
        assert multiset_distance(N, ref) < 1e-10


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


def test_add27_gamma_parity(rng):
    curve = random_curve(2, 7, rng)
    D1, D2 = random_divisor(curve, 3, rng), random_divisor(curve, 3, rng)
    r1, r2 = divisor_to_basis(curve, D1), divisor_to_basis(curve, D2)
    _, gam = add27_explicit(r1, r2, curve)
    _, gam_neg = add27_explicit(r1.negated(), r2.negated(), curve)
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
