import numpy as np

from kleinian.roots import cluster_roots, newton_polish, poly_roots


def test_cluster_roots_multiplicity():
    r = np.array([1.0, 1.0 + 1e-9, 2.0, 2.0, 2.0 - 1e-8, -1.0j])
    clusters = sorted(cluster_roots(r, rel_tol=1e-6), key=lambda t: (t[0].real, t[0].imag))
    assert [m for _, m in clusters] == [1, 2, 3]


def test_leading_zero_stripping():
    # a resultant-style degree drop: leading coefficients below noise
    coeffs = np.array([1e-16, 1e-15, 1.0, -3.0, 2.0])  # effectively (x-1)(x-2)
    got = np.sort_complex(poly_roots(coeffs))
    assert len(got) == 2
    assert np.max(np.abs(got - np.array([1.0, 2.0]))) < 1e-10


def _polish_reference(c, r, steps=3):
    """newton_polish as a loop of np.polyval calls, the reference for its Horner form."""
    dc = np.polyder(c)
    r = np.array(r, dtype=complex)
    for _ in range(steps):
        p = np.polyval(c, r)
        dp = np.polyval(dc, r)
        ok = np.abs(dp) > 1e-30
        step = np.zeros_like(r)
        step[ok] = p[ok] / dp[ok]
        big = np.abs(step) > 0.1 * (1.0 + np.abs(r))
        step[big] = 0.0
        r = r - step
    return r


def test_newton_polish_bit_identical_to_polyval_loop():
    rng = np.random.default_rng(7)
    for deg in (1, 2, 3, 5, 8):
        c = rng.standard_normal((6, deg + 1)) + 1j * rng.standard_normal((6, deg + 1))
        r = np.array([np.roots(row) for row in c]) + 1e-4 * rng.standard_normal((6, deg))
        stacked = newton_polish(c, r)
        for k in range(6):
            ref = _polish_reference(c[k], r[k])
            assert np.array_equal(newton_polish(c[k], r[k]), ref)
            assert np.array_equal(stacked[k], ref)


def _cluster_reference(roots, rel_tol=1e-6):
    """cluster_roots as a loop that recomputes each group's np.mean per comparison."""
    r = sorted(np.asarray(roots, dtype=complex), key=lambda z: (z.real, z.imag))
    scale = 1.0 + max((abs(z) for z in r), default=0.0)
    tol = rel_tol * scale
    groups = []
    for z in r:
        for grp in groups:
            if abs(z - np.mean(grp)) < tol:
                grp.append(z)
                break
        else:
            groups.append([z])
    return [(complex(np.mean(g)), len(g)) for g in groups]


def _bits(clusters):
    return [(c.real.hex(), c.imag.hex(), m) for c, m in clusters]


def test_cluster_roots_centers_bit_identical_to_recomputed_means():
    rng = np.random.default_rng(5)
    assert cluster_roots([]) == _cluster_reference([]) == []
    for _ in range(400):
        k = int(rng.integers(1, 6))
        centers = rng.normal(size=k) + 1j * rng.normal(size=k)
        mult = rng.integers(1, 6, size=k)
        # splittings from far below to just above the tolerance, so that some
        # roots join a group only after its mean has moved
        roots = np.concatenate([
            c + 10.0 ** rng.uniform(-12, -5) * (rng.normal(size=m) + 1j * rng.normal(size=m))
            for c, m in zip(centers, mult)
        ])
        rel_tol = float(rng.choice([1e-8, 1e-6, 1e-5]))
        assert _bits(cluster_roots(roots, rel_tol)) == _bits(_cluster_reference(roots, rel_tol))
