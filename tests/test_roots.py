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
    """newton_polish as one loop of np.polyval calls per root, its stopping
    rule written out; returns the roots and how each one stopped."""
    dc = np.polyder(c)
    out, how = [], []
    for z in np.array(r, dtype=complex):
        z = np.array([z])
        before = p_before = None
        why = "budget"
        for _ in range(steps):
            p = np.polyval(c, z)
            if p_before is not None and np.abs(p)[0] > p_before:
                z, why = before, "raised"  # undo the step that raised |p|
                break
            if why == "rounding":
                break
            dp = np.polyval(dc, z)
            step = p / dp if np.abs(dp)[0] > 1e-30 else np.zeros(1, dtype=complex)
            if np.abs(step)[0] > 0.1 * (1.0 + np.abs(z)[0]):
                step = np.zeros(1, dtype=complex)
            before, p_before = z, np.abs(p)[0]
            z = z - step
            if np.abs(step)[0] <= 4e-16 * (1.0 + np.abs(z)[0]):
                why = "rounding"  # the next |p| still checks this step
        out.append(z[0])
        how.append(why)
    return np.array(out), how


def _polish_cases(rng):
    """(coefficient stack, start roots) pairs: perturbed simple roots, and
    exact double roots where p and p' are both rounding noise."""
    for deg in (1, 2, 3, 5, 8):
        c = rng.standard_normal((6, deg + 1)) + 1j * rng.standard_normal((6, deg + 1))
        r = np.array([np.roots(row) for row in c])
        for eps in (1e-4, 1e-9, 0.0):
            yield c, r + eps * rng.standard_normal((6, deg))
    for deg in (2, 3, 5):
        roots = rng.standard_normal((6, deg)) + 1j * rng.standard_normal((6, deg))
        roots[:, 1] = roots[:, 0]
        c = np.array([np.poly(row) for row in roots])
        yield c, np.array([np.roots(row) for row in c])


def test_newton_polish_bit_identical_to_per_root_polyval_loop():
    rng = np.random.default_rng(7)
    seen = set()
    for c, r in _polish_cases(rng):
        stacked = newton_polish(c, r)
        for k in range(len(c)):
            ref, how = _polish_reference(c[k], r[k])
            seen.update(how)
            assert np.array_equal(newton_polish(c[k], r[k]), ref)
            assert np.array_equal(stacked[k], ref)
    assert seen == {"budget", "rounding", "raised"}


def _cluster_reference(roots, rel_tol=1e-6):
    """cluster_roots as a loop that recomputes each group's np.mean per
    comparison, each root compared at the tolerance of its own size."""
    r = sorted(np.asarray(roots, dtype=complex), key=lambda z: (z.real, z.imag))
    groups = []
    for z in r:
        for grp in groups:
            if abs(z - np.mean(grp)) < rel_tol * (1.0 + abs(z)):
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


def test_cluster_roots_one_far_root_does_not_merge_near_ones():
    # seed 61 op 208's shape: one root at |x| ~ 8.9e4 once set a common
    # tolerance of ~0.09 and merged two distinct roots 0.078 apart
    roots = [0.5, 0.578, 8.9e4, 2.0, 2.0 + 1e-9]
    clusters = sorted(cluster_roots(roots), key=lambda t: t[0].real)
    assert [m for _, m in clusters] == [1, 1, 2, 1]
    assert [m for _, m in cluster_roots([8.9e4, 8.9e4 * (1 + 1e-9), 0.1])] in ([1, 2], [2, 1])
