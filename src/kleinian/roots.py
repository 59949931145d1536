"""Complex polynomial roots tuned for the divisor-algebra workloads.

Roots are companion-matrix eigenvalues (``np.roots``), returned as they
are: each caller polishes a zero once, where it knows what the zero is
for.  ``newton_polish`` takes Newton steps on the original coefficients
until a root's step is below rounding or raises |p|, and a clustering
pass recovers multiplicities from nearly-coincident roots.
"""

from __future__ import annotations

import numpy as np

NEWTON_STEPS = 3  # budget of newton_polish


def _strip(coeffs: np.ndarray) -> np.ndarray:
    """Drop negligible leading coefficients (highest degree first)."""
    c = np.asarray(coeffs, dtype=complex)
    scale = np.max(np.abs(c)) if c.size else 0.0
    if scale == 0.0:
        return c[:0]
    keep = np.abs(c) > 1e-14 * scale
    first = int(np.argmax(keep))
    return c[first:]


def poly_roots(coeffs) -> np.ndarray:
    """Roots of sum coeffs[k] x^(deg-k), coeffs[0] the leading term: the
    companion eigenvalues after negligible leading terms are stripped, with
    no polish (backward stable, so one Newton pass later converges)."""
    c = _strip(coeffs)
    if len(c) <= 1:
        return np.zeros(0, dtype=complex)
    return np.roots(c)


def newton_polish(coeffs, roots) -> np.ndarray:
    """At most NEWTON_STEPS damped Newton steps on the roots of one
    polynomial or of a stack.

    A root stops once its step is below rounding, 4e-16 (1 + |r|), and a
    step that raised |p| is undone and the root stops there: at a multiple
    root p and p' are both rounding noise, and their quotient can move one
    copy far off a root that ``np.roots`` had right.  The |p| compared is
    the next step's Horner value, so the budget's last step is unchecked.

    ``coeffs`` is (d+1,) with roots (k,), or (m, d+1) with roots (m, k):
    row r of ``roots`` is polished on row r of ``coeffs``.  The Horner
    recurrence is ``np.polyval``'s and every rule acts per root, so a stack
    gives each row the bits a separate call would.
    """
    c = np.asarray(coeffs, dtype=complex)
    dc = c[..., :-1] * np.arange(c.shape[-1] - 1, 0, -1)
    r = np.array(roots, dtype=complex)
    live = np.ones(r.shape, dtype=bool)  # roots that take the next step
    stepped = live  # roots whose last step this |p| checks
    before, p_before = r, np.full(r.shape, np.inf)
    for _ in range(NEWTON_STEPS):
        p = _horner(c, r)
        ap = np.abs(p)
        raised = stepped & (ap > p_before)
        r[raised] = before[raised]
        live = live & ~raised
        if not live.any():
            break
        dp = _horner(dc, r)
        ok = live & (np.abs(dp) > 1e-30)
        step = np.zeros_like(r)
        step[ok] = p[ok] / dp[ok]
        # near-multiple roots make Newton overshoot; damp large steps
        big = np.abs(step) > 0.1 * (1.0 + np.abs(r))
        step[big] = 0.0
        before, p_before, stepped = r, ap, live
        r = r - step
        live = live & (np.abs(step) > 4e-16 * (1.0 + np.abs(r)))
    return r


def _horner(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    y = np.zeros_like(r)
    for ck in c.T[..., None]:  # coefficient k of every row, as a column
        y = y * r + ck
    return y


def cluster_roots(roots, rel_tol: float = 1e-6):
    """Group nearly-equal roots; returns list of (center, multiplicity).

    Centers are multiplicity-weighted means, which averages out the
    characteristic eps^(1/m) splitting of an m-fold numerical root.  A
    root joins a group within rel_tol (1 + |z|) of its own size, so one
    far root does not widen the tolerance of all the others.
    """
    r = sorted(np.asarray(roots, dtype=complex), key=lambda z: (z.real, z.imag))
    groups: list[list[complex]] = []
    means = []  # np.mean of each group, renewed when it grows
    for z in r:
        for k, grp in enumerate(groups):
            if abs(z - means[k]) < rel_tol * (1.0 + abs(z)):
                grp.append(z)
                means[k] = np.mean(grp)
                break
        else:
            groups.append([z])
            means.append(z)
    return [(complex(m), len(g)) for m, g in zip(means, groups)]
