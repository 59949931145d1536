"""Arithmetic in the coordinate ring and divisor-level constructions.

The coordinate ring C[x, y] / f is represented by coefficient tables over
monomials x^i y^j with j < n; reduction rewrites higher y-powers through
the curve equation.  The workhorses are

* :func:`interpolate` -- the unique monic polynomial function of weight w
  through a positive divisor of degree w - g (repeated points contribute
  derivative conditions along the branch y(x)), and
  :func:`interpolate_y_linear`, the least-weight one linear in y, through
  which the group law composes; their solve, :func:`interpolate_in_basis`,
  also solves the Jacobi inversion system.  Every divisor system, of
  numbers or of jets (this one, the Abel Jacobian, the jet flow), is
  equilibrated and gated once, in ``_solve_nonspecial``, which refuses
  (nearly) special divisors by the conditioning of its matrix;
* :func:`complement` -- the zeros of such a function beyond the divisor:
  its y-resultant with the curve equation divided exactly by the divisor's
  x-polynomial, the step the group law repeats; and
* :func:`zero_divisor` -- the full divisor of zeros, from the roots of the
  resultant itself.

A resultant's roots come with multiplicities from ``clustered_roots``:
roots within CLUSTER_TOL are one root, and clusters that rounding split
off one multiple root merge where the derivative that has a simple root
there is below MERGE_CERT of its term scale at their mean (``_certified``).

Every resultant, of R with f here and of the two Jacobi inversion
functions in ``uniformization``, is one Leibniz expansion, ``_poly_det``,
whose terms are listed once per pattern of live entries.  A function
linear in y, R = r1(x) y + r0(x), has one zero per root x, on its graph
y = -r0(x) / r1(x) (Cantor's composition), save where R vanishes on a
whole fiber; every other R, x-only or of y-degree 2 or more (no step of
the group law takes one), solves the fibers over all its roots at once.
A divisor is reduced when no full fiber lies in it, and n distinct points
over one x are all of its fiber: ``Divisor.is_reduced`` reads that off
D's own points (``_fibers``), with no fiber solve.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from . import series
from .curves import (
    CurveModel,
    CurvePoint,
    Monomial,
    horner_form,
    poly_eval,
    poly_partials,
    x_columns,
    y_split,
)
from .errors import (
    BranchPointError,
    DegenerateComplementError,
    InconsistencyError,
    InvalidCurveError,
    NonReducedDivisorError,
    PrecisionError,
    SpecialDivisorError,
)
from .roots import cluster_roots, newton_polish, poly_roots

PAIR_TOL = 1e-9  # one point, or one fiber, relative
COMMON_ZERO_STEPS = 5  # budget of _polish_common_zero
MATCH_TOL = 1e-8  # complement's checks, relative
CLUSTER_TOL = 1e-6  # one root with no certificate, and D's points over a root (_held); relative
MERGE_TOL = 1e-3  # window of the certified merge of clusters, relative
MERGE_CERT = 1e-10  # bound of that merge's certificate, relative to the term scale
SPECIAL_COND = 1e8  # special-divisor gate of every divisor solve, set by the jet flow (~8 digits kept)


class PolyFunction:
    """Element of C[x,y]/f as a table {(i, j): coeff} with j < n, with the
    column forms of R, R_x and R_y (``curves.horner_form``) built once."""

    def __init__(self, curve: CurveModel, coeffs: dict):
        self.curve = curve
        self.coeffs = {
            (int(i), int(j)): complex(c) for (i, j), c in coeffs.items() if c != 0
        }
        if any(j >= curve.n for (_, j) in self.coeffs):
            raise InvalidCurveError("unreduced y-power in PolyFunction")
        self.forms = tuple(horner_form(t) for t in (self.coeffs, *poly_partials(self.coeffs)))

    @property
    def weight(self) -> int:
        if not self.coeffs:
            return -1
        n, s = self.curve.n, self.curve.s
        return max(i * n + j * s for (i, j) in self.coeffs)

    def eval(self, x, y):
        return poly_eval(self.forms[0], x, y)

    def eval_dx(self, x, y):
        return poly_eval(self.forms[1], x, y)

    def eval_dy(self, x, y):
        return poly_eval(self.forms[2], x, y)

    def term_scale(self, x, y) -> float:
        """max |coeff x^i y^j|; the natural residual normalizer at (x, y)."""
        ax, ay = max(1.0, abs(x)), max(1.0, abs(y))
        return max((abs(c) * ax**i * ay**j for (i, j), c in self.coeffs.items()), default=0.0)

    def y_degree(self) -> int:
        return max((j for (_, j) in self.coeffs), default=0)

    def __repr__(self):
        n, s = self.curve.n, self.curve.s
        items = sorted(self.coeffs.items(), key=lambda kv: kv[0][0] * n + kv[0][1] * s)
        body = " + ".join(f"({c:.6g})*{Monomial(i, j, 0)}" for (i, j), c in items)
        return f"PolyFunction[{body}]"


def poly_mul_raw(a: dict, b: dict) -> dict:
    """Plain product of two {(i, j): coeff} tables in C[x, y], no reduction."""
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


# -- divisors ----------------------------------------------------------------


class Divisor:
    """Positive part of a reduced divisor: a multiset of affine points."""

    def __init__(self, curve: CurveModel, points, validate: bool = True, tol: float = 1e-10):
        self.curve = curve
        pts = []
        for p in points:
            if isinstance(p, CurvePoint):
                pts.append(curve.point(p.x, p.y, tol) if validate else p)
            else:
                x, y = p
                pts.append(
                    curve.point(x, y, tol) if validate else CurvePoint(complex(x), complex(y))
                )
        self.points = tuple(pts)

    @property
    def degree(self) -> int:
        return len(self.points)

    def xs(self) -> np.ndarray:
        return np.array([p.x for p in self.points], dtype=complex)

    def ys(self) -> np.ndarray:
        return np.array([p.y for p in self.points], dtype=complex)

    def __iter__(self):
        return iter(self.points)

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor(self.curve, self.points + other.points, validate=False)

    def __repr__(self):
        body = ", ".join(f"({p.x:.4g}, {p.y:.4g})" for p in self.points)
        return f"Divisor[{body}]"

    def max_curve_residual(self) -> float:
        worst = 0.0
        for p in self.points:
            scale = max(1.0, abs(p.x) ** self.curve.s, abs(p.y) ** self.curve.n)
            worst = max(worst, abs(self.curve.eval_f(p.x, p.y)) / scale)
        return worst

    def is_reduced(self) -> bool:
        """No full fiber lies in D: no x carries n distinct points of D, for
        n distinct points of the curve over one x are all of its fiber."""
        return all(len(groups) < self.curve.n for _, groups in _fibers(self))

    def assert_reduced(self):
        if not self.is_reduced():
            raise NonReducedDivisorError("divisor contains a full group of points in involution")


def multiset_distance(A: Divisor, B: Divisor) -> float:
    """Worst point distance, relative to the point scale, in the matching of
    A's points to B's of least total distance (an exact assignment by dynamic
    programming over subsets of B's points, O(d 2^d) for degree d)."""
    if A.degree != B.degree:
        raise InconsistencyError(f"degree mismatch {A.degree} != {B.degree}")
    if A.degree == 0:
        return 0.0
    ax, ay, bx, by = A.xs(), A.ys(), B.xs(), B.ys()
    cost = (np.abs(ax[:, None] - bx[None, :]) + np.abs(ay[:, None] - by[None, :])).tolist()
    # best[mask]: (least sum, its worst pair) matching A's first |mask| points to B's in mask
    best = [(0.0, 0.0)] * (1 << A.degree)
    for mask in range(1, len(best)):
        row = cost[mask.bit_count() - 1]
        best[mask] = min(
            (best[mask ^ 1 << j][0] + c, max(best[mask ^ 1 << j][1], c))
            for j, c in enumerate(row) if mask >> j & 1
        )
    scale = 1.0 + max(np.max(np.abs(ax)), np.max(np.abs(ay)))
    return best[-1][1] / scale


# -- branch expansion --------------------------------------------------------


def branch_jet(curve: CurveModel, x0: complex, y0: complex, order: int) -> series.Jet:
    """Taylor jet of the branch y(x) at x0 with y(x0) = y0.

    Requires d f/d y != 0 at the point; branch points are rejected.
    """
    if _at_branch_point(curve, x0, y0):
        raise BranchPointError(f"branch point at x = {x0}")
    return y_jet(curve, series.var(x0, order), y0)


def _at_branch_point(curve: CurveModel, x: complex, y: complex) -> bool:
    """|f_y| below 1e-8 max(1, |x|, |y|)^(n-1): (x, y) is a branch point of x."""
    return abs(curve.eval_fy(x, y)) < 1e-8 * max(1.0, abs(x), abs(y)) ** (curve.n - 1)


def y_jet(curve: CurveModel, xj: series.Jet, y0: complex) -> series.Jet:
    """Jet of y along the x-jet xj with f(xj, y) = 0 and y(0) = y0.

    Newton doubles the number of correct coefficients per step; the
    caller ensures d f/d y != 0 at (xj(0), y0).  The columns of f and f_y
    along xj are formed once (``x_columns``); each step evaluates only
    their Horner pass in y.
    """
    f_form, _, fy_form = curve.forms
    g_y, gy_y = x_columns(f_form, xj), x_columns(fy_form, xj)
    yj = series.const(y0, xj.order)
    for _ in range(max(1, xj.order).bit_length() + 2):
        g = poly_eval(g_y, xj, yj)
        if np.max(np.abs(g.c)) < 1e-13 * max(1.0, abs(y0)) ** curve.n:
            break
        yj = yj - g / poly_eval(gy_y, xj, yj)
    return yj


def _near(a: complex, b: complex, rel_tol: float) -> bool:
    """|a - b| below rel_tol (1 + |a|): a tolerance at a's own scale."""
    return abs(a - b) < rel_tol * (1.0 + abs(a))


def _grouped_points(D: Divisor):
    """Cluster literally repeated points into (point, multiplicity), each
    coordinate within PAIR_TOL of 1 + its own size."""
    out: list[list] = []
    for p in D.points:
        for grp in out:
            q = grp[0]
            if _near(p.x, q.x, PAIR_TOL) and _near(p.y, q.y, PAIR_TOL):
                grp[1] += 1
                break
        else:
            out.append([p, 1])
    return [(p, m) for p, m in out]


def _fibers(D: Divisor) -> list:
    """D's points by fiber, in order of first appearance: [(x, [(point,
    multiplicity), ...])], the ``_grouped_points`` within PAIR_TOL of one x."""
    out: list = []
    for p, m in _grouped_points(D):
        fiber = next((f for f in out if _near(p.x, f[0], PAIR_TOL)), None)
        if fiber is None:
            out.append((p.x, [(p, m)]))
        else:
            fiber[1].append((p, m))
    return out


def _equilibrate(A: np.ndarray):
    """(E, r, c): A with each row, then each column, scaled to unit maximum
    (a zero row or column left as it is), and the row and column scales r, c."""
    r = np.abs(A).max(axis=1)
    r[r == 0] = 1.0
    Ar = A / r[:, None]
    c = np.abs(Ar).max(axis=0)
    c[c == 0] = 1.0
    return Ar / c, r, c


def _solve_nonspecial(A: np.ndarray, B: np.ndarray, what: str) -> np.ndarray:
    """Taylor coefficients X_t of the solution of A(t) X(t) = B(t), for the
    n x n monomial matrix A of a divisor: the one solve of every divisor
    system, of numbers or of jets, the interpolation system, the Abel
    Jacobian and the jet flow.  A and B are coefficient arrays of shapes
    (order + 1, n, n) and (order + 1, n, k); a system of numbers is order 0.

    A_0 is equilibrated once (``_equilibrate``): divisors with far-out
    points span many orders of magnitude across monomial columns, which
    plain partial pivoting handles poorly.  SpecialDivisorError when the
    equilibrated E is singular, or when n |E^-1|_1 exceeds SPECIAL_COND (or
    is NaN): an upper bound on the 1-norm condition number |E|_1 |E^-1|_1,
    since no entry of E exceeds 1.  The divisor is then (nearly) special,
    an involution pair say.  E^-1 comes from the order-0 solve, as identity
    columns appended to B_0 / r, which leave the bits of X_0 as a solve for
    B_0 alone gives them.  Each higher order reuses the gated E:
    X_t = A_0^-1 (B_t - sum_{j=1..t} A_j X_(t-j)).
    """
    E, r, c = _equilibrate(A[0])
    k, n = B.shape[2], len(E)
    try:
        Y = np.linalg.solve(E, np.concatenate((B[0] / r[:, None], np.eye(n)), axis=1))
    except np.linalg.LinAlgError as exc:
        raise SpecialDivisorError(f"{what} singular: {exc}") from exc
    cond = n * np.abs(Y[:, k:]).sum(axis=0).max()
    if not cond <= SPECIAL_COND:
        raise SpecialDivisorError(f"{what} (condition {cond:.1e}): divisor is (nearly) special")
    X = np.zeros((len(B), n, k), dtype=complex)
    X[0] = Y[:, :k] / c[:, None]
    for t in range(1, len(B)):
        rhs = B[t] - sum(A[j] @ X[t - j] for j in range(1, t + 1))
        X[t] = np.linalg.solve(E, rhs / r[:, None]) / c[:, None]
    return X


def _ladder(jet: series.Jet, top: int) -> list:
    """[1, jet, jet^2, ..., jet^top], each power one product from the last."""
    out = [series.const(1.0, jet.order)]
    for _ in range(top):
        out.append(out[-1] * jet)
    return out


def interpolation_rows(curve: CurveModel, monomials, D: Divisor) -> np.ndarray:
    """Evaluation rows (confluent where points repeat) for the monomial list;
    a repeated point's monomial jets come from one ladder of powers of its
    x-jet and one of its y-jet."""
    rows = []
    for p, mult in _grouped_points(D):
        if mult == 1:
            rows.append([m.eval(p.x, p.y) for m in monomials])
        else:
            xj = series.var(p.x, mult - 1)
            yj = branch_jet(curve, p.x, p.y, mult - 1)
            xs = _ladder(xj, max(m.i for m in monomials))
            ys = _ladder(yj, max(m.j for m in monomials))
            jets = [xs[m.i] * ys[m.j] for m in monomials]
            for r in range(mult):
                rows.append([j.c[r] for j in jets])
    return np.array(rows, dtype=complex)


def interpolate_in_basis(curve: CurveModel, basis: list[Monomial], leads, D: Divisor) -> np.ndarray:
    """Coefficients C: column i holds the c_k of R_i = coeff_i lead_i +
    sum_k c_k basis_k vanishing on D, for ``leads`` = [(lead_i, coeff_i)].

    One equilibrated solve covers every column.  A singular system, or an
    equilibrated condition number past SPECIAL_COND (``_solve_nonspecial``,
    the gate ``abel_jacobian`` applies), raises SpecialDivisorError: the
    function through a (nearly) special divisor is not (well) determined.
    """
    if len(basis) != D.degree:
        raise InvalidCurveError(
            f"need a degree {len(basis)} divisor for this interpolation, got {D.degree}"
        )
    rows = interpolation_rows(curve, [*basis, *(m for m, _ in leads)], D)
    A = np.ascontiguousarray(rows[:, : len(basis)])
    B = -(rows[:, len(basis) :] * [c for _, c in leads])  # a new C-ordered array
    return _solve_nonspecial(A[None], B[None], "interpolation system")[0]


def interpolate(curve: CurveModel, w: int, D: Divisor) -> PolyFunction:
    """Monic polynomial function of weight w >= 2g through D, deg D = w - g."""
    g = curve.genus
    if w < 2 * g:
        raise InvalidCurveError(f"weight {w} below 2g = {2 * g}")
    mons = curve.monomials_up_to(w)
    if mons[-1].weight != w:
        raise InvalidCurveError(f"no monomial of weight {w}")
    return _monic_through(curve, mons, D)


def interpolate_y_linear(curve: CurveModel, D: Divisor) -> PolyFunction:
    """The least-weight monic function linear in y through D: the first
    deg D + 1 monomials x^i y^j with j < 2, ascending in weight, the last
    the lead.  That is ``interpolate(curve, deg D + g, D)`` on a
    hyperelliptic curve, and x^2 y + c (1, x, y, x^2, xy, x^3), weight 10
    (no y^2), through six points of the (3,4) curve."""
    # x^0 ... x^deg D alone are deg D + 1 such monomials
    mons = [m for m in curve.monomials_up_to(curve.n * D.degree) if m.j < 2]
    return _monic_through(curve, mons[: D.degree + 1], D)


def _monic_through(curve: CurveModel, mons: list[Monomial], D: Divisor) -> PolyFunction:
    """The function mons[-1] + sum c_k mons[k] through D, deg D = len(mons) - 1."""
    lead = mons[-1]
    C = interpolate_in_basis(curve, mons[:-1], [(lead, 1.0)], D)
    table = {(lead.i, lead.j): 1.0 + 0j}
    for m, ck in zip(mons[:-1], C[:, 0]):
        table[(m.i, m.j)] = table.get((m.i, m.j), 0) + ck
    return PolyFunction(curve, table)


# -- zero divisors via resultants --------------------------------------------


def _poly_det(mat: list[list]) -> np.ndarray:
    """Determinant of a small matrix of x-polynomials (descending coeffs),
    ``None`` marking a structural zero: the y-resultant of two functions.

    Leibniz expansion over the terms ``_leibniz_terms`` lists for the
    matrix's pattern of live (not None, not all-zero) entries, each term a
    convolution chain down the rows, summed in lexicographic order.  The
    terms left out are exact zeros, so the sum is the full expansion's bit
    for bit; so is its length whenever a longest term is kept, as in a
    Sylvester matrix, whose term through R's leading y-coefficient and f's
    y^0 coefficient (x^s + ...) is longest.
    """
    pattern = tuple(tuple(e is not None and e.any() for e in row) for row in mat)
    terms = _leibniz_terms(pattern)
    lengths = [1 + sum(len(mat[r][j]) - 1 for r, j in enumerate(perm)) for perm, _ in terms]
    acc = np.zeros(max(lengths, default=1), dtype=complex)
    for (perm, sign), length in zip(terms, lengths):
        term = np.array([sign + 0j])
        for r, j in enumerate(perm):
            term = np.convolve(term, mat[r][j])
        acc[len(acc) - length :] += term
    return acc


@lru_cache
def _leibniz_terms(live: tuple) -> tuple:
    """(permutation, sign) of every Leibniz term through live entries only,
    ``live[r][j]`` true, in lexicographic order."""
    size = len(live)
    return tuple(
        (perm, (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :]))
        for perm in itertools.permutations(range(size))
        if all(live[r][j] for r, j in enumerate(perm))
    )


def y_resultant(curve: CurveModel, R: PolyFunction) -> np.ndarray:
    """Coefficients (descending) of Res_y(f, R) as a polynomial in x: the
    determinant (``_poly_det``) of the Sylvester matrix of (f, R) in y,
    whose entries are x-polynomials.

    For R = r1(x) y + r0(x) the live terms are one per y-coefficient c_j(x)
    of f, (-1)^n sum_j c_j (-r0)^j r1^(n-j), that is (-1)^n r1^n
    f(x, -r0 / r1) (Cantor's composition).  Every function of the group
    law is y-linear, so its matrices are (n + 1) x (n + 1); a function of
    y-degree 2 on the (3,4) curve has a 5 x 5 one with more live terms.
    """
    n = curve.n
    # f's y^n coefficient is the constant -1: one entry, not s + 1 with
    # leading zeros, keeps each Sylvester term at its own length
    fc = y_split(curve.coeffs)[:n] + [np.array([-1.0 + 0j])]
    rc = y_split(R.coeffs)
    dr = R.y_degree()
    if dr == 0:
        raise InvalidCurveError("x-only functions need no resultant")
    size = n + dr
    mat = [[None] * size for _ in range(size)]
    for r in range(dr):  # dr shifted copies of f
        for k in range(n + 1):
            mat[r][r + k] = fc[n - k]
    for r in range(n):  # n shifted copies of R
        for k in range(dr + 1):
            mat[dr + r][r + k] = rc[dr - k]
    return _poly_det(mat)


def fiber_points(curve: CurveModel, xs) -> np.ndarray:
    """Row k: the n roots y of f(xs[k], y) = 0, bit for bit those of
    ``newton_polish(c, np.roots(c))``, from one stacked eigenvalue solve."""
    n = curve.n
    c = np.zeros((len(xs), n + 1), dtype=complex)
    for row, x0 in zip(c, xs):
        for (i, j), cf in curve.coeffs.items():
            row[n - j] += cf * x0**i
    # the leading coefficient is exactly -1, so this is np.roots' companion
    comp = np.zeros((len(xs), n, n), dtype=complex)
    comp[:, 0, :] = -c[:, 1:] / c[:, :1]
    comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    ys = np.linalg.eigvals(comp)
    for k in np.flatnonzero(c[:, -1] == 0):
        ys[k] = np.roots(c[k])  # strips the zero constant term and returns y = 0 exactly
    return newton_polish(c, ys)


def _polish_multiple_zero(curve: CurveModel, R: PolyFunction, x: complex, y: complex, m: int):
    """At most 30 Newton steps for an m-fold zero of R along the curve branch.

    h(x) = R(x, y(x)) has an m-fold root; Newton on h^(m-1) restores the
    quadratic convergence that plain Newton loses at multiple roots.  It
    stops after a step below 1e-15 (1 + |x|), and before a step that is no
    smaller than the last: at a double zero the attainable step floor is a
    few 1e-15, so a step that stops shrinking is rounding noise.  y at the
    new x is read off the branch jet the step was taken on, whose Newton
    corrects its constant term onto the curve, so no step solves a fiber;
    one Newton step in y on f at the end puts the point on the curve.
    Requires the branch to be smooth there (f_y != 0), else stops where it is.
    """
    last = np.inf
    try:
        for _ in range(30):
            xj = series.var(x, m)
            yj = branch_jet(curve, x, y, m)
            h = R.eval(xj, yj)
            if abs(h.c[m]) == 0:
                break
            step = h.c[m - 1] / (m * h.c[m])
            if abs(step) > 0.5 * (1.0 + abs(x)) or abs(step) >= last:
                break
            last = abs(step)
            x, y = x - step, complex(np.polyval(yj.c[::-1], -step))
            if abs(step) < 1e-15 * (1.0 + abs(x)):
                break
    except BranchPointError:
        pass
    return x, _y_step(curve, x, y)


def _y_step(curve: CurveModel, x: complex, y: complex) -> complex:
    """y after one Newton step in y on f at fixed x (y itself where f_y = 0)."""
    fy = curve.eval_fy(x, y)
    return y - curve.eval_f(x, y) / fy if fy != 0 else y


def _polish_common_zero(curve: CurveModel, R: PolyFunction, x: complex, y: complex):
    """At most COMMON_ZERO_STEPS Newton steps on the joint system (R, f) = 0.

    The rule is ``roots.newton_polish``'s: the point stops once a step is
    below rounding, |dx| + |dy| <= 4e-16 (1 + |x| + |y|), and a step that
    raised the residual is undone and the point stops there.  The residual
    is |R| and |f| in rounding units, each over the sum of its terms'
    moduli at the start point, read from the next step's R and f, so a step
    below rounding costs one more evaluation of R and f and the budget's
    last step is unchecked.  The start may be a raw eigenvalue: this is the
    zero's one polish.  Returns the point it has when the Jacobian is
    singular or a step jumps by more than half the point's scale.
    """
    s1, s2 = (sum(abs(c * x**i * y**j) for (i, j), c in t.items()) for t in (R.coeffs, curve.coeffs))
    before, small = None, False  # (x, y, residual) ahead of the last step
    for _ in range(COMMON_ZERO_STEPS):
        r1, r2 = R.eval(x, y), curve.eval_f(x, y)
        res = abs(r1) * s2 + abs(r2) * s1  # |R| / s1 + |f| / s2, times s1 s2: no sum divides
        if before is not None and res > before[2]:
            return before[:2]
        if small:
            return x, y
        j11, j12 = R.eval_dx(x, y), R.eval_dy(x, y)
        j21, j22 = curve.eval_fx(x, y), curve.eval_fy(x, y)
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-12 * (1 + abs(j11) + abs(j12) + abs(j21) + abs(j22)) ** 2:
            return x, y
        dx = (r1 * j22 - r2 * j12) / det
        dy = (r2 * j11 - r1 * j21) / det
        if abs(dx) + abs(dy) > 0.5 * (1 + abs(x) + abs(y)):
            return x, y
        before = (x, y, res)
        x, y = x - dx, y - dy
        small = abs(dx) + abs(dy) <= 4e-16 * (1 + abs(x) + abs(y))
    return x, y


def clustered_roots(c: np.ndarray) -> list:
    """(root, multiplicity) of the polynomial c (descending): the centres of
    ``cluster_roots`` over the unpolished ``poly_roots``, then merged where
    a certificate holds (``_certified``).  A multiple centre is
    Newton-polished on the (m-1)-st derivative, where it is a simple root;
    a simple one is left to the caller's one polish of its zero."""
    return [
        (x if m == 1 else complex(newton_polish(np.polyder(c, m - 1), [x])[0]), m)
        for x, m in _certified(c, cluster_roots(poly_roots(c), CLUSTER_TOL))
    ]


def _certified(c: np.ndarray, clusters: list) -> list:
    """The clusters [(centre, m)] of c's roots, each group of them within
    MERGE_TOL (1 + |z|) of its multiplicity-weighted mean z merged into one
    root of multiplicity m, the sum of theirs, when |c^(m-1)(z)| is at most
    MERGE_CERT times that derivative's term scale sum |d_k| max(1, |z|)^k.

    Coefficient error e splits an m-fold root by about e^(1/m), past
    CLUSTER_TOL for a double root once e nears 1e-12 and for a triple one
    at rounding level, while c^(m-1), which has a simple root there, stays
    at the level of e at the mean (Zeng, "Computing multiple roots of
    inexact polynomials", Math. Comp. 74, 2005).  Two simple roots r apart read of
    order r^2 / 40, so this bound takes pairs closer than about 6e-5 for
    one double root: on the algebra benchmark's seeds 1-12 its one split
    double root reads 3.5e-13, its closest simple pairs, 1.8e-4 apart,
    2.1e-9.  A group that fails keeps its clusters."""
    groups: list[list] = []  # [sum of m z, sum of m, clusters]
    for z, m in clusters:
        for grp in groups:
            if abs(z - grp[0] / grp[1]) < MERGE_TOL * (1.0 + abs(z)):
                grp[0] += m * z
                grp[1] += m
                grp[2].append((z, m))
                break
        else:
            groups.append([m * z, m, [(z, m)]])
    out = []
    for total, m, parts in groups:
        if len(parts) > 1:
            z = total / m
            d = np.polyder(c, m - 1)
            scale = np.abs(d) @ max(1.0, abs(z)) ** np.arange(len(d) - 1, -1, -1)
            if abs(np.polyval(d, z)) <= MERGE_CERT * scale:
                out.append((complex(z), m))
                continue
        out.extend(parts)
    return out


def graph_y(curve: CurveModel, R: PolyFunction, x: complex) -> complex:
    """y = -r0(x) / r1(x) for R = r1(x) y + r0(x): the one zero of R over x.

    r1(x) = 0 (R is free of y there), or a point (x, y) off the curve by
    more than 1e-6 relative, raises PrecisionError.
    """
    r1 = R.eval_dy(x, 0.0)
    if r1 == 0:
        raise PrecisionError(f"R is free of y at x = {x:.6g}")
    y = -R.eval(x, 0.0) / r1
    try:
        curve.point(x, y, 1e-6)
    except InvalidCurveError as exc:
        raise PrecisionError(f"zero of R off the curve: {exc}") from exc
    return y


def _graph_zeros(curve: CurveModel, R: PolyFunction, roots, D: Divisor) -> list:
    """Common zeros of (R, f) over the x-roots ``roots``, [(x, m)], of the
    quotient that complements D, for R linear in y.

    R = r1(x) y + r0(x) vanishes at one point of each fiber, on its graph
    (``graph_y``).  That point, over the raw root, is polished once: on
    (R, f) for a simple root, or, moved onto the curve by one Newton step
    in y at fixed x, along the curve branch for an m-fold one; it is taken
    m times.  Where the graph cannot be read, R is (nearly) free of y at x:
    D holds two points of that fiber, so r1 and r0 both vanish there, and
    R on the whole fiber.  The zeros there are then the fiber points D
    lacks (``_fiber_zeros``, holding D's points near x).
    """
    points: list[CurvePoint] = []
    for x, m in roots:
        try:
            y = graph_y(curve, R, x)
        except PrecisionError:
            points.extend(_fiber_zeros(curve, R, [(x, m, _held(D, x))]))
            continue
        if m == 1:
            x, y = _polish_common_zero(curve, R, x, y)
        else:
            x, y = _polish_multiple_zero(curve, R, x, _y_step(curve, x, y), m)
        points.extend([CurvePoint(x, y)] * m)
    return points


def _held(D: Divisor, x: complex) -> list:
    """D's points within CLUSTER_TOL of x: those a fiber zero over x may be."""
    return [p for p in D if _near(x, p.x, CLUSTER_TOL)]


def _fiber_zeros(curve: CurveModel, R: PolyFunction, clusters) -> list:
    """Common zeros of (R, f) over the x-roots ``clusters``, [(x, m, held)],
    for R x-only or of y-degree 2 or more, or where R, linear in y, is free
    of y.

    Over x, the m new zeros and the points ``held`` there spread evenly over
    the fiber points where |R| is below 1e-5 of its term scale (the nearest
    one if none is); each held point keeps back one zero at its nearest
    fiber point.  A simple zero is polished on (R, f), a multiple one along
    the curve branch, unless R is x-only: x is then a root of r(x) or a
    point's own, and fiber_points polishes y on f.
    """
    points: list[CurvePoint] = []
    for (x0, m, held), ys in zip(clusters, fiber_points(curve, [c[0] for c in clusters])):
        vals = np.array([abs(R.eval(x0, yy)) for yy in ys])
        rs = max(R.term_scale(x0, yy) for yy in ys)
        qualify = [int(t) for t in np.nonzero(vals < 1e-5 * rs)[0]] or [int(np.argmin(vals))]
        kept = np.bincount([int(np.argmin(np.abs(ys - p.y))) for p in held], minlength=len(ys))
        total = m + len(held)
        if total % len(qualify) != 0:
            raise PrecisionError(
                f"cannot distribute multiplicity {total} over {len(qualify)} fiber zeros at x={x0:.6g}"
            )
        each = total // len(qualify)
        for t in qualify:
            x1, y1 = x0, ys[t]
            if each > kept[t] and R.y_degree():
                if each == 1:
                    x1, y1 = _polish_common_zero(curve, R, x1, y1)
                else:
                    x1, y1 = _polish_multiple_zero(curve, R, x1, y1, each)
            points.extend([CurvePoint(x1, y1)] * (each - kept[t]))
    return points


def zero_divisor(curve: CurveModel, R: PolyFunction) -> Divisor:
    """All affine common zeros of (R, f), with multiplicity: the complement
    of the empty divisor, so the fiber zeros over the roots of Res_y(R, f)
    (r^n for an x-only R = r(x)).  Zeros lost to infinity raise
    DegenerateComplementError."""
    if not R.coeffs:
        raise InvalidCurveError("zero polynomial has no zero divisor")
    return complement(curve, R, Divisor(curve, (), validate=False))


def _divide(num: np.ndarray, xs) -> tuple[np.ndarray, float]:
    """Quotient q of num by prod_k (x - xs_k), all its coefficients from one
    weighted least-squares solve, and the largest weighted remainder.

    Row i weighs 1 / (|num_i| + (ubar (|q| + |num_0|))_i): the terms of both
    sides with each root's modulus floored at 1, as in ``term_scale``, where
    ubar = prod_k (x + max(1, |xs_k|)) and q is 0 in a first solve, then its
    result.  So each coefficient counts at its own scale however far the
    roots spread, and a root at x = 0 does not hold one to rounding noise.
    """
    k = len(num) - len(xs)
    if k < 1:
        raise InconsistencyError(f"divisor of degree {len(xs)} exceeds the zeros of R")
    u, ubar = np.ones(1, dtype=complex), np.ones(1)
    for x in xs:
        u, ubar = np.convolve(u, [1.0, -x]), np.convolve(ubar, [1.0, max(1.0, abs(x))])
    T, Tbar = np.zeros((len(num), k), dtype=complex), np.zeros((len(num), k))
    for j in range(k):
        T[j : j + len(u), j], Tbar[j : j + len(u), j] = u, ubar
    q = np.zeros(k)
    for _ in range(2):
        wt = 1.0 / (np.abs(num) + Tbar @ (np.abs(q) + abs(num[0])))
        A = T * wt[:, None]
        c = np.max(np.abs(A), axis=0)
        q = np.linalg.lstsq(A / c, num * wt, rcond=None)[0] / c
    return q, float(np.max(np.abs(num - T @ q) * wt))


def complement(curve: CurveModel, R: PolyFunction, D: Divisor) -> Divisor:
    """The divisor D* with (R)_0 = D + D*, from the zeros of R that D lacks.

    For R with y-terms, Res_y(f, R) / prod_(P in D) (x - x_P) is the
    x-polynomial of D* (Cantor's exact division u3 = (f - v^2) / (u1 u2), on
    C_ab curves after Arita, Miura and Sekiguchi).  For R = r1(x) y + r0(x),
    linear in y (every step of ``add`` and ``negate`` that complements),
    D* holds the graph point (x, -r0(x) / r1(x)) over each root x, as
    often as the root (``_graph_zeros``), or, where R is free of y at x
    because D holds two points of that fiber, the fiber points D lacks
    there; for a higher y-degree, the fiber zeros over its roots, less D's
    points there.  An x-only R = r(x) vanishes on whole fibers: D* holds
    the fiber points D lacks over each of D's x-values, as often as r's
    root there, and whole fibers over the roots of r's quotient, each
    simple one Newton-polished on the quotient, since no joint polish
    follows on this route.  The division sees only x, so
    InconsistencyError is raised when |R(P)| over R's term scale at a P in
    D, or the weighted remainder, exceeds MATCH_TOL; a degree deficit
    raises DegenerateComplementError, and fiber zeros that cannot be told
    apart PrecisionError.
    """
    worst = max((abs(R.eval(p.x, p.y)) / max(1.0, R.term_scale(p.x, p.y)) for p in D), default=0.0)
    if worst > MATCH_TOL:
        raise InconsistencyError(f"divisor is off the zeros of R: |R| {worst:.2e} relative")
    dr = R.y_degree()
    if dr == 0:
        # [x, largest point multiplicity, D's points over x]
        fibers = [(x, max(m for _, m in grp), [p for p, m in grp for _ in range(m)])
                  for x, grp in _fibers(D)]
        q, rem = _divide(y_split(R.coeffs)[0], [x for x, m, _ in fibers for _ in range(m)])
        clusters = [(x, curve.n * m - len(held), held) for x, m, held in fibers]
        clusters += [(complex(newton_polish(q, [x])[0]) if m == 1 else x, curve.n * m, ())
                     for x, m in clustered_roots(q)]
    else:
        res = y_resultant(curve, R)
        lead = np.flatnonzero(res)  # Res_y from its first nonzero coefficient
        q, rem = _divide(res[lead[0] if len(lead) else len(res) :], D.xs())
        clusters = clustered_roots(q)
        if dr > 1:
            clusters = [(x, m, _held(D, x)) for x, m in clusters]
    if rem > MATCH_TOL:
        raise InconsistencyError(f"divisor does not divide the zeros of R: remainder {rem:.2e}")
    if dr == 1:
        points = _graph_zeros(curve, R, clusters, D)
    else:
        points = _fiber_zeros(curve, R, clusters)
    if len(points) + D.degree != R.weight:
        raise DegenerateComplementError(
            f"zeros of R found to degree {len(points) + D.degree}, not its weight {R.weight}: "
            "points at infinity"
        )
    return Divisor(curve, points, validate=False)
