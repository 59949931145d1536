"""Canonical plane curves with one place at infinity.

A curve here is the zero set of

    f(x, y) = -y^n + x^s + sum  lambda_k  y^j x^i,      k = n s - i n - j s,

with gcd(n, s) = 1, n < s, 0 <= j <= n-2, 0 <= i <= s-2, and only
positive-weight parameters lambda_k present.  The grading ("Sato weight")
puts wgt x = n, wgt y = s, wgt lambda_k = k, so f is homogeneous of weight
n s.  Genus is (n-1)(s-1)/2 and the Weierstrass gaps at infinity are the
non-representable values a n + b s.

``CurveModel.coeffs`` holds f once, as the table {(i, j): c} -- x^s, then
-y^n, then the lambda terms -- in the format of every polynomial function
on the curve; ``poly_partials`` gives the tables of its two partials, and
``y_split`` splits it into x-polynomials by powers of y.  A table is
evaluated by Horner's scheme from its column form (``horner_form``, built
once per table): ``poly_eval`` takes a Horner pass in x per power of y,
then one pass in y over those columns, for complex scalars, numpy arrays
and Jets alike, and forms no power.  A caller that holds x fixed, as the
branch-jet Newton does, takes the passes in x once (``x_columns``).  The
error is at most gamma_(2(dx + dy)) sum |c x^i y^j| for degrees dx in x
and dy in y, the term sum's own bound (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., 2002, sec. 5.1).

The module knows three families with extra structure: hyperelliptic
(n = 2) and the two trigonal shapes (n = 3, s = 3m+1 or 3m+2).  The
hyperelliptic and (3,4) cases also carry explicit second-kind differential
numerators, which downstream modules need for period matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvalidCurveError, SeriesError
from .series import Jet, const

HYPERELLIPTIC = "hyperelliptic"
TRIGONAL_3M1 = "trigonal-3m+1"
TRIGONAL_3M2 = "trigonal-3m+2"
OTHER_NS = "other"

#: default relative on-curve tolerance for accepting points
ON_CURVE_TOL = 1e-10


def gap_sequence(n: int, s: int) -> tuple[int, ...]:
    """Weierstrass gaps of the numerical semigroup generated by n and s.

    Returns the (n-1)(s-1)/2 non-negative integers not representable as
    a*n + b*s with a, b >= 0, in ascending order.
    """
    if n < 2 or s <= n or math.gcd(n, s) != 1:
        raise InvalidCurveError(f"(n, s) = ({n}, {s}) must be coprime with 2 <= n < s")
    limit = n * s  # all gaps lie below (n-1)(s-1) <= ns
    representable = np.zeros(limit + 1, dtype=bool)
    for a in range(0, limit // n + 1):
        base = a * n
        representable[base : limit + 1 : s] = True
    gaps = tuple(int(w) for w in range(1, limit + 1) if not representable[w])
    expected = (n - 1) * (s - 1) // 2
    if len(gaps) != expected:
        raise InvalidCurveError("gap sieve inconsistency")
    return gaps


def horner_form(coeffs: dict) -> tuple:
    """The column form of a table {(i, j): c}: one column per power of y,
    from the top power down, each the (lead, rest) of its x-coefficients as
    Python complex numbers from that power's own top degree of x down
    ((0j, ()) where no term has y^j)."""
    cols = [[0j] for _ in range(max((j for (_, j) in coeffs), default=0) + 1)]
    for (i, j), c in coeffs.items():
        col = cols[j]
        if i >= len(col):
            col[:0] = [0j] * (i + 1 - len(col))
        col[len(col) - 1 - i] = complex(c)
    return tuple((col[0], tuple(col[1:])) for col in reversed(cols))


def poly_eval(form: tuple, x, y):
    """The table with column form ``form`` at (x, y), by Horner's scheme:
    each column one pass in x, the columns one pass in y, for complex
    scalars, numpy arrays and Jets alike; a table free of x and y gives its
    constant."""
    acc = None
    for lead, rest in form:
        for c in rest:
            lead = lead * x + c
        acc = lead if acc is None else acc * y + lead
    return acc


def x_columns(form: tuple, x) -> tuple:
    """The column form at x of a polynomial in y alone: each column's pass
    in x, once, so that ``poly_eval`` of the result at any x runs only the
    pass in y."""
    return tuple((poly_eval((col,), x, None), ()) for col in form)


def poly_partials(coeffs: dict) -> tuple[dict, dict]:
    """The tables of d/dx and d/dy of a table {(i, j): c}, in its term order.

    A partial's term c i x^(i-1) y^j keeps the coefficient c i, so its
    Horner value carries the bound of a table of those coefficients.
    """
    return (
        {(i - 1, j): c * i for (i, j), c in coeffs.items() if i},
        {(i, j - 1): c * j for (i, j), c in coeffs.items() if j},
    )


def y_split(coeffs: dict) -> list[np.ndarray]:
    """Entry j: the coefficients, descending in x, of the y^j part of a
    table {(i, j): c}; every entry has the table's top x-degree."""
    dx = max((i for (i, _) in coeffs), default=0)
    dy = max((j for (_, j) in coeffs), default=0)
    out = [np.zeros(dx + 1, dtype=complex) for _ in range(dy + 1)]
    for (i, j), c in coeffs.items():
        out[j][dx - i] = c
    return out


@dataclass(frozen=True)
class Monomial:
    """x^i y^j with j < n; weight = i n + j s."""

    i: int
    j: int
    weight: int

    def eval(self, x, y):
        return x**self.i * y**self.j

    def __str__(self):
        parts = []
        if self.i:
            parts.append("x" if self.i == 1 else f"x^{self.i}")
        if self.j:
            parts.append("y" if self.j == 1 else f"y^{self.j}")
        return " ".join(parts) if parts else "1"


def monomial_of_weight(n: int, s: int, w: int) -> Optional[Monomial]:
    """The unique monomial x^i y^j, j < n, of weight w, or None for a gap."""
    for j in range(n):
        r = w - j * s
        if r >= 0 and r % n == 0:
            return Monomial(r // n, j, w)
    return None


@dataclass(frozen=True)
class CurvePoint:
    x: complex
    y: complex
    residual: float = 0.0


@dataclass(frozen=True)
class CurveModel:
    """An (n, s)-curve with parameters keyed by Sato weight."""

    n: int
    s: int
    lam: dict = field(default_factory=dict)
    genus: int = field(init=False)
    gaps: tuple = field(init=False)
    family: str = field(init=False)
    terms: tuple = field(init=False)  # (i, j, weight) of every lambda slot
    coeffs: dict = field(init=False, repr=False, compare=False)  # f as {(i, j): c}
    partials: tuple = field(init=False, repr=False, compare=False)  # f_x, f_y tables

    def __post_init__(self):
        n, s = self.n, self.s
        gaps = gap_sequence(n, s)
        object.__setattr__(self, "genus", (n - 1) * (s - 1) // 2)
        object.__setattr__(self, "gaps", gaps)
        terms = []
        for j in range(n - 1):
            for i in range(s - 1):
                k = n * s - i * n - j * s
                if k > 0:
                    terms.append((i, j, k))
        object.__setattr__(self, "terms", tuple(terms))
        valid = {k for (_, _, k) in terms}
        lam = {int(k): complex(v) for k, v in self.lam.items() if v != 0}
        for k in lam:
            if k not in valid:
                raise InvalidCurveError(
                    f"lambda weight {k} does not occur in the canonical (n,s)=({n},{s}) equation"
                )
        object.__setattr__(self, "lam", lam)
        coeffs = {(s, 0): 1.0 + 0j, (0, n): -1.0 + 0j}
        coeffs.update(((i, j), lam[k]) for i, j, k in terms if k in lam)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "partials", poly_partials(coeffs))
        if n == 2:
            fam = HYPERELLIPTIC
        elif n == 3 and s % 3 == 1:
            fam = TRIGONAL_3M1
        elif n == 3 and s % 3 == 2:
            fam = TRIGONAL_3M2
        else:
            fam = OTHER_NS
        object.__setattr__(self, "family", fam)

    # -- basic evaluation -------------------------------------------------

    def lam_get(self, k: int) -> complex:
        if k == 0:
            return 1.0 + 0j  # lambda_0 is the monic leading normalization
        if k < 0:
            return 0j
        return self.lam.get(k, 0j)

    @cached_property
    def forms(self) -> tuple:
        """The column forms of f, f_x and f_y, built on first evaluation: a
        curve made for its periods alone never evaluates f."""
        return tuple(horner_form(t) for t in (self.coeffs, *self.partials))

    def eval_f(self, x, y):
        """f(x, y); vectorizes over numpy arrays and accepts Jets."""
        return poly_eval(self.forms[0], x, y)

    def eval_fx(self, x, y):
        return poly_eval(self.forms[1], x, y)

    def eval_fy(self, x, y):
        return poly_eval(self.forms[2], x, y)

    def point(self, x, y, tol: float = ON_CURVE_TOL) -> CurvePoint:
        """Validated point; tolerance scales with the point magnitude."""
        x, y = complex(x), complex(y)
        try:
            res = abs(self.eval_f(x, y))
            scale = max(1.0, abs(x) ** self.s, abs(y) ** self.n)
        except OverflowError as exc:
            raise InvalidCurveError(f"point ({x}, {y}) overflows the curve equation") from exc
        if not res <= tol * scale:  # a NaN residual, as from infinite coordinates, fails too
            raise InvalidCurveError(f"point ({x}, {y}) off the curve: |f| = {res:.3e}")
        return CurvePoint(x, y, res)

    # -- weighted combinatorics -------------------------------------------

    def monomials_up_to(self, wmax: int) -> list[Monomial]:
        """All monomials x^i y^j, j < n, of weight <= wmax, ascending."""
        out = []
        for w in range(0, wmax + 1):
            m = monomial_of_weight(self.n, self.s, w)
            if m is not None:
                out.append(m)
        return out

    def monomial(self, w: int) -> Monomial:
        m = monomial_of_weight(self.n, self.s, w)
        if m is None:
            raise InvalidCurveError(f"weight {w} is a gap for (n,s)=({self.n},{self.s})")
        return m

    def basis_monomials(self) -> list[Monomial]:
        """First-kind numerators: the monomial of weight 2g-1-w for each gap w."""
        g2 = 2 * self.genus
        return [self.monomial(g2 - 1 - w) for w in self.gaps]

    def sigma_weight(self) -> int:
        """Weight of the associated entire function: -(n^2-1)(s^2-1)/24."""
        return -((self.n**2 - 1) * (self.s**2 - 1)) // 24

    # -- differentials -----------------------------------------------------

    def second_kind_numerators(self) -> Optional[list[dict]]:
        """Numerators of the associated second-kind differentials.

        Returns one coefficient table {(i, j): c} per gap, or None when no
        explicit associated system is wired in (only the hyperelliptic
        family, any genus, and the (3,4) curve are covered).
        """
        g = self.genus
        if self.family == HYPERELLIPTIC:
            rhos = []
            for idx in range(1, g + 1):  # gap 2*idx - 1
                table = {}
                for k in range(1, 2 * idx):
                    c = k * self.lam_get(4 * idx - 2 * k - 2)
                    if c != 0:
                        table[(g - idx + k, 0)] = table.get((g - idx + k, 0), 0) + c
                rhos.append(table)
            return rhos
        if (self.n, self.s) == (3, 4):
            l2 = self.lam_get(2)
            l5 = self.lam_get(5)
            l6 = self.lam_get(6)
            rho1 = {(2, 0): 1.0 + 0j}
            rho2 = {(1, 1): 2.0 + 0j}
            rho5 = {(2, 1): 5.0 + 0j}
            if l2:
                rho5[(2, 0)] = 2.0 / 3.0 * l2 * l2
                if l5:
                    rho5[(1, 0)] = 2.0 / 3.0 * l2 * l5
            if l6:
                rho5[(0, 1)] = l6
            return [rho1, rho2, rho5]
        return None

    def differential_numerators(self):
        """(first-kind monomials, second-kind tables or None)."""
        return self.basis_monomials(), self.second_kind_numerators()


# -- parametrization at infinity -------------------------------------------


class InfinitySeries:
    """Local parametrization x = xi^-n, y = xi^-s (1 + sum c_k xi^k).

    Coefficients are produced order by order so that f(x(xi), y(xi))
    vanishes to the requested order; c_k is weighted-homogeneous of
    weight k in the curve parameters.
    """

    def __init__(self, curve: CurveModel, order: int):
        self.curve = curve
        self.order = order
        self.c = _infinity_coeffs(curve, order)

    def x(self, xi):
        return xi ** (-self.curve.n)

    def y(self, xi):
        xi = complex(xi)
        unit = complex(np.polyval(self.c[::-1], xi))
        return xi ** (-self.curve.s) * unit

    def residual(self, xi) -> float:
        """|f(x(xi), y(xi)) xi^(n s)|, the scaled defect of the truncation."""
        val = self.curve.eval_f(self.x(xi), self.y(xi))
        return abs(val * xi ** (self.curve.n * self.curve.s))


def _infinity_coeffs(curve: CurveModel, order: int) -> np.ndarray:
    n, s = curve.n, curve.s
    u = const(1.0, order)  # u(xi) = y xi^s
    # Newton iteration on G(u) = 1 - u^n + sum lambda_k xi^k u^j.
    for _ in range(order.bit_length() + 2):
        g = 1.0 - u**n
        gp = const(-float(n), order) * u ** (n - 1)
        for i, j, k in curve.terms:
            lk = curve.lam.get(k)
            if not lk:
                continue
            shift = np.zeros(order + 1, dtype=complex)
            if k <= order:
                shift[k] = lk
            g = g + Jet(shift) * u**j
            if j > 0:
                gp = gp + Jet(shift) * (j * u ** (j - 1))
        if np.max(np.abs(g.c)) < 1e-14 * max(1.0, np.max(np.abs(u.c))):
            break
        if abs(gp.val) == 0:
            raise SeriesError("Newton step degenerate in the expansion at infinity")
        u = u - g / gp
    else:
        raise SeriesError("expansion at infinity did not converge")
    return u.c


def infinity_series(curve: CurveModel, order: int) -> InfinitySeries:
    if order < 0:
        raise InvalidCurveError("series order must be non-negative")
    return InfinitySeries(curve, order)


# -- convenience constructors ----------------------------------------------


def curve_model(n: int, s: int, lam: Optional[dict] = None) -> CurveModel:
    return CurveModel(n, s, dict(lam or {}))

