"""Truncated complex power series (jets) in one formal variable.

A :class:`Jet` holds coefficients ``c[0] + c[1] t + ... + c[m] t^m`` as a
numpy array; all arithmetic truncates at the common order.  Jets drive the
order-by-order computations in the package: parametrization of a curve at
infinity, Taylor expansion of a branch y(x), and exact directional
derivatives of divisor functionals along Jacobian coordinates.  Linear
systems of jets are not solved here: ``divisors._solve_nonspecial``,
the solver of the inversion system, equilibrates and gates each once, at
t = 0, and solves its stacked coefficients order by order.

Division requires an invertible constant term.  Everything is plain
floating-point complex; no symbolic coefficients.
"""

from __future__ import annotations

import numpy as np

from .errors import SeriesError


class Jet:
    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=complex)

    @property
    def order(self):
        return len(self.c) - 1

    @property
    def val(self):
        return self.c[0]

    def __repr__(self):
        return f"Jet({self.c!r})"

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        return const(other, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        return Jet(self.c + other.c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c)

    def __sub__(self, other):
        other = self._coerce(other)
        return Jet(self.c - other.c)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * other)
        m = len(self.c)
        out = np.convolve(self.c, other.c)[:m]
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c / other)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.reciprocal() ** (-k)
        out = const(1.0, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def reciprocal(self):
        if self.c[0] == 0:
            raise SeriesError("jet reciprocal with vanishing constant term")
        m = len(self.c)
        inv = np.zeros(m, dtype=complex)
        inv[0] = 1.0 / self.c[0]
        # Newton iteration v <- v (2 - a v), doubling correct order each step.
        v = Jet(inv)
        known = 1
        while known <= self.order:
            v = v * (2.0 - self * v)
            known *= 2
        return v

    def derivative_at_zero(self, k: int):
        """k-th derivative at t=0, i.e. k! times the k-th coefficient."""
        from math import factorial

        return self.c[k] * factorial(k)


def const(value, order: int) -> Jet:
    c = np.zeros(order + 1, dtype=complex)
    c[0] = value
    return Jet(c)


def var(value, order: int) -> Jet:
    """The jet of ``value + t``."""
    c = np.zeros(order + 1, dtype=complex)
    c[0] = value
    if order >= 1:
        c[1] = 1.0
    return Jet(c)

