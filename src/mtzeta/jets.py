"""Truncated power series (jets) over mpf coefficients.

A Jet stores the Taylor coefficients c_0..c_D of a function at a center x0;
the k-th derivative at x0 is k! * coeffs[k].  Jets stand in for symbolic
d/dx wherever a derivative of a product of special functions is needed:
ring operations are exact modulo truncation at degree D.

Precision policy: coefficients are plain mpf values; arithmetic happens at
whatever mp.prec is active, so callers wrap jet work in ctx.workprec().
"""

from __future__ import annotations

from mpmath import mp, mpf

from .context import to_mpf
from .errors import DomainError


class Jet:
    __slots__ = ("center", "coeffs")

    def __init__(self, center, coeffs):
        self.center = to_mpf(center)
        self.coeffs = tuple(to_mpf(c) for c in coeffs)
        if len(self.coeffs) == 0:
            raise DomainError("jet needs at least the degree-0 coefficient")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, degree, center=0):
        return cls(center, (to_mpf(value),) + (mpf(0),) * degree)

    @classmethod
    def variable(cls, center, degree):
        """The identity function x, expanded at center: x0 + xi."""
        center = to_mpf(center)
        if degree == 0:
            return cls(center, (center,))
        return cls(center, (center, mpf(1)) + (mpf(0),) * (degree - 1))

    # -- structure ----------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def derivative_value(self, k):
        """k-th derivative of the represented function at the center."""
        if not 0 <= k <= self.degree:
            raise DomainError(f"jet of degree {self.degree} has no order-{k} derivative")
        return self.coeffs[k] * mp.factorial(k)

    def __repr__(self):
        return f"Jet(center={self.center}, coeffs={self.coeffs})"

    # -- helpers ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.center != self.center:
                raise DomainError("jet arithmetic requires a common center")
            return other
        return Jet.constant(other, self.degree, self.center)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        d = min(self.degree, o.degree)
        return Jet(self.center, [self.coeffs[i] + o.coeffs[i] for i in range(d + 1)])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.center, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            v = mpf(other)
            return Jet(self.center, [c * v for c in self.coeffs])
        o = self._coerce(other)
        d = min(self.degree, o.degree)
        a, b = self.coeffs, o.coeffs
        out = []
        for n in range(d + 1):
            s = mpf(0)
            for k in range(n + 1):
                s += a[k] * b[n - k]
            out.append(s)
        return Jet(self.center, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            inv = mpf(1) / mpf(other)
            return Jet(self.center, [c * inv for c in self.coeffs])
        o = self._coerce(other)
        if o.coeffs[0] == 0:
            raise DomainError("jet division by a jet with zero constant term")
        d = min(self.degree, o.degree)
        a, b = self.coeffs, o.coeffs
        out = []
        for n in range(d + 1):
            s = a[n]
            for k in range(n):
                s -= out[k] * b[n - k]
            out.append(s / b[0])
        return Jet(self.center, out)

    def __rtruediv__(self, other):
        return Jet.constant(other, self.degree, self.center) / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise DomainError("jet powers must be nonnegative integers")
        result = Jet.constant(1, self.degree, self.center)
        base = self
        e = n
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- transcendental lifts ------------------------------------------

    def exp(self):
        """exp of the jet: b' = a' b recurrence, exact to truncation."""
        a = self.coeffs
        d = self.degree
        out = [mp.exp(a[0])]
        for n in range(1, d + 1):
            s = mpf(0)
            for k in range(1, n + 1):
                s += k * a[k] * out[n - k]
            out.append(s / n)
        return Jet(self.center, out)

    def log(self):
        a = self.coeffs
        if a[0] <= 0:
            raise DomainError("jet log requires a positive constant term")
        d = self.degree
        out = [mp.log(a[0])]
        for n in range(1, d + 1):
            s = n * a[n]
            for k in range(1, n):
                s -= k * out[k] * a[n - k]
            out.append(s / (n * a[0]))
        return Jet(self.center, out)
