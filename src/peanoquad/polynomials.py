"""Dense univariate polynomials over Scalar coefficients."""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .scalars import Scalar, _quad, as_scalar


class Polynomial:
    """Coefficient sequence, index i holding the coefficient of t**i.

    Trailing exactly-zero coefficients are trimmed on construction; the zero
    polynomial is the empty sequence with degree -1.  All arithmetic is exact
    whenever every coefficient involved is rational.  A polynomial made by
    ``of_ints`` holds integer pairs ``ints`` and forms its Scalar
    coefficients when they are first read.
    """

    __slots__ = ("_coeffs", "ints")

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and cs[-1].is_exact_zero():
            cs.pop()
        self._coeffs, self.ints = tuple(cs), None

    @classmethod
    def of_ints(cls, A: list[int], B: list[int], den: int, m: int) -> "Polynomial":
        """(A + B*sqrt(m))/den, for integer lists of one length whose last
        pair is not (0, 0); m >= 1, so a dual piece over Q[eps] raises ValueError."""
        if m < 1:
            raise ValueError("Polynomial.of_ints takes no polynomial over Q[eps] (m = 0)")
        p = cls.__new__(cls)
        p.ints = (A, B, den, m)
        return p

    def __getattr__(self, name):  # reached only while the _coeffs slot is unset
        if name != "_coeffs":
            raise AttributeError(name)
        A, B, den, m = self.ints
        self._coeffs = tuple(_quad(Fraction(a, den), Fraction(b, den), m) for a, b in zip(A, B))
        return self._coeffs

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs if self.ints is None else self.ints[0]) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree < 0

    @staticmethod
    def monomial(k: int, coef=1) -> "Polynomial":
        """coef * t**k"""
        return Polynomial([0] * k + [coef])

    def evaluate(self, t) -> Scalar:
        """p(t) by Horner's rule in Scalar arithmetic."""
        t = as_scalar(t)
        acc = Scalar(0)
        for c in reversed(self._coeffs):
            acc = acc * t + c
        return acc

    __call__ = evaluate

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._coeffs, other._coeffs
        return Polynomial([x - y for x, y in zip(a, b)] + list(a[len(b):])
                          + [-y for y in b[len(a):]])

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self._coeffs])

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            s = as_scalar(other)
            return Polynomial([c * s for c in self._coeffs])
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Polynomial()
        out = [Scalar(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca.is_exact_zero():
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Polynomial(out)

    def __rmul__(self, other) -> "Polynomial":
        return self * other

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial powers are undefined")
        out = Polynomial([1])
        for _ in range(n):
            out = out * self
        return out

    def derivative(self) -> "Polynomial":
        return Polynomial([c * i for i, c in enumerate(self._coeffs)][1:])

    def antiderivative(self) -> "Polynomial":
        """F with F' == self and F(0) == 0; exact over rationals."""
        out = [Scalar(0)]
        for i, c in enumerate(self._coeffs):
            out.append(c / (i + 1))
        return Polynomial(out)

    def definite_integral(self, a, b) -> Scalar:
        F = self.antiderivative()
        return F(b) - F(a)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if len(self._coeffs) != len(other._coeffs):
            return False
        return all(a == b for a, b in zip(self._coeffs, other._coeffs))

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self._coeffs):
            if c.is_exact_zero():
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"({c})*t")
            else:
                parts.append(f"({c})*t^{i}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Polynomial([{', '.join(str(c) for c in self._coeffs)}])"
