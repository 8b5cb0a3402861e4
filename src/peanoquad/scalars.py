"""Scalar arithmetic in three tiers: rationals, Q(sqrt m), validated reals.

A :class:`Scalar` is one of

* an exact rational (arbitrary-precision ``fractions.Fraction``);
* an exact element ``a + b*sqrt(m)`` of a real quadratic field, with ``a``
  and ``b != 0`` rational and ``m > 1`` an integer that is not a square;
* a validated real: an outward-rounded interval at the current working
  precision, so every arithmetic result encloses the true value and the
  error radius is tracked conservatively.

Field operations (add, subtract, multiply, divide via the conjugate, integer
powers), signs and comparisons are closed forms whenever both operands are
exact over one field (a rational fits any ``m``, and radicands ``m1 != m2``
with ``m1*m2`` a square name one field), following the usual
arithmetic of quadratic fields (Cohen, *A Course in Computational Algebraic
Number Theory*, section 4).  Products of pure roots with different radicands
stay exact as ``s*sqrt(m)``.  Everything else falls back to interval
arithmetic, and ``<`` between overlapping enclosures raises ``AmbiguousOrder``.
"""

from __future__ import annotations

import ast
import operator
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import mpmath
from mpmath import iv
from mpmath.libmp import (dps_to_prec, from_int, from_rational, mpf_add, mpf_div, mpf_shift,
                          round_ceiling, round_floor, round_nearest, to_float, to_rational, to_str)

from .errors import AmbiguousOrder

_DEFAULT_DPS = 60

iv.dps = _DEFAULT_DPS

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def set_working_dps(dps: int) -> None:
    """Set the decimal precision used by the validated (interval) tier."""
    if dps < 15:
        raise ValueError("working precision below 15 digits is not supported")
    iv.dps = dps


def get_working_dps() -> int:
    return iv.dps


def _extract_square(n: int) -> tuple[int, int]:
    """Return (s, m) with n == s*s*m, pulling out the square factors we can find."""
    if n <= 0:
        raise ValueError("positive integer required")
    r = isqrt(n)
    if r * r == n:
        return r, 1
    s = 1
    for p in _SMALL_PRIMES:
        p2 = p * p
        while n % p2 == 0:
            n //= p2
            s *= p
    r = isqrt(n)
    if r * r == n:
        return s * r, 1
    return s, n


def _frac_to_interval(lo: Fraction, hi: Fraction):
    """The tightest enclosure of [lo, hi] at the working precision: each end
    rounded once, outward."""
    return iv.make_mpf((from_rational(lo.numerator, lo.denominator, iv.prec, round_floor),
                        from_rational(hi.numerator, hi.denominator, iv.prec, round_ceiling)))


@lru_cache(maxsize=256)
def _sqrt_enclosure(m: int, dps: int):
    """Enclosure of sqrt(m) at ``dps`` digits; keyed on the precision so a
    change of working precision never reuses a coarser enclosure."""
    return iv.sqrt(iv.mpf(m))


def _iv_endpoints(x):
    lo, hi = x._mpi_
    return mpmath.mp.make_mpf(lo), mpmath.mp.make_mpf(hi)


class Scalar:
    """Exact rational, exact a + b*sqrt(m), or validated interval real.

    Exactly one of the slots describes the value: ``_frac`` (a Fraction),
    ``_sqrt`` (the triple ``(a, b, m)``) or ``_ival`` (an ``iv.mpf``).  An
    a + b*sqrt(m) may keep its float in ``_float`` (see ``__float__``).
    """

    __slots__ = ("_frac", "_ival", "_sqrt", "_float")

    def __init__(self, value=0):
        if type(value) is Fraction or type(value) is int:
            self._frac = value if type(value) is Fraction else Fraction(value)
            self._ival = self._sqrt = None
            return
        if isinstance(value, Scalar):
            self._frac, self._ival, self._sqrt = value._frac, value._ival, value._sqrt
            return
        self._sqrt = None
        if isinstance(value, (int, Fraction, float)):
            # floats are exact dyadic rationals (NaN and inf raise ValueError);
            # a Fraction is kept as given
            self._frac = value if isinstance(value, Fraction) else _exact_end(value)
            self._ival = None
        elif isinstance(value, str):
            s = Scalar.parse(value)
            self._frac, self._ival, self._sqrt = s._frac, s._ival, s._sqrt
        elif isinstance(value, iv.mpf):
            self._frac = None
            self._ival = value
        elif isinstance(value, mpmath.mpf):
            self._frac = None
            self._ival = iv.mpf(value)  # exact point interval
        else:
            raise TypeError(f"cannot build Scalar from {type(value).__name__}")

    # --- constructors -------------------------------------------------

    @staticmethod
    def from_interval(lo, hi) -> "Scalar":
        """Validated scalar enclosing [lo, hi]: each end (int, Fraction, float
        or mpf) is read exactly and rounded once, outward, to the working
        precision.  NaN, infinite or reversed ends raise ValueError."""
        lo, hi = _exact_end(lo), _exact_end(hi)
        if hi < lo:
            raise ValueError(f"interval ends out of order: [{lo}, {hi}]")
        s = Scalar.__new__(Scalar)
        s._frac = None
        s._sqrt = None
        s._ival = _frac_to_interval(lo, hi)
        return s

    @staticmethod
    def parse(text: str) -> "Scalar":
        """The value of a literal such as "1/3", "-0.25", "1e-3", "sqrt(1/3)" or
        "(1+sqrt(5))/2": a Python expression of numbers (read exactly from
        their digits), unary + and -, + - * /, parentheses and sqrt(...),
        evaluated by Scalar arithmetic.  Any other form (also "007", which
        Python rejects) and a division by zero raise ValueError."""
        text = text.strip()
        try:
            return _literal(ast.parse(text, mode="eval").body, text)
        except (SyntaxError, ZeroDivisionError, RecursionError, MemoryError) as exc:
            raise ValueError(f"not a scalar literal: {text!r} ({getattr(exc, 'msg', exc)})") from None

    # --- predicates and accessors --------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._frac is not None

    @property
    def is_exact(self) -> bool:
        """True for a rational or an a + b*sqrt(m); False for an interval."""
        return self._ival is None

    def as_fraction(self) -> Fraction:
        if self._frac is None:
            raise ValueError("scalar is not an exact rational")
        return self._frac

    def interval(self):
        """Outward-rounded interval enclosure at the working precision."""
        if self._frac is not None:
            return _frac_to_interval(self._frac, self._frac)
        if self._sqrt is not None:
            a, b, m = self._sqrt  # recomputed: tracks precision raises after creation
            root = _frac_to_interval(b, b) * _sqrt_enclosure(m, iv.dps)
            return root + _frac_to_interval(a, a) if a else root
        return self._ival

    def is_exact_zero(self) -> bool:
        return self._frac is not None and self._frac == 0

    def contains_zero(self) -> bool:
        if self._ival is None:
            return self._frac == 0
        return 0 in self._ival

    def zero_within(self) -> bool:
        """The library's one zero test: True when the value is exactly zero,
        or is an interval that encloses zero and is narrower than
        10**-(working dps // 2) (1e-30 at the default 60 digits).

        An exact a + b*sqrt(m) is never zero.  The width follows the working
        precision, so a value that is zero in exact arithmetic, carried
        through a few interval operations, still counts as zero at 15 digits,
        while half the digits stay as margin against a true nonzero value.
        """
        if self._ival is None:
            return self._frac == 0
        if 0 not in self._ival:
            return False
        lo, hi = _iv_endpoints(self._ival)
        return (hi - lo) < mpmath.mpf(1) / 10 ** (iv.dps // 2)

    def sign(self):
        """-1, 0, or +1; None when an interval enclosure straddles zero."""
        if self._frac is not None:
            f = self._frac
            return 0 if f == 0 else (1 if f > 0 else -1)
        if self._sqrt is not None:
            return _quad_sign(*self._sqrt)
        lo, hi = _iv_endpoints(self._ival)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if lo == 0 and hi == 0:
            return 0
        return None

    def radius(self) -> float:
        """Conservative absolute-error radius of the enclosure (0.0 for
        exact rationals; positive for a + b*sqrt(m), whose enclosure is)."""
        if self._frac is not None:
            return 0.0
        lo, hi = _iv_endpoints(self.interval())
        return float((hi - lo) / 2)

    def __float__(self) -> float:
        """Nearest float: correctly rounded for a rational or a + b*sqrt(m),
        by Python's int/int division, so a subnormal is rounded once, to its
        own shorter mantissa, and a value beyond the float range raises
        OverflowError; the correctly rounded midpoint of the enclosure for
        an interval.  An a + b*sqrt(m) keeps its float once rounded (or as a
        panel walk set it, ``rules._walk``), so a repeat call reads it."""
        if self._frac is not None:  # the int/int division float(Fraction) makes
            return self._frac.numerator / self._frac.denominator
        if self._sqrt is not None:
            try:
                return self._float
            except AttributeError:
                self._float = x = _quad_round(*self._sqrt)
                return x
        lo, hi = self.interval()._mpi_
        return to_float(mpf_shift(mpf_add(lo, hi, 0), -1), rnd=round_nearest)

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Exact rational endpoints of the enclosure (both equal for a rational)."""
        if self._frac is not None:
            return self._frac, self._frac
        return tuple(_exact_end(e) for e in _iv_endpoints(self.interval()))

    def mid_fraction(self) -> Fraction:
        """Exact rational at the midpoint of the enclosure: the value of a
        rational, else the exact midpoint of the enclosure's ends."""
        if self._frac is not None:
            return self._frac
        return sum(self.bounds()) / 2

    # --- arithmetic ----------------------------------------------------

    def __neg__(self) -> "Scalar":
        if type(self) is Scalar and self._frac is not None:
            return _rat(-self._frac)
        if self._sqrt is not None:
            a, b, m = self._sqrt
            return _quad(-a, -b, m)
        return Scalar(-self._ival)

    def __abs__(self) -> "Scalar":
        if self._frac is not None:
            return Scalar(abs(self._frac))
        if self._sqrt is not None:
            return -self if self.sign() < 0 else self
        return Scalar(abs(self._ival))

    def __add__(self, other) -> "Scalar":
        other = as_scalar(other)
        if type(self) is Scalar is type(other) and self._frac is not None and other._frac is not None:
            return _rat(self._frac + other._frac)
        p = _common_field(self, other)
        if p is not None:
            a1, b1, a2, b2, m = p
            return _quad(a1 + a2, b1 + b2, m)
        if self.is_exact_zero():
            return other
        if other.is_exact_zero():
            return self
        return Scalar(self.interval() + other.interval())

    def __radd__(self, other):
        return as_scalar(other) + self

    def __sub__(self, other) -> "Scalar":
        other = as_scalar(other)
        if type(self) is Scalar is type(other) and self._frac is not None and other._frac is not None:
            return _rat(self._frac - other._frac)
        return self + (-other)

    def __rsub__(self, other):
        return as_scalar(other) + (-self)

    def __mul__(self, other) -> "Scalar":
        other = as_scalar(other)
        if type(self) is Scalar is type(other) and self._frac is not None and other._frac is not None:
            return _rat(self._frac * other._frac)
        p = _common_field(self, other)
        if p is not None:
            a1, b1, a2, b2, m = p
            return _quad(a1 * a2 + b1 * b2 * m, a1 * b2 + a2 * b1, m)
        if self.is_exact_zero() or other.is_exact_zero():
            return Scalar(0)
        if self._sqrt is not None and other._sqrt is not None:
            a1, b1, m1 = self._sqrt
            a2, b2, m2 = other._sqrt
            if a1 == 0 and a2 == 0:  # b1*sqrt(m1) * b2*sqrt(m2) == b1*b2*s*sqrt(m)
                s, m = _extract_square(m1 * m2)
                return _quad(Fraction(0), b1 * b2 * s, m)
        return Scalar(self.interval() * other.interval())

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other) -> "Scalar":
        other = as_scalar(other)
        if type(self) is Scalar is type(other) and self._frac is not None and other._frac:
            return _rat(self._frac / other._frac)
        if other.is_exact_zero():
            raise ZeroDivisionError("scalar division by exact zero")
        if self._ival is None and other._ival is None:  # multiply by the reciprocal
            if other._frac is not None:
                return self * Scalar(1 / other._frac)
            a, b, m = other._sqrt
            n = a * a - b * b * m  # the norm; nonzero because m is not a square
            return self * _quad(a / n, -b / n, m)
        return Scalar(self.interval() / other.interval())

    def __rtruediv__(self, other):
        return as_scalar(other) / self

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            raise TypeError("only integer powers are supported")
        if n < 0:
            return Scalar(1) / (self ** (-n))
        if self._frac is not None:
            return Scalar(self._frac**n)
        if self._ival is not None and n:  # x**0 is exactly 1 on every tier
            return Scalar(self._ival**n)
        out, base = Scalar(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # --- comparisons ---------------------------------------------------

    def lt_definite(self, other):
        """True/False when provably ordered, None when enclosures overlap."""
        other = as_scalar(other)
        if type(other) is _Dual:
            return _dual_lt(self, other)
        if self._frac is not None and other._frac is not None:
            return self._frac < other._frac
        p = _common_field(self, other)
        if p is not None:
            a1, b1, a2, b2, m = p
            return _quad(a2 - a1, b2 - b1, m).sign() == 1
        a_lo, a_hi = _iv_endpoints(self.interval())
        b_lo, b_hi = _iv_endpoints(other.interval())
        if a_hi < b_lo:
            return True
        if a_lo >= b_hi:
            return False
        return None

    def __lt__(self, other):
        """The answer of ``lt_definite``; AmbiguousOrder where enclosures overlap."""
        r = self.lt_definite(other)
        if r is None:
            raise AmbiguousOrder(f"enclosures overlap: {self} vs {as_scalar(other)}")
        return r

    # direct __lt__ calls: the operator would try a subclass's reflected
    # method first, and that one would come straight back here
    def __gt__(self, other):
        return as_scalar(other).__lt__(self)

    def __le__(self, other):
        return not as_scalar(other).__lt__(self)

    def __ge__(self, other):
        return not self.__lt__(other)

    def __eq__(self, other):
        """Definite equality: exact values compare exactly, intervals by identical
        enclosures; an exact value never equals an interval."""
        if type(self) is Scalar is type(other) and self._frac is not None and other._frac is not None:
            return self._frac == other._frac
        if not isinstance(other, (Scalar, int, float, Fraction)):
            return NotImplemented
        other = as_scalar(other)
        p = _common_field(self, other)
        if p is not None:
            return p[:2] == p[2:4]
        if self._ival is not None and other._ival is not None:
            return self._ival._mpi_ == other._ival._mpi_
        return False

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    # --- formatting ----------------------------------------------------

    def to_decimal(self, digits: int = 17) -> str:
        """Decimal rendering with '.' separator and the given significant digits (>= 1):
        libmp's ``to_str`` of the value rounded to nearest at digits + 10 decimal
        digits (a rational by mpmath's division, an a + b*sqrt(m) from integers,
        whatever the working precision), or of an interval's midpoint."""
        if digits < 1:
            raise ValueError(f"need at least 1 significant digit, got {digits}")
        prec = dps_to_prec(digits + 10)
        if self._frac is not None:
            x = mpf_div(from_int(self._frac.numerator, prec, round_nearest),
                        from_int(self._frac.denominator), prec, round_nearest)
        elif self._sqrt is not None:
            x = _quad_round(*self._sqrt, prec)
        else:
            x = self.interval().mid._mpi_[0]
        return to_str(x, digits)

    def to_json_str(self, digits: int | None = None) -> str:
        """Serialization string: exact "p/q", "a+c*sqrt(m)" (or "c*sqrt(m)" when
        a = 0), or a decimal."""
        if self._frac is not None:
            return str(self._frac)
        if self._sqrt is not None:
            a, b, m = self._sqrt
            root = f"sqrt({m})" if abs(b) == 1 else f"{abs(b)}*sqrt({m})"
            sign = "-" if b < 0 else ("+" if a else "")
            return f"{a if a else ''}{sign}{root}"
        return self.to_decimal(digits if digits is not None else get_working_dps())

    def __str__(self):
        if self._ival is None:
            return self.to_json_str()
        return self.to_decimal(17)

    def __repr__(self):
        return f"Scalar({str(self)!r})"


def as_scalar(x) -> Scalar:
    return x if isinstance(x, Scalar) else Scalar(x)


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}


def _literal(node, text: str) -> Scalar:
    """The value of the parsed literal ``node`` of ``text`` (see Scalar.parse)."""
    if isinstance(node, ast.Constant):  # Fraction reads the digits, or raises
        return Scalar(Fraction(ast.get_source_segment(text, node)))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        x = _literal(node.operand, text)
        return -x if isinstance(node.op, ast.USub) else x
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_literal(node.left, text), _literal(node.right, text))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sqrt"
            and len(node.args) == 1 and not node.keywords):
        return sqrt(_literal(node.args[0], text))
    raise ValueError(f"not a scalar literal: {text!r}")


def _exact_end(x) -> Fraction:
    """A number (or an interval end) read exactly; ValueError for NaN or infinity."""
    try:
        if isinstance(x, mpmath.mpf):  # to_rational would read inf as 0
            return Fraction(*to_rational(x._mpf_)) if mpmath.isfinite(x) else Fraction(float(x))
        return Fraction(x)
    except (OverflowError, ValueError):  # Fraction(inf), Fraction(nan)
        raise ValueError(f"not a finite number: {x}") from None


def _rat(f: Fraction) -> Scalar:
    """The rational Scalar f, built without __init__'s type tests.

    Negation, the four field operations and ``==`` take a fast lane through
    it when both operands are plain rationals.  The lane tests
    ``type(x) is Scalar``: a _Dual keeps its value in the same slots, and
    the lane would drop its derivative.
    """
    s = object.__new__(Scalar)
    s._frac, s._ival, s._sqrt = f, None, None
    return s


def _quad(a: Fraction, b: Fraction, m: int) -> Scalar:
    """a + b*sqrt(m) as a Scalar; a rational when b == 0 or m == 1."""
    if b == 0 or m == 1:
        return Scalar(a + b)
    s = Scalar.__new__(Scalar)
    s._frac = None
    s._ival = None
    s._sqrt = (a, b, m)
    return s


def _quad_sign(a, b, m: int) -> int:
    """The sign of a + b*sqrt(m), for a and b both rational or both integers
    and m >= 0: a and b*sqrt(m) agree in sign, or b*sqrt(m) dominates when
    a^2 < b^2*m."""
    if not b:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    return sb if a * sb >= 0 or a * a < b * b * m else -sb


def _quad_round(a: Fraction, b: Fraction, m: int, prec: int | None = None):
    """a + b*sqrt(m) (b != 0) rounded to nearest: a float by Python's int/int
    division (prec None), else an mpf of prec bits.  With
    a + b*sqrt(m) = (x + y*sqrt(m))/d and t = isqrt(y^2*m*4^k), the value
    times d*2^k lies strictly between lo and lo + 1; once both ends round
    alike, the value (irrational, never a tie) rounds the same way.  The
    float lane divides inline: ``float()`` of such values is the hot loop of
    a user integrand at sqrt nodes."""
    d = a.denominator * b.denominator
    x, y = a.numerator * b.denominator, b.numerator * a.denominator
    k = 64 if prec is None else prec + 8
    while True:
        t = isqrt(y * y * m << 2 * k)
        lo = (x << k) + t if y > 0 else (x << k) - t - 1
        den = d << k
        if prec is None:
            if (out := lo / den) == (lo + 1) / den:
                return out
        elif (out := from_rational(lo, den, prec, round_nearest)) == from_rational(
                lo + 1, den, prec, round_nearest):
            return out
        k *= 2


def quad_widened(a: Fraction, b: Fraction, m: int, below: Fraction, above: Fraction) -> Scalar:
    """[v - below, v + above] for v = a + b*sqrt(m), each end rounded once,
    outward, to the working precision; v itself when both are 0.  For an
    irrational v the ends come from integers as in ``_quad_round``: v*d*2^k
    lies strictly between lo and lo + 1, and k doubles until both round an
    end alike."""
    if not (below or above):
        return _quad(a, b, m)
    if b == 0 or m == 1:
        return Scalar.from_interval(a + b - below, a + b + above)
    d = a.denominator * b.denominator
    x, y = a.numerator * b.denominator, b.numerator * a.denominator
    k, prec = iv.prec + 8, iv.prec
    while True:
        t = isqrt(y * y * m << 2 * k)
        lo = (x << k) + t if y > 0 else (x << k) - t - 1
        D = d << k  # an end u/D + p/q, for u = lo and lo + 1, rounds as (u*q + p*D)/(D*q)
        ends = [[from_rational(u * q + p * D, D * q, prec, rnd) for u in (lo, lo + 1)]
                for p, q, rnd in ((-below.numerator, below.denominator, round_floor),
                                  (above.numerator, above.denominator, round_ceiling))]
        if all(u == v for u, v in ends):
            s = Scalar.__new__(Scalar)
            s._frac = s._sqrt = None
            s._ival = iv.make_mpf(tuple(u for u, _ in ends))
            return s
        k *= 2


def _common_field(x: Scalar, y: Scalar):
    """(a1, b1, a2, b2, m) with x = a1 + b1*sqrt(m) and y = a2 + b2*sqrt(m)
    (m is None when both are rational), or None when either is an interval
    or they lie in different fields."""
    if x._ival is not None or y._ival is not None:
        return None
    a1, b1, m1 = x._sqrt or (x._frac, 0, None)
    a2, b2, m2 = y._sqrt or (y._frac, 0, None)
    if m1 is None or m2 is None or m1 == m2:
        return a1, b1, a2, b2, m1 or m2
    # one field when m1*m2 = s^2: sqrt(m2) = (s/m1)*sqrt(m1), so rewrite the
    # larger radicand into the smaller (_extract_square misses big primes)
    s = isqrt(m1 * m2)
    if s * s != m1 * m2:
        return None
    if m1 < m2:
        return a1, b1, a2, b2 * Fraction(s, m1), m1
    return a1, b1 * Fraction(s, m2), a2, b2, m2


def approx_quad(a: Fraction, b: Fraction, m: int, bits: int) -> Fraction:
    """a + b*sqrt(m) with sqrt(m) truncated to ``bits`` bits, close relative
    to the value: where a and b*sqrt(m) have opposite signs it is the exact
    norm divided by the conjugate, where they add."""
    root = Fraction(isqrt(m << 2 * bits), 1 << bits)
    if a * b >= 0:
        return a + b * root
    return (a * a - b * b * m) / (a - b * root)


def minus_terms(total: Scalar, terms) -> Scalar:
    """total minus the sum of terms: the exact terms exactly, then the interval
    ones on the exact bounds of their enclosures, rounded outward once, so a
    difference far below their rounding survives and no sum of the same
    enclosures at the working precision is narrower."""
    for t in terms:
        if t.is_exact:
            total = total - t
    rest = [t.bounds() for t in terms if not t.is_exact]
    if not rest:
        return total
    lo, hi = total.bounds()
    return Scalar.from_interval(lo - sum(b for _, b in rest), hi - sum(a for a, _ in rest))


def field_parts(values):
    """(m, [(a, b), ...]) with values[i] == a + b*sqrt(m) over one radicand m
    (m == 1 when every value is rational), or None when a value is an
    interval or two values lie in different fields."""
    # the reference carries the smallest radicand, or is rational if all are
    ref = min((v for v in values if v._sqrt is not None), key=lambda v: v._sqrt[2], default=ONE)
    parts = [_common_field(ref, v) for v in values]
    if None in parts:
        return None
    return parts[0][4] or 1, [p[2:4] for p in parts]


def sqrt(x) -> Scalar:
    """Square root: exact on rationals (a rational, or c*sqrt(m)), else a
    validated enclosure."""
    x = as_scalar(x)
    if x._frac is not None:
        f = x._frac
        if f < 0:
            raise ValueError("square root of a negative scalar")
        if f == 0:
            return Scalar(0)
        s, m = _extract_square(f.numerator * f.denominator)  # sqrt(p/q) = sqrt(p*q)/q
        return _quad(Fraction(0), Fraction(s, f.denominator), m)
    try:
        return Scalar(iv.sqrt(x.interval()))
    except mpmath.libmp.libhyper.ComplexResult:
        raise ValueError("square root of a negative scalar") from None


ONE = Scalar(1)


class _Dual(Scalar):
    """v + d*eps with eps**2 = 0: a value and its derivative in one free
    parameter, for forward-mode differentiation (Griewank & Walther,
    *Evaluating Derivatives*, SIAM 2008, ch. 3).

    The value sits in Scalar's slots, so signs, root isolation and the
    rational accessors see the value alone, and it is bit for bit the value
    plain Scalar arithmetic gives.  The arithmetic operators also carry the
    derivative ``_d``.  A result whose derivative is exactly zero is a plain
    Scalar, and a value that is exactly zero is not an exact zero while its
    derivative is nonzero.

    Order (so ``sorted`` too), equality and ``abs`` read eps as a positive
    infinitesimal: values that tie are ordered by their derivatives, as at
    the parameter x + eps.  Nodes that meet at x but part as x grows stay
    apart, so the derivative is the one-sided one in the direction of the
    seed, as at the ends of a family's domain.
    """

    __slots__ = ("_d",)

    def __init__(self, value, d):
        Scalar.__init__(self, value)
        self._d = as_scalar(d)

    @staticmethod
    def parts(x) -> tuple[Scalar, Scalar]:
        """(value, derivative) of any scalar; a plain one has derivative 0."""
        v, d = _split(x)
        return v, Scalar(0) if d is None else d

    def is_exact_zero(self) -> bool:
        return Scalar.is_exact_zero(self) and self._d.is_exact_zero()

    def lt_definite(self, other):
        return _dual_lt(self, other)

    def __eq__(self, other):
        if not isinstance(other, (Scalar, int, float, Fraction)):
            return NotImplemented
        (a, da), (b, db) = _Dual.parts(self), _Dual.parts(other)
        return a == b and da == db

    def __neg__(self):
        v, d = _split(self)
        return _dual(-v, -d)

    def __abs__(self):
        v, d = _split(self)
        s = v.sign()
        if s == 0:  # v + d*eps has the sign of d
            s = d.sign()
        if s == 1:
            return self
        if s == -1:
            return -self
        # |.| has a corner inside the enclosure: enclose both one-sided slopes
        _, hi = _iv_endpoints(abs(d).interval())
        return _dual(abs(v), Scalar(iv.mpf([-hi, hi])))

    # Python tries a subclass's reflected operator before Scalar's own, so
    # Scalar op _Dual lands here too; Scalar's a - b is a + (-b)
    def __add__(self, other):
        return _dual_add(self, other)

    def __radd__(self, other):
        return _dual_add(other, self)

    def __mul__(self, other):
        return _dual_mul(self, other)

    def __rmul__(self, other):
        return _dual_mul(other, self)

    def __truediv__(self, other):
        return _dual_div(self, other)

    def __rtruediv__(self, other):
        return _dual_div(other, self)

    def __pow__(self, n: int):
        v, d = _split(self)
        if n == 0:
            return v**0
        return _dual(v**n, n * v ** (n - 1) * d)


def _split(x) -> tuple[Scalar, Scalar | None]:
    """(plain value, derivative or None for a plain scalar)."""
    x = as_scalar(x)
    if isinstance(x, _Dual):
        return Scalar(x), x._d
    return x, None


def _dual_lt(x, y):
    """x < y with eps a positive infinitesimal: ties of value go by derivative."""
    (a, da), (b, db) = _Dual.parts(x), _Dual.parts(y)
    lt = a.lt_definite(b)
    return da.lt_definite(db) if lt is False and a == b else lt


def _dual(v: Scalar, d) -> Scalar:
    if d is None or d.is_exact_zero():
        return v
    out = _Dual.__new__(_Dual)
    out._frac, out._ival, out._sqrt, out._d = v._frac, v._ival, v._sqrt, d
    return out


def _dual_add(x, y) -> Scalar:
    (a, da), (b, db) = _split(x), _split(y)
    return _dual(a + b, da if db is None else db if da is None else da + db)


def _dual_mul(x, y) -> Scalar:
    (a, da), (b, db) = _split(x), _split(y)
    if da is None:
        d = a * db
    elif db is None:
        d = da * b
    else:
        d = da * b + a * db
    return _dual(a * b, d)


def _dual_div(x, y) -> Scalar:
    (a, da), (b, db) = _split(x), _split(y)
    v = a / b
    if db is None:
        return _dual(v, da / b)
    d = -(v * db) if da is None else da - v * db
    return _dual(v, d / b)
