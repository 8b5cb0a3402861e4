"""Real-root isolation for low-degree polynomials on an interval.

Rational-coefficient polynomials take the exact path: Yun squarefree split,
integer Sturm chains, bisection over dyadic rationals, and simplest-rational
reconstruction so roots like 1/3 are reported exactly.  Polynomials with
validated (interval) coefficients take a high-precision numeric path whose
final brackets are certified by rigorous sign evaluation at the endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import DegreeTooHigh
from .polynomials import Polynomial
from .scalars import Scalar, as_scalar, get_working_dps, sqrt

DEGREE_LIMIT = 16
DEFAULT_ROOT_TOL = Fraction(1, 10**20)


@dataclass(frozen=True)
class Root:
    location: Scalar
    multiplicity_hint: int

    def is_exact(self) -> bool:
        return self.location.is_rational


@dataclass(frozen=True)
class RootList:
    roots: tuple[Root, ...]

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)

    def locations(self) -> tuple[Scalar, ...]:
        return tuple(r.location for r in self.roots)


# --------------------------------------------------------------------------
# exact helpers on Fraction coefficient lists (index i = coefficient of t^i)


def _fdeg(c: list[Fraction]) -> int:
    return len(c) - 1


def _ftrim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _fderiv(c: list[Fraction]) -> list[Fraction]:
    return [c[i] * i for i in range(1, len(c))]

def _feval(c: list[Fraction], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for a in reversed(c):
        acc = acc * t + a
    return acc


def _fdivmod(a: list[Fraction], b: list[Fraction]):
    """Exact polynomial division over the rationals."""
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = 1 / b[-1]
    while len(a) >= len(b) and a:
        k = len(a) - len(b)
        f = a[-1] * inv
        q[k] = f
        for i in range(len(b)):
            a[k + i] -= f * b[i]
        a.pop()
        _ftrim(a)
    return _ftrim(q), a


def _fgcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = list(a), list(b)
    while b:
        _, r = _fdivmod(a, b)
        a, b = b, r
    if a:
        inv = 1 / a[-1]
        a = [x * inv for x in a]
    return a


def _fsub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _ftrim(out)


def _yun_squarefree(c: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Yun squarefree decomposition: list of (monic factor, multiplicity)."""
    d = _fderiv(list(c))
    g = _fgcd(list(c), list(d))
    if _fdeg(g) < 1:
        return [(list(c), 1)]
    out = []
    w, _ = _fdivmod(c, g)   # product of distinct roots
    y, _ = _fdivmod(d, g)
    z = _fsub(y, _fderiv(w))
    i = 1
    while _fdeg(w) > 0:
        g_i = _fgcd(list(w), list(z))
        if _fdeg(g_i) > 0:
            out.append((g_i, i))
        w, _ = _fdivmod(w, g_i)
        y, _ = _fdivmod(z, g_i) if z else ([], [])
        z = _fsub(y, _fderiv(w))
        i += 1
    return out


def _to_int_primitive(c: list[Fraction]) -> list[int]:
    den = 1
    for x in c:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in c]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _int_sign_at(c: list[int], t: Fraction) -> int:
    """Sign of the integer polynomial at a rational point, exactly.

    Accumulates p(u/v) * v^deg with pure integer arithmetic.
    """
    u, v = t.numerator, t.denominator
    acc = 0
    vp = 1
    for a in reversed(c):
        acc = acc * u + a * vp
        vp *= v
    return (acc > 0) - (acc < 0)


def _sturm_chain_int(c: list[int]) -> list[list[int]]:
    f0 = [Fraction(x) for x in c]
    chain = [_to_int_primitive(f0), _to_int_primitive(_fderiv(f0))]
    while _fdeg(chain[-1]) > 0:
        a = [Fraction(x) for x in chain[-2]]
        b = [Fraction(x) for x in chain[-1]]
        _, r = _fdivmod(a, b)
        if not r:
            break
        chain.append(_to_int_primitive([-x for x in r]))
    return [p for p in chain if p]


def _variations(chain: list[list[int]], t: Fraction) -> int:
    signs = [s for s in (_int_sign_at(p, t) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _simplest_in_open(a: Fraction, b: Fraction) -> Fraction:
    """Rational with the smallest denominator strictly inside (a, b)."""
    if not a < b:
        raise ValueError("empty interval")
    if a < 0 < b:
        return Fraction(0)
    if b <= 0:
        return -_simplest_in_open(-b, -a)
    # 0 <= a < b
    ia = a.numerator // a.denominator
    if ia + 1 < b:
        return Fraction(ia + 1)
    if a == ia:  # integer left endpoint, interval inside (ia, ia+1)
        inner = Fraction(1, (b - ia).denominator // (b - ia).numerator + 1)
        return ia + inner
    return ia + 1 / _simplest_in_open(1 / (b - ia), 1 / (a - ia))


def _deflate(c: list[Fraction], r: Fraction) -> list[Fraction]:
    """Exact synthetic division by (t - r); the remainder is zero by contract."""
    n = len(c) - 1
    q = [Fraction(0)] * n
    acc = c[n]
    for i in range(n - 1, -1, -1):
        q[i] = acc
        acc = c[i] + r * acc
    return q


def _refine_single(f_int: list[int], fq: list[Fraction], a: Fraction, b: Fraction,
                   tol: Fraction):
    """Shrink a one-root bracket; returns ('exact', r) or ('bracket', a, b)."""
    sa = _int_sign_at(f_int, a)
    step = 0
    while b - a > tol:
        if step in (0, 8):  # cheap shots at small-denominator rational roots
            cand = _simplest_in_open(a, b)
            if _feval(fq, cand) == 0:
                return ("exact", cand)
        m = (a + b) / 2
        sm = _int_sign_at(f_int, m)
        if sm == 0:
            return ("exact", m)
        if sm == sa:
            a = m
        else:
            b = m
        step += 1
    cand = _simplest_in_open(a, b)
    if _feval(fq, cand) == 0:
        return ("exact", cand)
    return ("bracket", a, b)


def _quadratic_roots(f: list[Fraction], lo: Fraction, hi: Fraction) -> list[Scalar]:
    """Exact roots of a squarefree linear/quadratic factor inside (lo, hi).

    Irrational quadratic roots come back as exact elements a + b*sqrt(m) of
    Q(sqrt(disc)), so values of rational polynomials at them stay exact.
    """
    if _fdeg(f) == 1:
        r = -f[0] / f[1]
        return [Scalar(r)] if lo < r < hi else []
    c0, c1, c2 = f[0], f[1], f[2]
    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        return []
    root_d = sqrt(Scalar(disc))
    lo_s, hi_s = Scalar(lo), Scalar(hi)
    out = []
    for sign in (-1, 1):
        r = (Scalar(-c1) + sign * root_d) / Scalar(2 * c2)
        if lo_s.lt_definite(r) and r.lt_definite(hi_s):
            out.append(r)
    out.sort(key=float)
    return out


def _isolate_rational(coeffs: list[Fraction], lo: Fraction, hi: Fraction,
                      tol: Fraction) -> list[Root]:
    # roots at the interval endpoints are outside (lo, hi): deflate them away
    c = list(coeffs)
    while _fdeg(c) >= 1 and _feval(c, lo) == 0:
        c = _deflate(c, lo)
    while _fdeg(c) >= 1 and _feval(c, hi) == 0:
        c = _deflate(c, hi)
    if _fdeg(c) < 1:
        return []

    found: list[Root] = []
    for factor, mult in _yun_squarefree(c):
        if _fdeg(factor) <= 2:
            found.extend(Root(r, mult) for r in _quadratic_roots(factor, lo, hi))
            continue
        pending = list(factor)
        while True:
            exact_hit = None
            f_int = _to_int_primitive(pending)
            if _fdeg(pending) < 1:
                break
            chain = _sturm_chain_int(f_int)
            stack = [(lo, hi, _variations(chain, lo) - _variations(chain, hi))]
            brackets = []
            while stack:
                a, b, n = stack.pop()
                if n <= 0:
                    continue
                if n == 1:
                    brackets.append((a, b))
                    continue
                m = (a + b) / 2
                if _feval(pending, m) == 0:
                    exact_hit = m
                    break
                vm = _variations(chain, m)
                stack.append((a, m, _variations(chain, a) - vm))
                stack.append((m, b, vm - _variations(chain, b)))
            if exact_hit is not None:
                found.append(Root(Scalar(exact_hit), mult))
                pending = _deflate(pending, exact_hit)
                continue
            for a, b in brackets:
                got = _refine_single(f_int, pending, a, b, tol)
                if got[0] == "exact":
                    found.append(Root(Scalar(got[1]), mult))
                else:
                    found.append(Root(Scalar.from_interval(got[1], got[2]), mult))
            break
    found.sort(key=lambda r: float(r.location))
    return found


# --------------------------------------------------------------------------
# numeric path for validated (interval) coefficients


def _mid_mpf(s: Scalar):
    return mpmath.mp.make_mpf(s.interval().mid._mpi_[0])


def _mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a finite mpf."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def _mpf_eval_with_scale(c, t):
    acc = mpmath.mpf(0)
    scale = mpmath.mpf(0)
    at = abs(t)
    for a in reversed(c):
        acc = acc * t + a
        scale = scale * at + abs(a)
    return acc, scale


def _mpf_sign(c, t, eps) -> int:
    v, s = _mpf_eval_with_scale(c, t)
    if abs(v) <= s * eps:
        return 0
    return 1 if v > 0 else -1


def _mpf_divrem(a, b):
    a = list(a)
    while a and abs(a[-1]) == 0:
        a.pop()
    q_len = max(len(a) - len(b) + 1, 0)
    for _ in range(q_len):
        if len(a) < len(b):
            break
        f = a[-1] / b[-1]
        k = len(a) - len(b)
        for i in range(len(b)):
            a[k + i] -= f * b[i]
        a.pop()
    return a


def _isolate_numeric(poly: Polynomial, lo: Fraction, hi: Fraction,
                     tol: Fraction) -> list[Root]:
    dps = get_working_dps()
    with mpmath.workdps(dps):
        eps = mpmath.mpf(10) ** (-(dps - 12))
        c = [_mid_mpf(s) for s in poly.coeffs]
        top = max(abs(x) for x in c)
        if top == 0:
            return []
        c = [x / top for x in c]
        while c and abs(c[-1]) < eps:
            c.pop()
        if len(c) <= 1:
            return []

        flo = mpmath.mpf(lo.numerator) / lo.denominator
        fhi = mpmath.mpf(hi.numerator) / hi.denominator
        width = fhi - flo
        nudge = width * mpmath.mpf(2) ** -40
        a0, b0 = flo + nudge, fhi - nudge

        # numeric Sturm chain with coefficient pruning
        chain = [list(c)]
        d = [c[i] * i for i in range(1, len(c))]
        chain.append(d)
        while len(chain[-1]) > 1:
            r = _mpf_divrem(chain[-2], chain[-1])
            r = [-x for x in r]
            if not r:
                break
            m = max(abs(x) for x in r)
            if m < eps:
                break
            r = [x / m for x in r]
            while r and abs(r[-1]) < eps:
                r.pop()
            if not r:
                break
            chain.append(r)

        def var(t):
            signs = [s for s in (_mpf_sign(p, t, eps) for p in chain) if s != 0]
            return sum(1 for x, y in zip(signs, signs[1:]) if x * y < 0)

        stack = [(a0, b0, var(a0) - var(b0))]
        brackets = []
        while stack:
            a, b, n = stack.pop()
            if n <= 0:
                continue
            if n == 1 or b - a <= mpmath.mpf(tol.numerator) / tol.denominator:
                brackets.append((a, b, n))
                continue
            m = (a + b) / 2
            if _mpf_sign(c, m, eps) == 0:
                m = a + (b - a) * mpmath.mpf("0.53711")
            vm = var(m)
            stack.append((a, m, var(a) - vm))
            stack.append((m, b, vm - var(b)))

        ftol = mpmath.mpf(tol.numerator) / tol.denominator
        out = []
        for a, b, n in sorted(brackets, key=lambda x: x[0]):
            sa = _mpf_sign(c, a, eps)
            while b - a > ftol / 2:
                m = (a + b) / 2
                sm = _mpf_sign(c, m, eps)
                if sm == 0:
                    m2 = a + (b - a) * mpmath.mpf("0.46913")
                    sm = _mpf_sign(c, m2, eps)
                    if sm == 0:
                        break
                    m = m2
                if sm == sa:
                    a = m
                else:
                    b = m
            qa = _mpf_to_fraction(a) - tol / 4
            qb = _mpf_to_fraction(b) + tol / 4
            sign_a = poly.evaluate(Scalar(qa)).sign()
            sign_b = poly.evaluate(Scalar(qb)).sign()
            certified = sign_a is not None and sign_b is not None and sign_a * sign_b < 0
            hint = 1 if certified or n == 1 else n
            out.append(Root(Scalar.from_interval(qa, qb), hint))
        return out


def isolate_roots(p: Polynomial, lo, hi, tol=DEFAULT_ROOT_TOL) -> RootList:
    """Isolate every real root of p inside the open interval (lo, hi).

    Exact rational roots are reported exactly; the rest come back as interval
    scalars of width at most ``tol``.  Raises :class:`DegreeTooHigh` above
    degree 16.
    """
    if p.degree > DEGREE_LIMIT:
        raise DegreeTooHigh(f"degree {p.degree} exceeds the limit {DEGREE_LIMIT}")
    lo_s, hi_s = as_scalar(lo), as_scalar(hi)
    lof, hif = lo_s.mid_fraction(), hi_s.mid_fraction()
    if not lof < hif:
        raise ValueError("isolate_roots requires lo < hi")
    tol = Fraction(tol) if not isinstance(tol, Scalar) else tol.as_fraction()
    if tol <= 0:
        raise ValueError("tol must be positive")
    if p.degree < 1:
        return RootList(())
    if all(s.is_rational for s in p.coeffs):
        roots = _isolate_rational([s.as_fraction() for s in p.coeffs], lof, hif, tol)
    else:
        roots = _isolate_numeric(p, lof, hif, tol)
    return RootList(tuple(roots))
