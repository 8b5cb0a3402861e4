"""Real-root isolation for low-degree polynomials on an interval.

One exact engine works on rational coefficients: closed forms for linear
and quadratic pieces, Yun squarefree split, integer Sturm chains, bisection
over dyadic rationals, and simplest-rational reconstruction, so roots like
1/3 are reported exactly and roots of quadratic factors as exact
a + b*sqrt(m).  Every input reduces to it:

* coefficients in one field Q(sqrt m): p = A + B*sqrt(m) with A, B in Q[t]
  (B = 0 for rationals).  The roots of G = gcd(A, B) are isolated directly,
  those of the cofactor p' = A' + B'*sqrt(m) through its rational norm
  N = A'^2 - m*B'^2 = p' * conj(p'); a root of N is one of p' exactly when
  A'*B' < 0 there (Cohen, *A Course in Computational Algebraic Number
  Theory*, section 4).
* interval or mixed-radicand coefficients: the exact midpoints of their
  enclosures, with widened brackets that carry a sign-change certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeTooHigh
from ._qpoly import (_fderiv, _fdeg, _fdivmod, _fgcd, _fmul, _fsub, _ftrim, _to_int_primitive,
                     _yun_squarefree, fraction_eval, int_horner)
from .polynomials import Polynomial
from .scalars import Scalar, _extract_square, _quad, as_scalar, field_parts

DEGREE_LIMIT = 16
DEFAULT_ROOT_TOL = Fraction(1, 10**20)


@dataclass(frozen=True)
class Root:
    """An exact location or a bracket; ``certified`` is False for a bracket
    (from interval data) over which no sign change could be proven."""

    location: Scalar
    multiplicity_hint: int
    certified: bool = True

    def is_exact(self) -> bool:
        return self.location.is_exact


def _int_sign_at(c: list[int], t: Fraction) -> int:
    """Sign of the integer polynomial at a rational point, exactly."""
    acc = int_horner(c, t.numerator, t.denominator)
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


def _refine_single(f_int: list[int], fq: list[Fraction], a: Fraction, b: Fraction,
                   tol: Fraction):
    """Shrink a one-root bracket; returns ('exact', r) or ('bracket', a, b)."""
    sa = _int_sign_at(f_int, a)
    step = 0
    while b - a > tol:
        if step in (0, 8):  # cheap shots at small-denominator rational roots
            cand = _simplest_in_open(a, b)
            if fraction_eval(fq, cand) == 0:
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
    if fraction_eval(fq, cand) == 0:
        return ("exact", cand)
    return ("bracket", a, b)


def _quadratic_roots(f: list[Fraction], lo: Fraction, hi: Fraction) -> list[Scalar]:
    """Exact roots inside (lo, hi), in increasing order, of a linear factor
    or of a quadratic one with nonzero discriminant.

    Irrational quadratic roots come back as exact elements a + b*sqrt(m) of
    Q(sqrt(disc)), so values of rational polynomials at them stay exact.
    Each root is placed against lo and hi by the sign of f there and the
    side of the vertex a they lie on, without a square root.
    """
    if _fdeg(f) == 1:
        r = -f[0] / f[1]
        return [Scalar(r)] if lo < r < hi else []
    f = f if f[2] > 0 else [-x for x in f]  # now f < 0 just between the roots
    c0, c1, c2 = f
    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        return []
    s, m = _extract_square(disc.numerator * disc.denominator)  # sqrt(p/q) = sqrt(p*q)/q
    a, b = -c1 / (2 * c2), Fraction(s, disc.denominator) / (2 * c2)
    f_lo, f_hi = fraction_eval(f, lo), fraction_eval(f, hi)
    inside = (f_lo > 0 and lo < a and (f_hi < 0 or a < hi),   # lo < a - b*sqrt(m) < hi
              (f_lo < 0 or lo < a) and f_hi > 0 and a < hi)   # lo < a + b*sqrt(m) < hi
    return [_quad(a, y, m) for y, ok in zip((-b, b), inside) if ok]


def _isolate_rational(coeffs: list[Fraction], lo: Fraction, hi: Fraction,
                      tol: Fraction) -> list[Root]:
    """Roots inside (lo, hi), sorted by the lower end of their brackets.

    Roots at lo and hi are divided away first.  What is left of degree 1,
    or of degree 2 with a nonzero discriminant, is squarefree and goes
    straight to the closed form ``_quadratic_roots``; a quadratic with zero
    discriminant is one double root.  Higher degrees are split by Yun, and
    factors above degree 2 are isolated with integer Sturm chains.
    """
    c = list(coeffs)
    while _fdeg(c) >= 1 and fraction_eval(c, lo) == 0:
        c = _fdivmod(c, [-lo, Fraction(1)])[0]
    while _fdeg(c) >= 1 and fraction_eval(c, hi) == 0:
        c = _fdivmod(c, [-hi, Fraction(1)])[0]
    if _fdeg(c) < 1:
        return []
    if _fdeg(c) == 2 and c[1] * c[1] == 4 * c[0] * c[2]:
        r = -c[1] / (2 * c[2])
        return [Root(Scalar(r), 2)] if lo < r < hi else []
    if _fdeg(c) <= 2:
        return [Root(r, 1) for r in _quadratic_roots(c, lo, hi)]

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
                if fraction_eval(pending, m) == 0:
                    exact_hit = m
                    break
                vm = _variations(chain, m)
                stack.append((a, m, _variations(chain, a) - vm))
                stack.append((m, b, vm - _variations(chain, b)))
            if exact_hit is not None:
                found.append(Root(Scalar(exact_hit), mult))
                pending = _fdivmod(pending, [-exact_hit, Fraction(1)])[0]
                continue
            for a, b in brackets:
                got = _refine_single(f_int, pending, a, b, tol)
                if got[0] == "exact":
                    found.append(Root(Scalar(got[1]), mult))
                else:
                    found.append(Root(Scalar.from_interval(got[1], got[2]), mult))
            break
    found.sort(key=lambda r: r.location.bounds()[0])
    return found


def _sign_at_root(s: list[Fraction], n: list[Fraction], x: Scalar) -> int:
    """Exact sign of s at the root of n that x locates; s must not vanish there.

    A bracket is halved on the squarefree part of n until the centred form
    |s(t) - s(c)| <= max|s'| * |t - c| proves the sign of s over it.
    """
    if x.is_exact:
        return Polynomial(s)(x).sign()
    lo, hi = x.bounds()
    w = _to_int_primitive(_fdivmod(n, _fgcd(n, _fderiv(n)))[0])  # a sign change at every root
    slope = [abs(c) for c in _fderiv(s)]
    s_lo = _int_sign_at(w, lo)
    while True:
        c = (lo + hi) / 2
        v = fraction_eval(s, c)
        if abs(v) > fraction_eval(slope, max(abs(lo), abs(hi))) * (hi - lo) / 2:
            return 1 if v > 0 else -1
        if _int_sign_at(w, c) == s_lo:
            lo = c
        else:
            hi = c


def _isolate_field(a: list[Fraction], b: list[Fraction], m: int, lo: Fraction, hi: Fraction,
                   tol: Fraction) -> list[Root]:
    """Roots of p = a + b*sqrt(m) (a, b in Q[t]) via the rational engine."""
    if not b:
        return _isolate_rational(a, lo, hi, tol)
    g = _fgcd(a, b)
    a, b = _fdivmod(a, g)[0], _fdivmod(b, g)[0]
    found = _isolate_rational(g, lo, hi, tol)
    # the norm (a + b*sqrt(m)) * (a - b*sqrt(m)); a and b share no root now, so
    # each root of it belongs to exactly one factor, to the first where a*b < 0
    norm = _fsub(_fmul(a, a), [m * x for x in _fmul(b, b)])
    ab = _fmul(a, b)
    found += [r for r in _isolate_rational(norm, lo, hi, tol)
              if _sign_at_root(ab, norm, r.location) < 0]
    out: list[Root] = []
    for r in sorted(found, key=lambda r: r.location.bounds()[0]):
        if out and out[-1].location.lt_definite(r.location) is not True:  # in g and the cofactor
            prev = out.pop()
            r = Root(prev.location if prev.is_exact() else r.location,
                     prev.multiplicity_hint + r.multiplicity_hint)
        out.append(r)
    return out


def _isolate_midpoints(p: Polynomial, lo_s: Scalar, hi_s: Scalar, lo: Fraction, hi: Fraction,
                       tol: Fraction) -> list[Root]:
    """Brackets for interval or mixed-radicand coefficients, from the
    polynomial q of exact enclosure midpoints.  Where p's enclosure at an end
    contains zero, a line is subtracted from q so that it vanishes there and
    the boundary root deflates.  A bracket widened by tol/4 is certified when
    p provably changes sign over it.  An even-multiplicity root of p can
    leave q just clear of zero, so an extremum of q that turns away from zero
    (q q'' > 0 there), over whose bracket p's enclosure still contains zero,
    is reported as an uncertified bracket with multiplicity hint 2."""
    q = [sum(c.bounds()) / 2 for c in p.coeffs]
    v_lo = fraction_eval(q, lo) if p(lo_s).contains_zero() else 0
    v_hi = fraction_eval(q, hi) if p(hi_s).contains_zero() else 0
    slope = (v_hi - v_lo) / (hi - lo)
    q = _fsub(q, [v_lo - slope * lo, slope])
    out = []
    for r in _isolate_rational(q, lo, hi, tol):
        qa, qb = r.location.bounds()
        qa, qb = qa - tol / 4, qb + tol / 4
        sa, sb = p(Scalar(qa)).sign(), p(Scalar(qb)).sign()
        certified = sa is not None and sb is not None and sa * sb < 0
        out.append(Root(Scalar.from_interval(qa, qb), r.multiplicity_hint, certified))
    dq = _fderiv(q)
    d2q = _fderiv(dq)
    for r in _isolate_rational(dq, lo, hi, tol):
        qa, qb = r.location.bounds()
        c = (qa + qb) / 2
        if fraction_eval(q, c) * fraction_eval(d2q, c) > 0:
            qa, qb = qa - tol / 4, qb + tol / 4
            if p(Scalar.from_interval(qa, qb)).contains_zero():
                out.append(Root(Scalar.from_interval(qa, qb), 2, False))
    out.sort(key=lambda r: r.location.bounds()[0])
    return out


def _positive_fraction(value, name: str) -> Fraction:
    """A tolerance as an exact rational (a float is read exactly); must be > 0."""
    value = as_scalar(value).as_fraction()
    if value <= 0:
        raise ValueError(f"{name} must be positive")
    return value


def isolate_roots(p: Polynomial, lo, hi, tol=DEFAULT_ROOT_TOL) -> tuple[Root, ...]:
    """Isolate every real root of p inside the open interval (lo, hi).

    For exact coefficients (rationals, or a + b*sqrt(m) over one m) every
    root is found: rational roots and roots of quadratic factors come back
    exactly, the rest as interval scalars of width at most ``tol``, each
    certain to hold one root.  Interval or mixed-radicand coefficients give
    brackets about ``tol/4`` wider, flagged ``certified`` only where p
    provably changes sign.  Raises :class:`DegreeTooHigh` above degree 16.
    """
    if p.degree > DEGREE_LIMIT:
        raise DegreeTooHigh(f"degree {p.degree} exceeds the limit {DEGREE_LIMIT}")
    lo_s, hi_s = as_scalar(lo), as_scalar(hi)
    lof, hif = lo_s.mid_fraction(), hi_s.mid_fraction()
    if not lof < hif:
        raise ValueError("isolate_roots requires lo < hi")
    tol = _positive_fraction(tol, "tol")
    if p.degree < 1:
        return ()
    parts = field_parts(p.coeffs)
    if parts is None:
        return tuple(_isolate_midpoints(p, lo_s, hi_s, lof, hif, tol))
    m, ab = parts
    a, b = (_ftrim(list(c)) for c in zip(*ab))
    return tuple(_isolate_field(a, b, m, lof, hif, tol))
