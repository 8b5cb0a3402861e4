"""Real-root isolation for low-degree polynomials on an interval.

One exact engine works on rational coefficients, in integers: the input is
made a primitive polynomial of Z[t] once, roots at the window ends are
divided out by synthetic division, and linear and quadratic pieces get
closed forms.  Higher degrees are split by Yun over Z[t] and isolated with
Sturm chains of primitive pseudo-remainders; a bracket A/d < t < B/d is
bisected by doubling A, B and d, and a rational root is recognised by a
continued-fraction walk for the simplest rational in the bracket.  So roots
like 1/3 are reported exactly, roots of quadratic factors as exact
a + b*sqrt(m), and the rest as brackets of width at most the tolerance,
each holding one root.  Every input reduces to it:

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
from ._qpoly import (_fderiv, _fdeg, _fmul, _fsub, _ftrim, _idiv, _igcd, _ints, _prem, _primitive,
                     _to_int_primitive, _yun_squarefree, fraction_eval, int_horner)
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


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _sturm_chain_int(c: list[int]) -> list[list[int]]:
    """c, c' and the negated remainders, each made primitive; pseudo-remainders
    scaled by a power of |lc| keep every sign of the chain over Q."""
    chain = [_primitive(c), _primitive(_fderiv(c))]
    while _fdeg(chain[-1]) > 0:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-x for x in r]))
    return [p for p in chain if p]


def _variations(chain: list[list[int]], u: int, v: int) -> int:
    """Sign changes along the chain at u/v (v > 0), zeros skipped."""
    count, last = 0, 0
    for p in chain:
        s = _sign(int_horner(p, u, v))
        if s:
            count += last * s < 0
            last = s
    return count


def _simplest_in_open(a: Fraction, b: Fraction) -> Fraction:
    """Rational with the smallest denominator strictly inside (a, b)."""
    if not a < b:
        raise ValueError("empty interval")
    if a < 0 < b:
        return Fraction(0)
    if b <= 0:
        return -_simplest_in_open(-b, -a)
    return Fraction(*_simplest(a.numerator, a.denominator, b.numerator, b.denominator))


def _simplest(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """(p, q) for the simplest rational p/q inside (an/ad, bn/bd), 0 <= an/ad:
    the continued fraction of the answer, on integers."""
    q, r = divmod(an, ad)
    if (q + 1) * bd < bn:
        return q + 1, 1
    if r == 0:  # integer left end, the interval inside (q, q + 1)
        k = bd // (bn - q * bd) + 1
        return q * k + 1, k
    p, s = _simplest(bd, bn - q * bd, ad, r)  # inside (1/(b - q), 1/(a - q))
    return q * p + s, p


def _refine_single(f: list[int], A: int, B: int, d: int, tol: Fraction) -> Scalar:
    """The one root of f inside (A/d, B/d): exact when it is rational and
    found, else a bracket of width <= tol.  Bisection doubles A, B and d."""
    sa = _sign(int_horner(f, A, d))
    step = 0
    while (B - A) * tol.denominator > tol.numerator * d:
        if step in (0, 8):  # cheap shots at small-denominator rational roots
            cand = _simplest_in_open(Fraction(A, d), Fraction(B, d))
            if int_horner(f, cand.numerator, cand.denominator) == 0:
                return Scalar(cand)
        M, A, B, d = A + B, 2 * A, 2 * B, 2 * d
        sm = _sign(int_horner(f, M, d))
        if sm == 0:
            return Scalar(Fraction(M, d))
        if sm == sa:
            A = M
        else:
            B = M
        step += 1
    cand = _simplest_in_open(Fraction(A, d), Fraction(B, d))
    if int_horner(f, cand.numerator, cand.denominator) == 0:
        return Scalar(cand)
    return Scalar.from_interval(Fraction(A, d), Fraction(B, d))


def _quadratic_roots(f: list[int], lead: Fraction, lo: Fraction, hi: Fraction) -> list[Scalar]:
    """Exact roots inside (lo, hi), in increasing order, of a linear factor
    or of a quadratic one with nonzero discriminant.

    Irrational quadratic roots come back as exact elements a + b*sqrt(m) of
    Q(sqrt(disc)), so values of rational polynomials at them stay exact; disc
    is the discriminant of f scaled to the leading coefficient lead, whose
    square factors name m.  Each root is placed against lo and hi by the sign
    of f there and the side of the vertex a they lie on, without a square root.
    """
    if _fdeg(f) == 1:
        r = Fraction(-f[0], f[1])
        return [Scalar(r)] if lo < r < hi else []
    f = f if f[2] > 0 else [-x for x in f]  # now f < 0 just between the roots
    c0, c1, c2 = f
    if c1 * c1 < 4 * c0 * c2:
        return []
    disc = (c1 * c1 - 4 * c0 * c2) * Fraction(lead, c2) ** 2
    s, m = _extract_square(disc.numerator * disc.denominator)  # sqrt(p/q) = sqrt(p*q)/q
    a, b = Fraction(-c1, 2 * c2), Fraction(s, disc.denominator) / (2 * abs(lead))
    f_lo = int_horner(f, lo.numerator, lo.denominator)
    f_hi = int_horner(f, hi.numerator, hi.denominator)
    inside = (f_lo > 0 and lo < a and (f_hi < 0 or a < hi),   # lo < a - b*sqrt(m) < hi
              (f_lo < 0 or lo < a) and f_hi > 0 and a < hi)   # lo < a + b*sqrt(m) < hi
    return [_quad(a, y, m) for y, ok in zip((-b, b), inside) if ok]


def _isolate_rational(coeffs: list, lo: Fraction, hi: Fraction, tol: Fraction) -> list[Root]:
    """Roots inside (lo, hi) of the rational (Fraction or integer)
    coefficients, sorted by the lower end of their brackets.

    The work is in Z[t], on the primitive integer multiple of the input.
    Roots at lo and hi are divided away first.  What is left of degree 1,
    or of degree 2 with a nonzero discriminant, is squarefree and goes
    straight to the closed form ``_quadratic_roots``; a quadratic with zero
    discriminant is one double root.  Higher degrees are split by Yun, and
    factors above degree 2 are isolated with integer Sturm chains.
    """
    c = _to_int_primitive(coeffs)
    for p, q in ((lo.numerator, lo.denominator), (hi.numerator, hi.denominator)):
        while _fdeg(c) >= 1 and int_horner(c, p, q) == 0:
            c = _idiv(c, [-p, q])
    if _fdeg(c) < 1:
        return []
    if _fdeg(c) == 2 and c[1] * c[1] == 4 * c[0] * c[2]:
        r = Fraction(-c[1], 2 * c[2])
        return [Root(Scalar(r), 2)] if lo < r < hi else []
    if _fdeg(c) <= 2:
        return [Root(r, 1) for r in _quadratic_roots(c, coeffs[-1], lo, hi)]

    found: list[Root] = []
    L, H, d = _ints(lo, hi)
    for f, mult in _yun_squarefree(c):
        if _fdeg(f) <= 2:  # Yun's factors were monic over Q: lead 1 names their fields
            found.extend(Root(r, mult) for r in _quadratic_roots(f, 1, lo, hi))
            continue
        while _fdeg(f) >= 1:
            exact_hit = None
            chain = _sturm_chain_int(f)
            # (A, B, e, variations at A/e, at B/e); bisection doubles A, B and e
            stack = [(L, H, d, _variations(chain, L, d), _variations(chain, H, d))]
            brackets = []
            while stack:
                A, B, e, va, vb = stack.pop()
                if va - vb <= 0:
                    continue
                if va - vb == 1:
                    brackets.append((A, B, e))
                    continue
                M = A + B
                if int_horner(f, M, 2 * e) == 0:
                    exact_hit = Fraction(M, 2 * e)
                    break
                vm = _variations(chain, M, 2 * e)
                stack.append((2 * A, M, 2 * e, va, vm))
                stack.append((M, 2 * B, 2 * e, vm, vb))
            if exact_hit is None:
                found.extend(Root(_refine_single(f, A, B, e, tol), mult) for A, B, e in brackets)
                break
            found.append(Root(Scalar(exact_hit), mult))
            f = _idiv(f, [-exact_hit.numerator, exact_hit.denominator])
    found.sort(key=lambda r: r.location.bounds()[0])
    return found


def _sign_at_root(s: list[int], n: list[int], x: Scalar) -> int:
    """Exact sign of s at the root of n that x locates; s must not vanish there.

    A bracket is halved on the squarefree part of n until the centred form
    |s(t) - s(c)| <= max|s'| * |t - c| proves the sign of s over it.
    """
    if x.is_exact:
        return Polynomial(s)(x).sign()
    L, H, d = _ints(*x.bounds())
    w = _idiv(n, _igcd(n, _fderiv(n)))  # a sign change at every root
    slope = [abs(c) for c in _fderiv(s)]
    s_lo = _sign(int_horner(w, L, d))
    while True:
        M = L + H  # the centre, over 2d; the test is multiplied by 2*(2d)**deg(s)
        v = int_horner(s, M, 2 * d)
        if 2 * abs(v) > int_horner(slope, max(abs(L), abs(H)), d) * (H - L) << _fdeg(s):
            return 1 if v > 0 else -1
        if _sign(int_horner(w, M, 2 * d)) == s_lo:
            L, H = M, 2 * H
        else:
            L, H = 2 * L, M
        d *= 2


def _isolate_field(a: list[Fraction], b: list[Fraction], m: int, lo: Fraction, hi: Fraction,
                   tol: Fraction) -> list[Root]:
    """Roots of p = a + b*sqrt(m) (a, b in Q[t]) via the rational engine, on
    the integer multiples A, B of a, b over their common denominator D.  The
    scale of its input names the field of a closed-form root (see
    ``_quadratic_roots``), so the engine gets the monic gcd of a and b, and
    the norm of a and b divided by it."""
    if not b:
        return _isolate_rational(a, lo, hi, tol)
    *AB, D = _ints(*a, *b)
    A, B = AB[:len(a)], AB[len(a):]
    g = _igcd(A, B)
    A, B = _idiv(A, g), _idiv(B, g)
    found = _isolate_rational([Fraction(x, g[-1]) for x in g], lo, hi, tol)
    # the norm (a + b*sqrt(m)) * (a - b*sqrt(m)); a and b share no root now, so
    # each root of it belongs to exactly one factor, to the first where a*b < 0
    norm = _fsub(_fmul(A, A), [m * x for x in _fmul(B, B)])
    scale, ab = Fraction(g[-1] ** 2, D * D), _fmul(A, B)
    found += [r for r in _isolate_rational([x * scale for x in norm], lo, hi, tol)
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
