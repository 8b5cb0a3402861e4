"""Real-root isolation for low-degree polynomials on an interval.

One exact engine works on rational coefficients, in integers: the input is
made a primitive polynomial of Z[t] once, roots at the window ends are
divided out by synthetic division, and linear and quadratic pieces get
closed forms.  Higher degrees are split by Yun over Z[t] and isolated by
bisection, each cell counted by Descartes' rule of signs alone: no sign
variation leaves no root, one leaves one (Collins and Akritas, SYMSAC
1976).  A bracket A/d < t < B/d is refined on the dyadic grid of
bisection, in integers: eight halvings by doubling A, B and d, then Newton
steps that each double the number of halvings done, every one settled by
the signs of f at grid points (Abbott, "Quadratic interval refinement for
real roots", ACM Comm. Computer Algebra 48, 2014).  It ends in the cell
that bisection ends in.  A rational root is recognised by a
continued-fraction walk for the simplest rational in a cell.  So roots like
1/3 are reported exactly, irrational roots of Yun factors of degree <= 2 as
exact a + b*sqrt(m), and the rest (a quadratic irrational inside a
squarefree factor of degree >= 3 too) as brackets of width at most the
tolerance, each holding one root and keeping its exact cell on the
``Root``.  Every input reduces to it:

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

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import isqrt

from .errors import DegreeTooHigh
from ._qpoly import (_fderiv, _fdeg, _fmul, _fsub, _ftrim, _idiv, _igcd, _ints, _primitive,
                     _yun_squarefree, int_horner, sign_variations, zm_horner)
from .polynomials import Polynomial
from .scalars import (Scalar, _common_field, _extract_square, _quad, _quad_sign, as_scalar,
                      field_parts)

DEGREE_LIMIT = 16
DEFAULT_ROOT_TOL = Fraction(1, 10**20)


@dataclass(frozen=True)
class Root:
    """An exact location or a bracket; ``certified`` is False for a bracket
    (from interval data) over which no sign change could be proven.  A
    bracket of the exact engine keeps ``bracket`` = (f, A, B, d): the
    squarefree integer factor f that changes sign at the root, its one root
    in (A/d, B/d), inside ``location``'s enclosure; None for an exact root
    and for a bracket from interval data."""

    location: Scalar
    multiplicity_hint: int
    certified: bool = True
    bracket: tuple | None = field(default=None, compare=False)

    def is_exact(self) -> bool:
        return self.location.is_exact


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _simplest_in_open(a: Fraction, b: Fraction) -> Fraction:
    """Rational with the smallest denominator strictly inside (a, b)."""
    if not a < b:
        raise ValueError("empty interval")
    return Fraction(*_simplest_between(a.numerator * b.denominator, b.numerator * a.denominator,
                                       a.denominator * b.denominator))


def _simplest_between(A: int, B: int, d: int) -> tuple[int, int]:
    """(p, q) for the simplest rational p/q strictly inside (A/d, B/d), A < B, d > 0."""
    if A < 0 < B:
        return 0, 1
    if B <= 0:
        p, q = _simplest(-B, d, -A, d)
        return -p, q
    return _simplest(A, d, B, d)


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


def _refine_single(f: tuple[int, ...], A: int, B: int, d: int, tol: Fraction, mult: int) -> Root:
    """The one root of the squarefree f inside (A/d, B/d), f nonzero at both
    ends: exact when it is rational and found, else the cell of width <= tol
    that bisection of the bracket ends in, with (f, A, B, d) kept on the Root.

    Bisection would halve the bracket K times, K fixed by tol; the cells of
    level k are those of width (B - A)/(d 2**k).  This halves to level
    min(K, 8).  From there each Newton step on f goes from level k to level
    min(K, 2k - 2): f and f' at the centre of the cell, one integer division
    for the grid point of that level below the Newton estimate, and the
    signs at the centre, at it and at the next grid point; halving closes
    what they leave open.  A grid point where f vanishes is returned
    exactly, so a root is exact on the same grids as in bisection, and the
    simplest rational is tried on the same cells: the first bracket, the
    one of level 8 (when K > 8) and the last.
    """
    n, level = B - A, 0  # a cell of the current level is n/d wide
    K = (-(-n * tol.denominator // (tol.numerator * d)) - 1).bit_length()  # halvings to tol
    sa, df = _sign(int_horner(f, A, d)), _fderiv(f)
    while level < K:
        if level in (0, 8) and (hit := _rational_root(f, A, B, d)) is not None:
            return Root(Scalar(hit), mult)
        s = min(K, 2 * level - 2 if level else 8) - level
        A, d, lo, hi = A << s, d << s, 0, 1 << s  # grid points A + j*n over d, lo <= j <= hi
        probes, c = [], -1  # the points to test first; f is v at c
        if level:  # Newton from the centre c, to the grid point j below the estimate
            c = 1 << (s - 1)
            v, g = int_horner(f, A + c * n, d), int_horner(df, A + c * n, d)
            j = c + (-v) // (g * n) if g else c
            probes = [c, j, j + 1]
        while hi - lo > 1:
            t = probes.pop(0) if probes else (lo + hi) // 2
            if lo < t < hi:
                st = _sign(v if t == c else int_horner(f, A + t * n, d))
                if st == 0:
                    return Root(Scalar(Fraction(A + t * n, d)), mult)
                lo, hi = (t, hi) if st == sa else (lo, t)
        A, B, level = A + lo * n, A + hi * n, level + s
    if (hit := _rational_root(f, A, B, d)) is not None:
        return Root(Scalar(hit), mult)
    return Root(Scalar.from_interval(Fraction(A, d), Fraction(B, d)), mult, bracket=(f, A, B, d))


def _rational_root(f: tuple[int, ...], A: int, B: int, d: int) -> Fraction | None:
    """The simplest rational inside (A/d, B/d) when f vanishes there."""
    p, q = _simplest_between(A, B, d)
    return Fraction(p, q) if int_horner(f, p, q) == 0 else None


def _quadratic_roots(f: list[int], lead: Fraction, lo: Fraction, hi: Fraction,
                     count: bool = False) -> list[Scalar | None]:
    """Exact roots inside (lo, hi), in increasing order, of a linear factor
    or of a quadratic one with nonzero discriminant; with ``count``, a None
    for each, and no square root is formed.

    Irrational quadratic roots come back as exact elements a + b*sqrt(m) of
    Q(sqrt(disc)), so values of rational polynomials at them stay exact; disc
    is the discriminant of f scaled to the leading coefficient lead, whose
    square factors name m.  Each root is placed against lo and hi by the sign
    of f there and the side of the vertex a they lie on, in integers and
    before the discriminant is formed, so its square factors are extracted
    only when a root lies inside.
    """
    if _fdeg(f) == 1:
        r = Fraction(-f[0], f[1])
        return [None if count else Scalar(r)] if lo < r < hi else []
    f = f if f[2] > 0 else [-x for x in f]  # now f < 0 just between the roots
    c0, c1, c2 = f
    (p, q), (u, v) = (lo.numerator, lo.denominator), (hi.numerator, hi.denominator)
    f_lo, f_hi = int_horner(f, p, q), int_horner(f, u, v)
    after_lo, before_hi = 2 * c2 * p < -c1 * q, -c1 * v < 2 * c2 * u  # lo < a, a < hi
    inside = (f_lo > 0 and after_lo and (f_hi < 0 or before_hi),   # lo < a - b*sqrt(m) < hi
              (f_lo < 0 or after_lo) and f_hi > 0 and before_hi)   # lo < a + b*sqrt(m) < hi
    if not any(inside) or c1 * c1 < 4 * c0 * c2:
        return []
    if count:
        return [None] * sum(inside)
    disc = (c1 * c1 - 4 * c0 * c2) * Fraction(lead, c2) ** 2
    s, m = _extract_square(disc.numerator * disc.denominator)  # sqrt(p/q) = sqrt(p*q)/q
    a, b = Fraction(-c1, 2 * c2), Fraction(s, disc.denominator) / (2 * abs(lead))
    return [_quad(a, y, m) for y, ok in zip((-b, b), inside) if ok]


def _isolate_rational(coeffs: list[int], lo: Fraction, hi: Fraction, tol: Fraction,
                      lead: Fraction, count: bool = False) -> list[Root | None]:
    """Roots inside (lo, hi) of the integer coefficients scaled so that the
    last one is lead, sorted by the lower end of their brackets.  With
    ``count`` only their number is asked: a root of a closed form or of an
    isolating cell is a None, neither placed (``_quadratic_roots``) nor
    refined (``_refine_single``), and the list is not sorted.

    The work is in Z[t], on the primitive multiple of the input.
    Roots at lo and hi are divided away first.  What is left of degree 1,
    or of degree 2 with a nonzero discriminant, is squarefree and goes
    straight to the closed form ``_quadratic_roots`` with the input's lead;
    a quadratic with zero discriminant is one double root.  Higher degrees
    first count the sign variations V of Descartes' rule on the window
    (``_qpoly.sign_variations``): V = 0 leaves no root, and V = 1 with no
    factor in Yun's split but the input itself leaves one simple root, whose
    bracket is the whole window.  Else Yun's split goes on, and each factor
    above degree 2 is bisected, each cell settled by its own V: 0 drops it,
    1 makes it a bracket, more splits it at its midpoint, which ends since
    the factors are squarefree.  A rational root that the bisection hits at
    a midpoint is divided out, and a cofactor of degree 2 goes to the closed
    form, with its factor's lead.
    """
    c = _primitive(coeffs)
    for p, q in ((lo.numerator, lo.denominator), (hi.numerator, hi.denominator)):
        while _fdeg(c) >= 1 and int_horner(c, p, q) == 0:  # a root at an end
            c = _idiv(c, [-p, q])
    if _fdeg(c) < 1:
        return []
    if _fdeg(c) == 2 and c[1] * c[1] == 4 * c[0] * c[2]:
        r = Fraction(-c[1], 2 * c[2])
        return [Root(Scalar(r), 2)] if lo < r < hi else []
    if _fdeg(c) <= 2:
        found = _quadratic_roots(c, lead, lo, hi, count)
        return found if count else [Root(r, 1) for r in found]

    L, H, d = _ints(lo, hi)
    v = sign_variations(c, L, H, d)
    if v == 0:
        return []
    split = _yun_squarefree(c)
    if v == 1 and split[0][0] is c:  # c squarefree: the one root is simple
        return [None] if count else [_refine_single(tuple(c), L, H, d, tol, 1)]
    found: list[Root | None] = []
    for f, mult in split:
        scale = lead if f is c else 1  # Yun's split factors are monic over Q: 1 names their fields
        while _fdeg(f) > 2:
            exact_hit, brackets, stack = None, [], [(L, H, d)]  # bisection doubles A, B and e
            while stack:
                A, B, e = stack.pop()
                v = sign_variations(f, A, B, e)
                if v == 1:
                    brackets.append((A, B, e))
                if v < 2:
                    continue
                M = A + B
                if int_horner(f, M, 2 * e) == 0:
                    exact_hit = Fraction(M, 2 * e)
                    break
                stack.append((2 * A, M, 2 * e))
                stack.append((M, 2 * B, 2 * e))
            if exact_hit is None:
                f = tuple(f)
                found.extend(None if count else _refine_single(f, A, B, e, tol, mult)
                             for A, B, e in brackets)
                break
            found.append(Root(Scalar(exact_hit), mult))
            f = _idiv(f, [-exact_hit.numerator, exact_hit.denominator])
        else:  # a factor of degree <= 2, or the cofactor an exact hit leaves: closed forms
            found.extend(r if count else Root(r, mult)
                         for r in _quadratic_roots(f, scale, lo, hi, count))
    if not count:
        found.sort(key=_lower_end)
    return found


def _lower_end(r: Root) -> Fraction:
    """The lower end of r's exact bracket, else of its enclosure."""
    return Fraction(r.bracket[1], r.bracket[3]) if r.bracket else r.location.bounds()[0]


def _sign_at_root(s: list[int], r: Root) -> int:
    """Exact sign of s at the root r; s must not vanish there.

    An exact bracket (w, L, H, d) is halved on w until the centred form
    |s(t) - s(c)| <= max|s'| * |t - c| proves the sign of s over it.
    """
    if r.bracket is None:
        return Polynomial(s)(r.location).sign()
    w, L, H, d = r.bracket
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


def _isolate_field(A: list[int], B: list[int], D: int, m: int, lo: Fraction, hi: Fraction,
                   tol: Fraction, ends=(None, None)) -> list[Root]:
    """Roots of p = (A + B*sqrt(m))/D (A, B in Z[t], trimmed) via the rational
    engine.  The scale of its input names the field of a closed-form root
    (see ``_quadratic_roots``), so the engine gets A at the scale 1/D, or the
    monic gcd of A and B, and the norm of A/D and B/D divided by it.

    ``ends`` holds the ``_irrational_end`` of each window end that lo or hi
    rounds, else None: the engine works on the rational window
    (``_window``), and the roots outside the exact one are dropped
    (``_clip``)."""
    if not B:
        return _clip(_isolate_rational(A, *_window(A, lo, hi, ends), tol, Fraction(A[-1], D)),
                     ends) if A else []
    g = _igcd(A, B)
    A, B = _idiv(A, g), _idiv(B, g)
    found = _isolate_rational(g, *_window(g, lo, hi, ends), tol, 1)
    # the norm (a + b*sqrt(m)) * (a - b*sqrt(m)); a and b share no root now, so
    # each root of it belongs to exactly one factor, to the first where a*b < 0
    norm = _fsub(_fmul(A, A), [m * x for x in _fmul(B, B)])
    lead, ab = Fraction(g[-1] ** 2 * norm[-1], D * D), _fmul(A, B)
    found += [r for r in _isolate_rational(norm, *_window(norm, lo, hi, ends), tol, lead)
              if _sign_at_root(ab, r) < 0]
    out: list[Root] = []
    for r in sorted(_clip(found, ends), key=_lower_end):
        if out and out[-1].location.lt_definite(r.location) is not True:  # in g and the cofactor
            prev = out.pop()
            r = replace(prev if prev.is_exact() else r,
                        multiplicity_hint=prev.multiplicity_hint + r.multiplicity_hint)
        out.append(r)
    return out


def _irrational_end(s: Scalar) -> tuple | None:
    """(a, b, k, l, u) for a window end s = a + b*sqrt(k) (a plain value or a
    _Dual's), with rationals l < s < u, u - l = 2**-64/w over the common
    denominator w of a and b (by ``isqrt``); None for any other end."""
    if s._sqrt is None:
        return None
    a, b, k = s._sqrt
    p, q, w = _ints(a, b)
    t = isqrt(q * q * k << 128)  # 2**64 * |q| * sqrt(k) lies in (t, t + 1)
    lo, den = (p << 64) + (t if q > 0 else -t - 1), w << 64
    return a, b, k, Fraction(lo, den), Fraction(lo + 1, den)


def _sign_against(x: Fraction, end: tuple) -> int:
    """The sign of x - (a + b*sqrt(k)) for an ``_irrational_end``, exactly:
    by its rational bounds, else in Q(sqrt k)."""
    a, b, k, l, u = end
    if x >= u or x <= l:
        return 1 if x >= u else -1
    return _quad_sign(x - a, -b, k)


def _window(c: list[int], lo: Fraction, hi: Fraction, ends) -> tuple[Fraction, Fraction]:
    """The rational window on which the engine isolates the roots of c for
    the exact window of ``ends`` (see ``_isolate_field``): lo and hi, which
    set the bisection grid, except that an end which rounds inward (lo above
    its exact end e, hi below) moves out to e's rational bound on the other
    side when c has a root in the sliver between the two, or at either of
    its ends.  The engine's own count settles that (``_isolate_rational``
    with ``count``); a root of c inside the exact window is then inside this
    one."""
    window = [lo, hi]
    for i, (x, end) in enumerate(zip(window, ends)):
        side = 1 - 2 * i  # lo rounds inward when lo > e, hi when hi < e
        if end is None or _sign_against(x, end) != side:
            continue
        y = end[3 + i]  # l below e for lo, u above e for hi
        u, v = (y, x) if side > 0 else (x, y)
        if (any(int_horner(c, t.numerator, t.denominator) == 0 for t in (u, v))
                or _isolate_rational(c, u, v, DEFAULT_ROOT_TOL, 1, count=True)):
            window[i] = y
    return window[0], window[1]


def _clip(found: list[Root], ends) -> list[Root]:
    """The roots of found strictly inside the exact window ends (see ``_inside``)."""
    for i, end in enumerate(ends):
        if end is not None:
            found = [r for r in (_inside(r, end, 1 - 2 * i) for r in found) if r is not None]
    return found


def _inside(r: Root, end: tuple, side: int) -> Root | None:
    """r when its root tau lies on the inner side of the ``_irrational_end``
    e (above it for side 1, below for side -1), else None.

    An exact root is compared exactly, a bracket (f, A, B, d) by its rational
    cell; a cell across e by the exact sign of f at e against that at A/d,
    and it is halved on f, as bisection would, until it lies on tau's side
    of e."""
    x = r.location
    if r.bracket is None:
        s = _sign_against(x._frac, end) if x._frac is not None else _exact_sign(x, *end[:3])
        return r if s == side else None
    f, A, B, d = r.bracket

    def past(n: int, d: int) -> int:  # the sign of side*(n/d - e)
        return side * _sign_against(Fraction(n, d), end)

    if past(B if side > 0 else A, d) <= 0:  # the cell on the outer side of e
        return None
    near = A if side > 0 else B
    if past(near, d) >= 0:
        return r
    p, q, w = _ints(*end[:2])  # e = (p + q*sqrt(k))/w, f(e) * w**deg = X + Y*sqrt(k)
    fa = _sign(int_horner(f, A, d))
    if side * fa * _quad_sign(*zm_horner(list(f), [0] * len(f), p, q, w, end[2]), end[2]) <= 0:
        return None  # f(e) = 0 (tau is e), or tau between e and the outer end of the cell
    while past(near, d) < 0:
        M = A + B
        fm = _sign(int_horner(f, M, 2 * d))
        if fm == 0:
            return Root(Scalar(Fraction(M, 2 * d)), r.multiplicity_hint)
        A, B, d = (M, 2 * B, 2 * d) if fm == fa else (2 * A, M, 2 * d)
        near = A if side > 0 else B
    return Root(Scalar.from_interval(Fraction(A, d), Fraction(B, d)), r.multiplicity_hint,
                bracket=(f, A, B, d))


def _exact_sign(x: Scalar, a: Fraction, b: Fraction, k: int) -> int:
    """The sign of x - (a + b*sqrt(k)) for x = c + g*sqrt(n) and b != 0,
    exactly: in one field when x shares it (``_common_field``), else, for
    n*k not a square, from the signs of P = c - a + g*sqrt(n) and
    Q = b*sqrt(k) and of P**2 - Q**2 in Q(sqrt n), which is never 0."""
    same = _common_field(x, _quad(a, b, k))
    if same is not None:
        a1, b1, a2, b2, n = same
        return _quad_sign(a1 - a2, b1 - b2, n)
    c, g, n = x._sqrt
    u, sq = c - a, _sign(b)
    sp = _quad_sign(u, g, n)
    if sp != sq:
        return 1 if sp > sq else -1
    return sp * _quad_sign(u * u + g * g * n - b * b * k, 2 * u * g, n)


def _isolate_midpoints(p: Polynomial, lo_s: Scalar, hi_s: Scalar, lo: Fraction, hi: Fraction,
                       ends, tol: Fraction) -> list[Root]:
    """Brackets for interval or mixed-radicand coefficients, from the
    polynomial q of exact enclosure midpoints, read once as integers Q over
    one denominator.  Where p's enclosure at an end contains zero, a line is
    subtracted from q so that it vanishes there and the boundary root
    deflates.  A bracket widened by tol/4 is certified when p provably
    changes sign over it.  An even-multiplicity root of p can leave q just
    clear of zero, so an extremum of q that turns away from zero (q q'' > 0
    there), over whose bracket p's enclosure still contains zero, is
    reported as an uncertified bracket with multiplicity hint 2.  A window
    end a + b*sqrt(m) is placed exactly, as for exact data: the roots of q
    and q' are isolated on ``_window`` and kept by ``_clip`` before their
    brackets are widened."""
    *Q, w = _ints(*(sum(c.bounds()) / 2 for c in p.coeffs))

    def at(t: Fraction) -> Fraction:  # Q(t), exactly
        return Fraction(int_horner(Q, t.numerator, t.denominator), t.denominator ** (len(Q) - 1))

    v_lo, v_hi = (at(t) if p(s).contains_zero() else 0 for t, s in ((lo, lo_s), (hi, hi_s)))
    slope = (v_hi - v_lo) / (hi - lo)
    a, b, z = _ints(v_lo - slope * lo, slope)  # the line (a + b*t)/z through those values of Q
    Q = _ftrim([z * Q[0] - a, z * Q[1] - b] + [z * c for c in Q[2:]])  # q is Q/(w*z) from here on
    if _fdeg(Q) < 1:
        return []
    out = []
    for r in _clip(_isolate_rational(Q, *_window(Q, lo, hi, ends), tol, Fraction(Q[-1], w * z)),
                   ends):
        qa, qb = r.location.bounds()
        qa, qb = qa - tol / 4, qb + tol / 4
        sa, sb = p(Scalar(qa)).sign(), p(Scalar(qb)).sign()
        certified = sa is not None and sb is not None and sa * sb < 0
        out.append(Root(Scalar.from_interval(qa, qb), r.multiplicity_hint, certified))
    dQ = _fderiv(Q)
    d2Q = _fderiv(dQ)
    for r in _clip(_isolate_rational(dQ, *_window(dQ, lo, hi, ends), tol, Fraction(dQ[-1], w * z)),
                   ends):
        qa, qb = r.location.bounds()
        c = (qa + qb) / 2
        if at(c) * int_horner(d2Q, c.numerator, c.denominator) > 0:
            qa, qb = qa - tol / 4, qb + tol / 4
            if p(Scalar.from_interval(qa, qb)).contains_zero():
                out.append(Root(Scalar.from_interval(qa, qb), 2, False))
    out.sort(key=lambda r: r.location.bounds()[0])
    return out


def _rounded(s: Scalar) -> Fraction:
    """The rational window end that sets the bisection grid for the end s:
    s itself, the exact midpoint of an interval, and for a + b*sqrt(m) (of a
    plain value or of a _Dual's) the midpoint of its enclosure truncated to a
    double, which ``_window`` and ``_clip`` then correct."""
    return Fraction(float(s.interval().mid)) if s._sqrt is not None else s.mid_fraction()


def isolate_roots(p: Polynomial, lo, hi) -> tuple[Root, ...]:
    """Isolate every real root of p inside the open interval (lo, hi).

    For exact coefficients (rationals, or a + b*sqrt(m) over one m) every
    root is found: rational roots and roots of Yun factors of degree <= 2
    come back exactly, the rest as interval scalars of width at most
    ``DEFAULT_ROOT_TOL``, each certain to hold one root (so 3 - sqrt(6), a
    root of t(t^2 - 6t + 3), is a bracket): the cell that bisection of its
    isolating bracket would end in, kept exactly as ``Root.bracket``.  A
    ``Polynomial.of_ints`` is read from its integers, at the scale 1/den, and
    other exact coefficients as integers over their common denominator.
    A window end a + b*sqrt(m) is exact for them too: a root at it or
    beyond it is left out, and one just inside it is found, however close
    (``_window``, ``_clip``); a bracket across it is halved to its root's side.
    Exact ends that round to one double, or past each other, set the grid
    from their outer rational bounds.
    Interval or mixed-radicand coefficients give brackets about a quarter
    of it wider, flagged ``certified`` only where p provably changes sign,
    around the roots of their midpoint polynomial that lie inside such an
    end.
    Raises :class:`DegreeTooHigh` above degree 16.
    """
    if p.degree > DEGREE_LIMIT:
        raise DegreeTooHigh(f"degree {p.degree} exceeds the limit {DEGREE_LIMIT}")
    lo_s, hi_s = as_scalar(lo), as_scalar(hi)
    lof, hif = _rounded(lo_s), _rounded(hi_s)
    ends = (_irrational_end(lo_s), _irrational_end(hi_s))
    if not lof < hif and lo_s.is_exact and hi_s.is_exact and lo_s.lt_definite(hi_s):
        lof, hif = (x if e is None else e[3 + i] for i, (x, e) in enumerate(zip((lof, hif), ends)))
    if not lof < hif:
        raise ValueError("isolate_roots requires lo < hi")
    if p.degree < 1:
        return ()
    if p.ints is not None:  # (A + B*sqrt(m))/den
        A, B, den, m = p.ints
    else:
        parts = field_parts(p.coeffs)
        if parts is None:
            return tuple(_isolate_midpoints(p, lo_s, hi_s, lof, hif, ends, DEFAULT_ROOT_TOL))
        m, ab = parts
        *AB, den = _ints(*(x for pair in ab for x in pair))
        A, B = AB[::2], AB[1::2]
    return tuple(_isolate_field(_ftrim(list(A)), _ftrim(list(B)), den, m, lof, hif, DEFAULT_ROOT_TOL,
                                ends))

