"""Exact polynomials over Q and over one Q(sqrt m), in integers.

Root isolation works in Z[t], on lists of integers (index i holds the
coefficient of t**i): pseudo-remainders, primitive gcds, exact quotients and
Yun's squarefree split (Cohen, *A Course in Computational Algebraic Number
Theory*, sections 3.1-3.3).  The Peano kernel pass of plain exact data uses
pairs (A, B) of integer lists over one denominator d, meaning (A + B*sqrt(m))/d:
node terms by the binomial expansion, pieces by integer subtraction, and
antiderivatives by integer Horner passes over Z[sqrt m].  A value converted
back is the Scalar that Scalar arithmetic gives, since both are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, lcm

from .scalars import Scalar, _quad, _rat


def _ints(*xs) -> list[int]:
    """The numerators of the rationals xs over their least common denominator, then it."""
    w = lcm(*(x.denominator for x in xs))
    return [x.numerator * (w // x.denominator) for x in xs] + [w]


def int_horner(c: list[int], u: int, v: int) -> int:
    """p(u/v) * v**deg for the integer polynomial p = sum c[i] t**i, in integers."""
    acc, vp = 0, 1
    for a in reversed(c):
        acc = acc * u + a * vp
        vp *= v
    return acc


def fraction_eval(c: list[Fraction], t: Fraction) -> Fraction:
    """p(t) for rational coefficients c: one integer Horner pass over their
    common denominator, and one normalisation of the result."""
    *ints, den = _ints(*c)
    acc = int_horner(ints, t.numerator, t.denominator)
    return Fraction(acc, den * t.denominator ** max(len(c) - 1, 0))


# --------------------------------------------------------------------------
# coefficient lists: Fractions, or integers for Z[t]


def _fdeg(c: list) -> int:
    return len(c) - 1


def _ftrim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _fderiv(c: list) -> list:
    return [c[i] * i for i in range(1, len(c))]


def _fsub(a: list, b: list) -> list:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _ftrim(out)


def _fmul(a: list, b: list) -> list:
    """Product of two coefficient lists (Fractions or integers), untrimmed."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _primitive(c: list[int]) -> list[int]:
    """c divided by the (positive) gcd of its coefficients."""
    g = math.gcd(*c)
    return [v // g for v in c] if g > 1 else c


def _to_int_primitive(c: list[Fraction]) -> list[int]:
    return _primitive(_ints(*c)[:-1])


def _prem(a: list[int], b: list[int]) -> list[int]:
    """(a mod b) times |lc(b)|**k for some k >= 0, in Z[t]: a pseudo-remainder
    with the sign of the remainder over Q."""
    if b[-1] < 0:
        b = [-x for x in b]
    r, lc, n = list(a), b[-1], len(b) - 1
    for k in range(len(a) - 1 - n, -1, -1):
        c = r.pop()
        if c:
            r = [lc * x for x in r]
            for i in range(n):
                r[k + i] -= c * b[i]
    return _ftrim(r)


def _idiv(a: list[int], b: list[int]) -> list[int]:
    """a / b in Z[t] for a primitive b that divides a, so every step is exact
    (Gauss's lemma); b = [-p, q] divides out a root p/q in lowest terms."""
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = a[k + len(b) - 1] // b[-1]
        for i, x in enumerate(b):
            a[k + i] -= c * x
    return q


def _igcd(a: list[int], b: list[int]) -> list[int]:
    """gcd in Z[t] by primitive remainders, primitive with a positive leading coefficient."""
    while b:
        a, b = b, _primitive(_prem(a, b))
    a = _primitive(a)
    return a if a[-1] > 0 else [-x for x in a]


def _yun_squarefree(c: list[int]) -> list[tuple[list[int], int]]:
    """Yun squarefree decomposition in Z[t]: (factor, multiplicity) pairs, each
    factor primitive with a positive leading coefficient, or [(c, 1)] when c
    is squarefree.  Every quotient is exact, since the divisors are primitive."""
    d = _fderiv(c)
    g = _igcd(c, d)
    if _fdeg(g) < 1:
        return [(c, 1)]
    out = []
    w, y = _idiv(c, g), _idiv(d, g)  # w: product of distinct roots
    z = _fsub(y, _fderiv(w))
    i = 1
    while _fdeg(w) > 0:
        g_i = _igcd(w, z)
        if _fdeg(g_i) > 0:
            out.append((g_i, i))
        w, y = _idiv(w, g_i), _idiv(z, g_i)
        z = _fsub(y, _fderiv(w))
        i += 1
    return out


# --------------------------------------------------------------------------
# integer pairs over one Q(sqrt m)


def plain_field(values: list) -> int | None:
    """m when all values are plain exact Scalars (``type(v) is Scalar``: not a
    _Dual) in one Q(sqrt m), 1 when all are rational, else None."""
    if any(type(v) is not Scalar or v._ival is not None for v in values):
        return None
    ms = {v._sqrt[2] for v in values if v._sqrt is not None}
    return None if len(ms) > 1 else max(ms, default=1)


def parts(v: Scalar) -> tuple:
    """(a, b) with the exact v == a + b*sqrt(m)."""
    return v._sqrt[:2] if v._sqrt is not None else (v._frac, 0)


def to_scalar(v) -> Scalar:
    """A triple (a, b, m) (a a Fraction, b a Fraction or 0) as the Scalar
    a + b*sqrt(m); a Scalar as itself."""
    return v if isinstance(v, Scalar) else _quad(*v) if v[1] else _rat(v[0])


def kernel_pieces(terms, r: int, m: int, n_pieces: int):
    """K_r on the pieces (b_i, b_{i+1}], i < n_pieces: (den, [(A_i, B_i)]) with
    piece i == (A_i + B_i*sqrt(m))/den, or (den, None) when the rule is not
    exact on degree r.  ``terms`` holds (x, w, n, j) for each node term
    w*(x - t)**n, x = b_j and x, w exact in Q(sqrt m).  Piece i is
    ((1 - t)**(r+1)/(r+1) - the terms with j > i)/r!, and the order
    condition says that (1 - t)**(r+1)/(r+1) minus all terms is (-1 - t)**(r+1)/(r+1)."""
    ints = []
    for x, w, n, j in terms:
        (p, q, s), (u, v, z) = _ints(*parts(x)), _ints(*parts(w))
        P, Q = [1], [0]  # (s*x)**k == P[k] + Q[k]*sqrt(m)
        for _ in range(n):
            P, Q = P + [P[-1] * p + Q[-1] * q * m], Q + [P[-1] * q + Q[-1] * p]
        c = [comb(n, i) * (-s) ** i for i in range(n + 1)]  # t**i: C(n, i) (-1)**i w x**(n-i)
        ints.append((z * s**n, j,
                     [ci * (u * P[n - i] + v * Q[n - i] * m) for i, ci in enumerate(c)],
                     [ci * (u * Q[n - i] + v * P[n - i]) for i, ci in enumerate(c)]))
    den = lcm(r + 1, *(d for d, *_ in ints))
    binom = [comb(r + 1, i) * (den // (r + 1)) for i in range(r + 2)]
    A, B, out = [(-1) ** i * c for i, c in enumerate(binom)], [0] * (r + 2), []
    for e in range(n_pieces, -1, -1):  # subtract the terms at b_e: piece e - 1
        for d, j, TA, TB in ints:
            if j == e:
                A = [a - den // d * t for a, t in zip(A, TA + [0] * (r + 2 - len(TA)))]
                B = [b - den // d * t for b, t in zip(B, TB + [0] * (r + 2 - len(TB)))]
        out.append((A, B))
    if any(B) or A != [(-1) ** (r + 1) * c for c in binom]:
        return den, None
    return den * math.factorial(r), out[-2::-1]


def antiderivative_values(A: list[int], B: list[int], den: int, m: int, points) -> list:
    """F(s) at each point s, F the antiderivative with F(0) = 0 of
    (A + B*sqrt(m))/den: a triple (a, b, M) meaning a + b*sqrt(M) where s is
    a plain exact Scalar that is rational or in the field of F, else None."""
    L, irrational, out = lcm(*range(1, len(A) + 1)), any(B), []
    FA = [0] + [a * (L // (k + 1)) for k, a in enumerate(A)]
    FB = [0] + [b * (L // (k + 1)) for k, b in enumerate(B)]
    for s in points:
        if (type(s) is not Scalar or s._ival is not None
                or irrational and s._sqrt and s._sqrt[2] != m):
            out.append(None)
            continue
        (p, q, w), M = _ints(*parts(s)), s._sqrt[2] if s._sqrt else m
        if q:  # Horner over Z[sqrt M]: X + Y*sqrt(M) == F(s) * den * L * w**deg
            X = Y = 0
            wp = 1
            for a, b in zip(FA[::-1], FB[::-1]):
                X, Y, wp = X * p + Y * q * M + a * wp, X * q + Y * p + b * wp, wp * w
        else:
            X, Y = int_horner(FA, p, w), int_horner(FB, p, w) if irrational else 0
        d = den * L * w ** len(A)
        out.append((Fraction(X, d), Y and Fraction(Y, d), M))
    return out


def add_abs_diff(total, x, y):
    """total + |x - y| for triples (a, b, m) or Scalars: a triple while all three
    are triples over one radicand, else by Scalar arithmetic on the Scalars
    they stand for, so the value is the one Scalar arithmetic gives throughout."""
    if type(total) is tuple and type(x) is tuple and type(y) is tuple:
        ms = {v[2] for v in (total, x, y) if v[1]}
        if not ms:
            return total[0] + abs(x[0] - y[0]), 0, 1
        if len(ms) == 1:
            m, a, b = ms.pop(), x[0] - y[0], x[1] - y[1]
            if _quad(a, b, m).sign() < 0:
                a, b = -a, -b
            return total[0] + a, total[1] + b, m
    return to_scalar(total) + abs(to_scalar(x) - to_scalar(y))


def integrate_pieces(pieces, g, breakpoints) -> Scalar | None:
    """Sum over the pieces (A, B, den, m) of the integral of piece_i * g over
    [b_i, b_{i+1}]; None unless g's coefficients are plain exact Scalars in Q
    or in the pieces' field."""
    gm, (_, _, den, m) = plain_field(g), pieces[0]
    if gm is None or 1 != m != gm != 1:
        return None
    m, ab = max(m, gm), [parts(c) for c in g]
    *GH, e = _ints(*[a for a, _ in ab], *[b for _, b in ab])
    G, H, a, b = GH[:len(g)], GH[len(g):], Fraction(0), Fraction(0)
    for (A, B, _, _), lo, hi in zip(pieces, breakpoints, breakpoints[1:]):
        PA = [x + m * y for x, y in zip(_fmul(A, G), _fmul(B, H))]
        PB = [x + y for x, y in zip(_fmul(A, H), _fmul(B, G))]
        (a0, b0, _), (a1, b1, _) = antiderivative_values(PA, PB, den * e, m, (lo, hi))
        a, b = a + a1 - a0, b + b1 - b0
    return to_scalar((a, b, m))
