"""Exact polynomials over Q and over one Q(sqrt m), in integers.

Root isolation works in Z[t], on lists of integers (index i holds the
coefficient of t**i): pseudo-remainders, primitive gcds, exact quotients and
Yun's squarefree split (Cohen, *A Course in Computational Algebraic Number
Theory*, sections 3.1-3.3).  The Peano kernel pass of plain exact data uses
pairs (A, B) of integer lists over one denominator d, meaning (A + B*sqrt(m))/d:
node terms by the binomial expansion, pieces by integer subtraction, and
antiderivatives and remainders I(f) - Q(f) by one Horner loop over Z[sqrt m].
With m = 0 the same pairs are dual numbers A + B*eps of Q[eps]/(eps**2): the
kernel pieces of a scan point x + eps (``_forms.form_pieces``), whose L1 sum
(``abs_integral``, ``antiderivative_values``) runs on the same code.  A value
converted back is the Scalar that Scalar arithmetic gives (exact).
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, lcm

from .scalars import Scalar, _Dual, _dual, _quad, _quad_sign, _rat


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
    """(a, b) with the exact v == a + b*sqrt(m); for a rational _Dual, its
    value and derivative (m = 0)."""
    if v._sqrt is not None:
        return v._sqrt[:2]
    return (v._frac, v._d._frac) if type(v) is _Dual else (v._frac, 0)


def to_scalar(v) -> Scalar:
    """A triple (a, b, m) (a a Fraction, b a Fraction or 0) as the Scalar
    a + b*sqrt(m), or the _Dual a + b*eps for m = 0; a Scalar as itself."""
    if isinstance(v, Scalar):
        return v
    a, b, m = v
    return _rat(a) if not b else _quad(a, b, m) if m else _dual(_rat(a), _rat(b))


def kernel_pieces(terms, e: int, r: int, m: int, n_pieces: int):
    """K_r on the pieces (b_i, b_{i+1}], i < n_pieces: (den, [(A_i, B_i)]) with
    piece i == (A_i + B_i*sqrt(m))/den, or (den, None) when the rule is not
    exact on degree r.  ``terms`` holds (p, q, u, v, n, j) for each node term
    w*(x - t)**n, x = (p + q*sqrt(m))/e = b_j and w = (u + v*sqrt(m))/e.  Piece i is
    ((1 - t)**(r+1)/(r+1) - the terms with j > i)/r!, and the order
    condition says that (1 - t)**(r+1)/(r+1) minus all terms is (-1 - t)**(r+1)/(r+1)."""
    ints = []
    for p, q, u, v, n, j in terms:
        P, Q = [1], [0]  # (e*x)**k == P[k] + Q[k]*sqrt(m)
        for _ in range(n):
            P, Q = P + [P[-1] * p + Q[-1] * q * m], Q + [P[-1] * q + Q[-1] * p]
        c = [comb(n, i) * (-e) ** i for i in range(n + 1)]  # t**i: C(n, i) (-1)**i w x**(n-i)
        ints.append((e ** (n + 1), j,
                     [ci * (u * P[n - i] + v * Q[n - i] * m) for i, ci in enumerate(c)],
                     [ci * (u * Q[n - i] + v * P[n - i]) for i, ci in enumerate(c)]))
    den = lcm(r + 1, *(d for d, *_ in ints))
    binom = [comb(r + 1, i) * (den // (r + 1)) for i in range(r + 2)]
    A, B, out = [(-1) ** i * c for i, c in enumerate(binom)], [0] * (r + 2), []
    for k in range(n_pieces, -1, -1):  # subtract the terms at b_k: piece k - 1
        for d, j, TA, TB in ints:
            if j == k:
                A = [a - den // d * t for a, t in zip(A, TA + [0] * (r + 2 - len(TA)))]
                B = [b - den // d * t for b, t in zip(B, TB + [0] * (r + 2 - len(TB)))]
        out.append((A, B))
    if any(B) or A != [(-1) ** (r + 1) * c for c in binom]:
        return den, None
    return den * math.factorial(r), out[-2::-1]


def zm_horner(A: list[int], B: list[int], p: int, q: int, w: int, m: int) -> tuple[int, int]:
    """(X, Y) with X + Y*sqrt(m) == P(s) * w**deg for P = A + B*sqrt(m) (integer
    lists of one length) at s = (p + q*sqrt(m))/w: one Horner pass over Z[sqrt m]."""
    if not q:
        return int_horner(A, p, w), int_horner(B, p, w) if any(B) else 0
    X, Y, wp = 0, 0, 1
    for a, b in zip(A[::-1], B[::-1]):
        X, Y, wp = X * p + Y * q * m + a * wp, X * q + Y * p + b * wp, wp * w
    return X, Y


def antiderivative_values(A: list[int], B: list[int], den: int, m: int, points) -> list:
    """F(s) at each point s, F the antiderivative with F(0) = 0 of
    (A + B*sqrt(m))/den: a triple (a, b, M) meaning a + b*sqrt(M) where s is
    a plain exact Scalar that is rational or in the field of F, or (m = 0) a
    rational _Dual, else None."""
    L, irrational, out = lcm(*range(1, len(A) + 1)), any(B), []
    FA = [0] + [a * (L // (k + 1)) for k, a in enumerate(A)]
    FB = [0] + [b * (L // (k + 1)) for k, b in enumerate(B)]
    for s in points:
        if (s._ival is not None or type(s) is not Scalar and m
                or irrational and s._sqrt and s._sqrt[2] != m):
            out.append(None)
            continue
        (p, q, w), M = _ints(*parts(s)), s._sqrt[2] if s._sqrt else m
        X, Y = zm_horner(FA, FB, p, q, w, M)  # F(s) * den * L * w**deg
        d = den * L * w ** len(A)
        out.append((Fraction(X, d), Y and Fraction(Y, d), M))
    return out


def abs_integral(A: list[int], B, den: int, k: int, cuts: list, m: int) -> tuple:
    """The integral of |p| for the piece p = (A + B*sqrt(k))/den, or
    (A + B*eps)/den for k = 0 (B empty for a rational piece), from the first
    cut to the last, between consecutive cuts of which A keeps its sign: the
    sum of |F(c_(j+1)) - F(c_j)|, F an antiderivative, as (a, b, c, e) for
    (a + b*sqrt(m)) + (c + e*sqrt(m))*eps, in integers over one denominator.
    A cut is a rational or a pair (p, q), p + q*sqrt(m) (m = k for k > 1 and
    B not empty), except that for k = 0 the two ends (breakpoints of a dual
    pass) are p + q*eps.  Each |.| reads the sign of the value part, or of
    the eps part where that is 0, as ``_Dual.__abs__`` does."""
    L = lcm(*range(1, len(A) + 1))
    FA = [0] + [a * (L // (i + 1)) for i, a in enumerate(A)]
    if not B and all(type(c) is not tuple for c in cuts):  # all in Q
        *U, w = _ints(*cuts)
        X = [int_horner(FA, u, w) for u in U]  # F(u/w) * den * L * w**len(A)
        S, D = sum(abs(y - x) for x, y in zip(X, X[1:])), den * L * w ** len(A)
        return Fraction(S, D), 0, 0, 0
    zero, F = [0] * len(FA), []
    FB = [0] + [b * (L // (i + 1)) for i, b in enumerate(B)] if B else zero
    *PQ, w = _ints(*(x for c in cuts for x in (c if type(c) is tuple else (c, 0))))
    for j, (p, q) in enumerate(zip(PQ[::2], PQ[1::2])):
        if k:  # F(p + q*sqrt(m)) over w
            F.append((*zm_horner(FA, FB, p, q, w, m), 0, 0))
        elif not q or j in (0, len(cuts) - 1):  # p + q*eps over w
            X, U = zm_horner(FA, FB, p, q, w, 0)
            F.append((X, 0, U, 0))
        else:
            F.append((*zm_horner(FA, zero, p, q, w, m), *zm_horner(FB, zero, p, q, w, m)))
    total = [0, 0, 0, 0]
    for x, y in zip(F, F[1:]):
        d = [b - a for a, b in zip(x, y)]
        s = _quad_sign(d[0], d[1], m) or _quad_sign(d[2], d[3], m)
        total = [t + s * v for t, v in zip(total, d)]
    D = den * L * w ** len(A)
    return tuple(t and Fraction(t, D) for t in total)


def int_parts(values) -> tuple[list[int], list[int], int]:
    """(G, H, e) with values[i] == (G[i] + H[i]*sqrt(m))/e, all plain exact in Q(sqrt m)."""
    ab = [parts(c) for c in values]
    if not any(b for _, b in ab):  # every b is 0, of denominator 1
        *G, e = _ints(*[a for a, _ in ab])
        return G, [0] * len(ab), e
    *GH, e = _ints(*[a for a, _ in ab], *[b for _, b in ab])
    return GH[:len(ab)], GH[len(ab):], e


def integrate_pieces(pieces, G: list[int], H: list[int], e: int, m: int, breakpoints) -> Scalar:
    """Sum of the integrals of piece_i * (G + H*sqrt(m))/e over [b_i, b_{i+1}]
    for pieces (A, B, den, m'), one den, m' in (1, m): with F_i the antiderivative
    of piece_i * g, the sum of (F_{j-1} - F_j)(b_j) (F_{-1} = F_n = 0)."""
    zero = [0] * len(pieces[0][0])
    ends = [(zero, zero)] + [(A, B) for A, B, _, _ in pieces] + [(zero, zero)]
    a, b = Fraction(0), Fraction(0)
    for (A0, B0), (A1, B1), s in zip(ends, ends[1:], breakpoints):
        dA, dB = [x - y for x, y in zip(A0, A1)], [x - y for x, y in zip(B0, B1)]
        PA = [x + m * y for x, y in zip(_fmul(dA, G), _fmul(dB, H))]
        PB = [x + y for x, y in zip(_fmul(dA, H), _fmul(dB, G))]
        (a1, b1, _), = antiderivative_values(PA, PB, pieces[0][2] * e, m, (s,))
        a, b = a + a1, b + b1
    return to_scalar((a, b, m))


def remainder(value_nodes, deriv_nodes, G: list[int], H: list[int], e: int, m: int) -> Scalar:
    """I(f) - Q(f) for f == (G + H*sqrt(m))/e, nodes and weights plain exact in Q(sqrt m):
    I(f) = sum of 2 f_k/(k + 1) over even k, each f(x_j) or f'(y_j) one ``zm_horner`` pass."""
    L = lcm(*range(1, len(G) + 1, 2))
    a, b = (Fraction(sum(2 * (L // (k + 1)) * c for k, c in enumerate(P) if k % 2 == 0), e * L)
            for P in (G, H))
    for nodes, P, Q in ((value_nodes, G, H), (deriv_nodes, _fderiv(G), _fderiv(H))):
        for x, w in nodes:
            (p, q, s), (u, v, z) = _ints(*parts(x)), _ints(*parts(w))
            X, Y = zm_horner(P, Q, p, q, s, m)  # f(x) * e * s**deg
            d = z * e * s ** max(len(P) - 1, 0)
            a, b = a - Fraction(X * u + Y * v * m, d), b - Fraction(X * v + Y * u, d)
    return to_scalar((a, b, m))
