"""Exact polynomials over Q and over one Q(sqrt m), in integers.

Root isolation works in Z[t], on lists of integers (index i holds the
coefficient of t**i): pseudo-remainders, primitive gcds, exact quotients,
Yun's squarefree split (Cohen, *A Course in Computational Algebraic Number
Theory*, sections 3.1-3.3) and the sign-variation count of Descartes' rule
on a window (``sign_variations``), which clears a window with no root, or
with one simple root, before any gcd or Sturm chain.  ``int_parts`` is the
one reader of plain exact Scalars into integers, and a rule's nodes and
weights are read once (``_rule_ints``).  The Peano kernel pass of plain
exact data uses pairs (A, B) of integer lists over one denominator d,
meaning (A + B*sqrt(m))/d: node terms by the binomial expansion, pieces by
integer subtraction, and antiderivatives by one Horner loop over Z[sqrt m].
A rule's power sums Q(e_k) step each node's power by one product in
Z[sqrt m] per k (``power_sums``); they give the remainders R(e_k) of
``degree_of_exactness`` and I(f) - Q(f) alike.
With m = 0 the same pairs are dual numbers A + B*eps of Q[eps]/(eps**2): the
kernel pieces of a scan point x + eps (``_forms.form_pieces``).  The L1 sum
of a kernel's pieces, over Q, one Q(sqrt m) or Q[eps], is one integer pass
over all of them (``abs_integrals``): every cut of it is rational or in one
Q(sqrt m), so it never leaves integers.  A value converted back is the
Scalar that Scalar arithmetic gives (exact).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from math import comb, lcm

from .scalars import Scalar, _quad, _quad_sign


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


def sign_variations(c: list[int], L: int, H: int, d: int) -> int:
    """The sign variations of g(y) = (d*(1 + y))**n * c((L + H*y)/(d*(1 + y))),
    n = deg c, L < H, d > 0: at least the number of roots of c in (L/d, H/d),
    counted with multiplicity, and of the same parity (Descartes' rule of
    signs; Collins and Akritas, SYMSAC 1976).  g is sum c_i X**i Y**(n-i) at
    X = L + H*y, Y = d + d*y, by one homogeneous Horner pass in Z[y]."""
    g, Y = [c[-1]], [1]  # Y: the coefficients of (d + d*y)**k, k = deg g
    for a in reversed(c[:-1]):
        Y = [d * (u + v) for u, v in zip(Y + [0], [0] + Y)]
        g = [L * u + H * v + a * t for u, v, t in zip(g + [0], [0] + g, Y)]
    signs = [x > 0 for x in g if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


# --------------------------------------------------------------------------
# integer pairs over one Q(sqrt m)


def parts(v: Scalar) -> tuple:
    """(a, b) with the plain exact v == a + b*sqrt(m)."""
    return v._sqrt[:2] if v._sqrt is not None else (v._frac, 0)


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


def _integral(P: list[int], L: int) -> list[int]:
    """L times the antiderivative of P with value 0 at 0; L a multiple of 1, ..., len(P)."""
    return [0] + [c * (L // (k + 1)) for k, c in enumerate(P)]


def abs_integrals(pieces, cuts: list, m: int) -> tuple:
    """The integral of |K| for the kernel pieces (A, B, den, k), one den,
    p = (A + B*sqrt(k))/den, or (A + B*eps)/den for k = 0, each from its
    first cut to its last, between consecutive cuts of which A keeps its
    sign: the sum of |F(c_(j+1)) - F(c_j)| over every piece, F an
    antiderivative of the piece, as (a, b, c, e) for
    (a + b*sqrt(m)) + (c + e*sqrt(m))*eps.  A cut is a pair (p, q) of
    rationals, p + q*sqrt(m), except that for k = 0 the two ends of a piece
    (breakpoints of a dual pass) are p + q*eps.  B is no part of a piece
    with k = 1 or B = 0.  One pass in integers: every cut over one common
    denominator w, every piece padded to one length, one Fraction per part
    at the end.  Each |.| reads the sign of the value part, or of the eps
    part where that is 0, as ``_Dual.__abs__`` does."""
    n = max(len(A) for A, *_ in pieces)
    L, zero = lcm(*range(1, n + 1)), [0] * (n + 1)
    *PQ, w = _ints(*(x for cs in cuts for c in cs for x in c))
    total, pairs = [0, 0, 0, 0], iter(zip(PQ[::2], PQ[1::2]))
    for (A, B, _, k), cs in zip(pieces, cuts):
        P, Q = zip(*islice(pairs, len(cs)))
        FA = _integral(A + [0] * (n - len(A)), L)
        plain = k == 1 or not any(B)
        if plain and not any(Q):  # in Q: F(p/w) * den * L * w**n
            X = [int_horner(FA, p, w) for p in P]
            total[0] += sum(abs(y - x) for x, y in zip(X, X[1:]))
            continue
        FB = zero if plain else _integral(B + [0] * (n - len(B)), L)
        F = []
        for i, (p, q) in enumerate(zip(P, Q)):
            if k:  # F(p + q*sqrt(m)) over w
                F.append((*zm_horner(FA, FB, p, q, w, m), 0, 0))
            elif not q or i in (0, len(cs) - 1):  # p + q*eps over w
                X, U = zm_horner(FA, FB, p, q, w, 0)
                F.append((X, 0, U, 0))
            else:
                F.append((*zm_horner(FA, zero, p, q, w, m), *zm_horner(FB, zero, p, q, w, m)))
        for x, y in zip(F, F[1:]):
            d = [b - a for a, b in zip(x, y)]
            s = _quad_sign(d[0], d[1], m) or _quad_sign(d[2], d[3], m)
            total = [t + s * v for t, v in zip(total, d)]
    D = pieces[0][2] * L * w ** n
    return tuple(t and Fraction(t, D) for t in total)


def int_parts(values) -> tuple[list[int], list[int], int, int] | None:
    """(G, H, e, m) with values[i] == (G[i] + H[i]*sqrt(m))/e when every value
    is plain exact (``type(v) is Scalar``, not an interval: no _Dual) and all
    lie in one Q(sqrt m), m == 1 when all are rational; else None."""
    ms = {v._sqrt[2] for v in values if v._sqrt is not None}
    if len(ms) > 1 or any(type(v) is not Scalar or v._ival is not None for v in values):
        return None
    ab = [parts(v) for v in values]  # the b parts are all 0 where ms is empty
    *GH, e = _ints(*[a for a, _ in ab], *([b for _, b in ab] if ms else ()))
    return GH[:len(ab)], GH[len(ab):] or [0] * len(ab), e, max(ms, default=1)


def _rule_ints(rule) -> tuple[list[int], list[int], int, int] | None:
    """``int_parts`` of the rule's nodes, then of their weights, value nodes
    first: read once and kept on the rule, as its plain exact kernels are."""
    kept = vars(rule)
    if "_ints" not in kept:
        nodes = rule.value_nodes + rule.deriv_nodes
        kept["_ints"] = int_parts([x for x, _ in nodes] + [w for _, w in nodes])
    return kept["_ints"]


def integrate_pieces(pieces, G: list[int], H: list[int], e: int, m: int, breakpoints) -> Scalar:
    """Sum of the integrals of piece_i * (G + H*sqrt(m))/e over [b_i, b_{i+1}]
    for pieces (A, B, den, m'), one den, m' in (1, m), on breakpoints rational
    or in Q(sqrt m): with F_i the antiderivative of piece_i * g, the sum of
    (F_{j-1} - F_j)(b_j) (F_{-1} = F_n = 0), each one Horner pass at b_j, all
    in integers over one denominator (``int_parts`` of the breakpoints, over w), and
    with no sqrt(m) product when the pieces, g and every breakpoint are rational."""
    zero = [0] * len(pieces[0][0])
    ends = [(zero, zero)] + [(A, B) for A, B, _, _ in pieces] + [(zero, zero)]
    P, Q, w, _ = int_parts(breakpoints)
    n = max(len(zero) + len(G) - 1, 0)  # the length of each product
    L, X, Y = lcm(*range(1, n + 1)), 0, 0
    rational = not any(H) and not any(Q) and not any(any(B) for _, B, _, _ in pieces)
    for (A0, B0), (A1, B1), p, q in zip(ends, ends[1:], P, Q):
        dA = [x - y for x, y in zip(A0, A1)]
        if rational:
            X += int_horner(_integral(_fmul(dA, G), L), p, w)
            continue
        dB = [x - y for x, y in zip(B0, B1)]
        PA = [x + m * y for x, y in zip(_fmul(dA, G), _fmul(dB, H))]
        PB = [x + y for x, y in zip(_fmul(dA, H), _fmul(dB, G))]
        x, y = zm_horner(_integral(PA, L), _integral(PB, L), p, q, w, m)
        X, Y = X + x, Y + y
    d = pieces[0][2] * e * L * w ** n
    return _quad(Fraction(X, d), Fraction(Y, d), m)


def power_sums(rule):
    """(e, sums) for a rule whose nodes and weights are plain exact in Q(sqrt m),
    read once over one denominator e (``_rule_ints``): ``sums`` yields, for
    k = 0, 1, ..., the integers (X, Y) with Q(e_k) == (X + Y*sqrt(m))/e**(k+1),
    a value node (x, w) adding (e*w)*(e*x)**k and a derivative node (y, b)
    k*e*(e*b)*(e*y)**(k-1).  Each node's power steps over Z[sqrt m] by one
    multiplication per k."""
    G, H, e, m = _rule_ints(rule)
    n, nv = len(G) // 2, len(rule.value_nodes)
    P, Q, s = G[:n], H[:n], [1] * nv + [e] * (n - nv)

    def sums():
        A, B = [c * u for c, u in zip(s, G[n:])], [c * v for c, v in zip(s, H[n:])]
        k, D = 0, (0, 0)  # D: the derivative nodes' terms of the step before
        while True:
            yield sum(A[:nv]) + k * D[0], sum(B[:nv]) + k * D[1]
            D, k = (sum(A[nv:]), sum(B[nv:])), k + 1
            if m == 1:
                A = [a * p for a, p in zip(A, P)]
            else:
                A, B = ([a * p + b * q * m for a, b, p, q in zip(A, B, P, Q)],
                        [a * q + b * p for a, b, p, q in zip(A, B, P, Q)])

    return e, sums()


def remainder(rule, G: list[int], H: list[int], e: int, m: int) -> Scalar:
    """I(f) - Q(f) for f == (G + H*sqrt(m))/e, the rule's nodes and weights plain
    exact in Q or Q(sqrt m): I(f) = sum of 2 f_k/(k + 1) over even k and
    Q(f) = sum of f_k Q(e_k), the power sums of ``power_sums`` (over E**(k+1)),
    all in integers over e*L*E**len(G)."""
    n, (E, sums) = len(G), power_sums(rule)
    L, X, Y = lcm(*range(1, n + 1, 2)), 0, 0
    for g, h, (x, y) in zip(G, H, sums):  # Horner in E: term k gets E**(n - 1 - k)
        X, Y = X * E + g * x + h * y * m, Y * E + g * y + h * x
    IG, IH = (sum(2 * (L // (k + 1)) * c for k, c in enumerate(P) if k % 2 == 0) for P in (G, H))
    d = E ** n
    return _quad(Fraction(IG * d - X * L, e * L * d), Fraction(IH * d - Y * L, e * L * d), m)
