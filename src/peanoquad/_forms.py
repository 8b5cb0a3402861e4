"""Fitted integer forms of the one-parameter catalog families, the data of
the scan points of ``bounds``.

Each raw node and weight of a family's builder is fitted as P(x)/Q(x), deg P,
deg Q <= 2, from samples in the domain (``fit_ratio``), and kept as an integer
polynomial in x over one denominator D(x) (``family_form``).  The rule at a
rational x, or x + d*eps, is then read in integers (``form_read``), and its
kernels from the form's kernel pieces in x (``form_pieces``), or at r = 0
straight from the read (``m0_pass``); no rule or kernel object is built.
``bounds`` imports this module only when a family is first scanned.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from ._qpoly import _fderiv, _fmul, _ftrim, _idiv, _igcd, _ints, _primitive, int_horner
from .errors import ParamOutOfDomain
from .rules import CATALOG, Domain
from .scalars import Scalar, _dual, _rat, as_scalar


def fit_ratio(xs: list[Fraction], vs: list[Fraction]) -> tuple[list[int], list[int]] | None:
    """(P, Q) in Z[x] of degree <= 2 with P(x) == v*Q(x) at each sample (x, v),
    P trimmed and Q of the least degree: the first deg Q = 0, 1, 2 whose
    solutions form one line, by fraction-free Gauss-Jordan elimination; else
    None.  So P/Q is in lowest terms, and with 7 samples or more it is any
    A/B with deg A, deg B <= 4 that takes the values (A*Q - B*P has degree <= 6)."""
    if len(set(vs)) == 1:
        return _ftrim([vs[0].numerator]), [vs[0].denominator]
    *A, s = _ints(*xs)  # row k is the equation for x = a/s times s**2 * den(v_k)
    powers = [[s * s, a * s, a * a] for a in A]
    for n in range(4, 7):
        rows = [[v.denominator * t for t in pw] + [-v.numerator * t for t in pw[:n - 3]]
                for pw, v in zip(powers, vs)]
        pivots = []
        for c in range(n):
            r = len(pivots)
            p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if p is not None:
                rows[r], rows[p] = rows[p], rows[r]
                rows = [row if i == r or not row[c] else
                        _primitive([rows[r][c] * a - row[c] * b for a, b in zip(row, rows[r])])
                        for i, row in enumerate(rows)]
                pivots.append(c)
        if len(pivots) == n - 1:  # each pivot row reads row[c]*sol[c] + row[free]*sol[free] = 0
            free = min(set(range(n)) - set(pivots))
            L = math.lcm(*(row[c] for row, c in zip(rows, pivots)))
            sol = {c: -row[free] * (L // row[c]) for row, c in zip(rows, pivots)}
            sol = _primitive([sol.get(c, L) for c in range(n)])
            return _ftrim(sol[:3]), sol[3:]
    return None


@lru_cache(maxsize=64)
def family_form(name: str, fixed: tuple, domain: Domain):
    """(2 * the number of value nodes, D, N, D', N') as integer tuples, D and the
    N_i padded to one length, from the builder at the closed ends of ``domain``
    and 7 points inside; None when a sample fails or is not rational, or an
    entry has no fit.  ``fixed``: (catalog name, Fraction) pairs."""
    entry, lo, hi = CATALOG[name], domain.lo, domain.hi
    xs = ([lo] * (not domain.lo_open) + [lo + (hi - lo) * k / 8 for k in range(1, 8)]
          + [hi] * (not domain.hi_open))
    rows = []
    for x in xs:
        args = {k: _rat(v) for k, v in fixed} | {"x": _rat(x)}
        try:
            values, derivs = entry.builder(*(args[p] for p in entry.param_names))
        except (ParamOutOfDomain, ZeroDivisionError):
            return None
        raw = [as_scalar(v) for pair in values + derivs for v in pair]
        if not all(type(v) is Scalar and v._frac is not None for v in raw):
            return None
        rows.append((2 * len(values), [v._frac for v in raw]))
    fits = [fit_ratio(xs, list(col)) for col in zip(*(row for _, row in rows))]
    if len({(n, len(row)) for n, row in rows}) > 1 or None in fits:
        return None
    prims = [_igcd(Q, []) for _, Q in fits]  # Q_i = c_i * q_i, q_i primitive, lead > 0
    base, scale = [1], 1  # D = scale * base, base the lcm of the q_i
    for (_, Q), q in zip(fits, prims):
        base, scale = _fmul(base, _idiv(q, _igcd(base, q))), math.lcm(scale, Q[-1] // q[-1])
    N = [_ftrim(_fmul([a * (scale // (Q[-1] // q[-1])) for a in P], _idiv(base, q)))
         for (P, Q), q in zip(fits, prims)]
    D, n = [scale * a for a in base], max(map(len, N + [base]))
    D, N = tuple(D + [0] * (n - len(D))), tuple(tuple(c + [0] * (n - len(c))) for c in N)
    return rows[0][0], D, N, tuple(_fderiv(D)), tuple(tuple(_fderiv(c)) for c in N)


def form_of(family) -> tuple | None:
    """The ``family_form`` of a ``rules.RuleFamily``, or None (a fixed parameter
    that is not rational, or no form)."""
    fixed = tuple(family.fixed_params.items())
    if not all(type(v) is Scalar and v._frac is not None for _, v in fixed):
        return None
    return family_form(family.name, tuple((k, v._frac) for k, v in fixed), family.domain)


def form_read(form, domain: Domain, x: Fraction, d=0) -> tuple | None:
    """The rule at x = u/v, or x + d*eps, in integers: each entry (N*D, v*d*(N'*D - N*D'))
    over D**2, read as (form, u, v, d, E, the merged value and derivative nodes as sorted
    (node, weight) integer pairs over E, the sorted breakpoint keys, the breakpoint of
    each raw node: its own, or the next when its node dropped).  None, for the builder
    to decide, unless x (d != 0: not at the end of ``domain`` it leaves by) lies in
    ``domain``, D(x) != 0 and the nodes in [-1, 1]."""
    if not domain.contains(x) or d and x == (domain.hi if d > 0 else domain.lo):
        return None
    n_values, D, N, dD, dN = form
    u, v = x.numerator, x.denominator
    E, dE = int_horner(D, u, v), d and int_horner(dD, u, v)
    if not E:
        return None
    GH = [(n * E * d.denominator, d and d.numerator * v * (int_horner(dn, u, v) * E - n * dE))
          for n, dn in zip([int_horner(c, u, v) for c in N], dN)]
    E = E * E * d.denominator
    seqs = []
    for lo, hi in ((0, n_values), (n_values, len(GH))):
        merged = {}
        for i in range(lo, hi, 2):
            g, h = merged.get(GH[i], (0, 0))
            merged[GH[i]] = g + GH[i + 1][0], h + GH[i + 1][1]
        seqs.append(sorted(kw for kw in merged.items() if kw[1] != (0, 0)))
    if any(seq and (seq[0][0] < (-E, 0) or seq[-1][0] > (E, 0)) for seq in seqs):
        return None
    keys = sorted({(-E, 0), (E, 0), *(k for seq in seqs for k, _ in seq)})
    return form, u, v, d, E, seqs, keys, tuple(bisect_left(keys, k) for k in GH[::2])


@lru_cache(maxsize=256)
def _kernel_form(form, r: int, at: tuple, n_pieces: int):
    """(Den, Den', [P_i], [P_i']): K_r(t; x) = P_i/Den on (b_i, b_(i+1)] when raw
    node k is at b_(at[k]), P_i a list over t of Z[x] lists as long as Den (D and
    the N_k are of one length, so each term is too).  P_i is (1 - t)**(r+1) D**(r+1)
    minus (r+1) W (N - D*t)**r at each value node N/D, weight W/D, and (r+1) r W D
    (N - D*t)**(r-1) at each derivative node (none at r = 0) with at[k] > i.  None
    unless all of them leave (-1 - t)**(r+1) D**(r+1): the order condition in x."""
    n_values, D, N = form[:3]
    Dk = list(accumulate([D] * (r + 1), _fmul, initial=[1]))

    def power(s, W, X, n):  # s W (X - D*t)**n, over t
        Xk = list(accumulate([X] * n, _fmul, initial=[1]))
        return [_fmul([s * (-1) ** k * math.comb(n, k) * a for a in W], _fmul(Xk[n - k], Dk[k]))
                for k in range(n + 1)]

    P, pieces = power(1, [1], D, r + 1), []
    for k in range(n_pieces, -1, -1):  # subtract the terms at b_k: piece k - 1
        for j, i in enumerate(range(0, len(N), 2)):
            if at[j] == k and (i < n_values or r):
                s, W = (r + 1, N[i + 1]) if i < n_values else ((r + 1) * r, _fmul(N[i + 1], D))
                T = power(s, W, N[i], r - (i >= n_values))
                P = [[a - b for a, b in zip(p, t)] for p, t in zip(P, T)] + P[len(T):]
        pieces.append(P)
    if pieces.pop() != power(1, [1], [-a for a in D], r + 1):
        return None
    Den, pieces = [math.factorial(r + 1) * a for a in Dk[-1]], pieces[::-1]
    return Den, _fderiv(Den), pieces, [[_fderiv(c) for c in P] for P in pieces]


def form_pieces(read, r: int) -> list | None:
    """The order-r kernel pieces of a form read, (A, B, den, m) in integers: P/Den at
    x = u/v with den > 0, or at x + d*eps P*Den + d*(P'*Den - P*Den')*eps over Den**2
    (m = 0 unless the read has no eps part); None where ``_kernel_form`` is."""
    form, u, v, d, E, seqs, keys, at = read
    if (got := _kernel_form(form, r, at, len(keys) - 1)) is None:
        return None
    Den, dDen, pieces, dpieces = got
    h = int_horner(Den, u, v)
    if not d:  # D(x) < 0 for mod3_opt
        s = 1 if h > 0 else -1
        return [([s * int_horner(c, u, v) for c in P], [0] * (r + 2), s * h, 1) for P in pieces]
    m = 0 if any(k[1] or w[1] for seq in seqs for k, w in seq) else 1
    dh, a, b = int_horner(dDen, u, v), d.numerator * v, d.denominator
    Hs = [[int_horner(c, u, v) for c in P] for P in pieces]
    return [([p * h * b for p in H], [a * (int_horner(c, u, v) * h - p * dh) for p, c in zip(H, dP)],
             h * h * b, m) for H, dP in zip(Hs, dpieces)]


def m0_pass(read) -> tuple[tuple[int, ...], Scalar] | None:
    """The order-0 root signature and M_0 of a form read, None unless the
    weights of its value nodes sum to 2.  Over the read's denominator E, K_0
    is c_i - t on (b_i, b_(i+1)], c_i = -1 plus the weights of the value nodes
    at b_i or left of it (a node at -1 lies on no piece, but its weight
    counts).  When b_i < c_i < b_(i+1) the piece has the one root c_i and adds
    ((c_i - b_i)**2 + (b_(i+1) - c_i)**2)/2, else (b_(i+1) - b_i)|2c_i - b_i -
    b_(i+1)|/2: one integer sum over 2E**2.  Over x + d*eps each entry is a
    pair (value, eps part), the eps part of the sum comes by the product
    rule, and |.| reads the sign of the value part, or of the eps part where
    that is 0, as ``peano.l1_sum`` does; at c_i = b_i both forms agree in
    value and slope."""
    E, weights, keys = read[4], dict(read[5][0]), read[6]
    if [sum(w) for w in zip(*weights.values())] != [2 * E, 0]:
        return None
    c, ce, total, slope, sig = -E, 0, 0, 0, []
    for (p, pe), (q, qe) in zip(keys, keys[1:]):
        w, we = weights.get((p, pe), (0, 0))
        c, ce = c + w, ce + we
        sig.append(int(p < c < q))
        if sig[-1]:
            total += (c - p) ** 2 + (q - c) ** 2
            slope += 2 * ((c - p) * (ce - pe) + (q - c) * (qe - ce))
        else:  # keys ascend: q - p > 0, or q - p = 0 < qe - pe
            m, me = 2 * c - p - q, 2 * ce - pe - qe
            s = 1 if m > 0 or not m and me > 0 else -1
            total += s * (q - p) * m
            slope += s * ((q - p) * me + (qe - pe) * m)
    return tuple(sig), _dual(Scalar(Fraction(total, 2 * E * E)), Scalar(Fraction(slope, 2 * E * E)))
