"""Fitted integer forms of the one-parameter catalog families.

Each raw node and weight of a family's builder is fitted as P(x)/Q(x), deg P,
deg Q <= 2, from samples in the domain (``fit_ratio``), and kept as an integer
polynomial in x over one denominator D(x) (``family_form``).  The rule at a
rational x, or x + d*eps, is then read in integers (``form_rule``).  ``rules``
imports this module only when a family first needs its form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ._qpoly import _fderiv, _fmul, _ftrim, _idiv, _igcd, _ints, _primitive, int_horner, to_scalar
from .errors import ParamOutOfDomain
from .rules import CATALOG, Domain, QuadRule
from .scalars import Scalar, _Dual, _rat, as_scalar


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
    """(2 * the number of value nodes, D, N, D', N', the Scalar of each constant
    entry), D and the N_i padded to one length, from the builder at the closed
    ends of ``domain`` and 7 points inside; None when a sample fails or is not
    rational, or an entry has no fit.  ``fixed``: (catalog name, Fraction) pairs."""
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
    D, N = D + [0] * (n - len(D)), [c + [0] * (n - len(c)) for c in N]
    consts = [_rat(Fraction(P[0] if P else 0, Q[0])) if len(Q) == 1 and len(P) < 2 else None
              for P, Q in fits]  # and two Nones for the index -2 of a merged node
    return rows[0][0], D, N, _fderiv(D), [_fderiv(c) for c in N], consts + [None, None]


def form_rule(form, domain: Domain, name: str, x: Scalar, params: dict) -> QuadRule | None:
    """The rule at x = u/v, or x + d*eps: each entry (N*D, v*d*(N'*D - N*D')) over
    D**2 in integers, and the integer read (G, H, e, m) of [-1, 1, nodes,
    weights] kept for ``build_kernel``.  None, for the builder to decide, unless
    x (d != 0, in _Dual's order) lies in ``domain``, D(x) != 0 and the nodes in [-1, 1]."""
    dual = type(x) is _Dual
    d = x._d._frac if dual else 0
    if (x._frac is None or not domain.contains(x._frac)
            or dual and (not d or x._frac == (domain.hi if d > 0 else domain.lo))):
        return None
    n_values, D, N, dD, dN, consts = form
    u, v = x._frac.numerator, x._frac.denominator
    E, dE = int_horner(D, u, v), d and int_horner(dD, u, v)
    if not E:
        return None
    GH = [(n * E * d.denominator, d and d.numerator * v * (int_horner(dn, u, v) * E - n * dE))
          for n, dn in zip([int_horner(c, u, v) for c in N], dN)]
    E = E * E * d.denominator
    seqs = []  # per node: (key, (weight, the index of its node entry, or -2 when merged))
    for lo, hi in ((0, n_values), (n_values, len(GH))):
        merged = {}
        for i in range(lo, hi, 2):
            got, (g, h) = merged.get(GH[i]), GH[i + 1]
            merged[GH[i]] = ((g, h), i) if got is None else ((got[0][0] + g, got[0][1] + h), -2)
        seqs.append(sorted(kw for kw in merged.items() if kw[1][0] != (0, 0)))
    if any(seq and (seq[0][0] < (-E, 0) or seq[-1][0] > (E, 0)) for seq in seqs):
        return None
    flat = [k for seq in seqs for k, _ in seq] + [w for seq in seqs for _, (w, _) in seq]
    G, H = [-E, E] + [a for a, _ in flat], [0, 0] + [b for _, b in flat]
    g = math.gcd(E, *G, *H)

    def scalar(ab, i):  # a constant entry's own Scalar, else (a + b*eps)/E
        return consts[i] or to_scalar((Fraction(ab[0], E), ab[1] and Fraction(ab[1], E), 0))

    rule = QuadRule(name, *(tuple((scalar(k, i), scalar(w, i + 1)) for k, (w, i) in seq)
                            for seq in seqs), dict(params))
    vars(rule)["_int_read"] = [a // g for a in G], [b // g for b in H], E // g, 0 if any(H) else 1
    return rule
