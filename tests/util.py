"""Shared helpers for the test suite."""

import math
import random
from collections import Counter
from fractions import Fraction as F

from peanoquad import (KernelReport, OrderExceedsExactness, PiecewisePolynomial, Polynomial,
                       QuadRule, Scalar, custom_rule, isolate_roots)
from peanoquad._qpoly import (_fderiv, _fdeg, _fmul, _fsub, _ftrim, _to_int_primitive,
                              fraction_eval, int_horner)
from peanoquad.peano import _integrals
from peanoquad.roots import Root
from peanoquad.scalars import _extract_square, _quad, as_scalar, field_parts, minus_terms


def scalar_is_zero(s: Scalar) -> bool:
    return s.is_exact_zero() or s.zero_within()


def assert_scalar_equals(got: Scalar, want, tol=1e-12):
    """Exact equality on the rational path, |diff| <= tol otherwise."""
    want = want if isinstance(want, Scalar) else Scalar(want)
    if got.is_rational and want.is_rational:
        assert got.as_fraction() == want.as_fraction(), (
            f"{got.as_fraction()} != {want.as_fraction()}"
        )
    else:
        diff = abs(float(got - want))
        assert diff <= tol, f"|{float(got)} - {float(want)}| = {diff} > {tol}"


def random_rational_rule(
    rng: random.Random,
    with_derivs: bool = False,
    force_degree_one: bool = False,
) -> QuadRule:
    """Random rule with rational data and weight sum exactly 2 (degree >= 0).

    With `with_derivs` the rule gains random derivative nodes; with
    `force_degree_one` the last derivative weight is adjusted so the
    first-moment remainder vanishes too (degree of exactness >= 1).
    """
    while True:
        n = rng.randint(1, 4)
        xs = sorted({F(rng.randint(-20, 20), 21) for _ in range(n)})
        if not xs:
            continue
        ws = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in xs[:-1]]
        ws.append(2 - sum(ws, F(0)))
        ys, bs = [], []
        if with_derivs:
            m = rng.randint(1, 2)
            ys = sorted({F(rng.randint(-20, 20), 23) for _ in range(m)})
            bs = [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in ys]
            if force_degree_one:
                first_moment = sum(w * x for x, w in zip(xs, ws)) + sum(bs[:-1], F(0))
                bs[-1] = -first_moment
        try:
            rule = custom_rule("random", list(zip(xs, ws)), list(zip(ys, bs)))
        except Exception:
            continue
        if rule.value_nodes:
            return rule


def reference_breakpoints(rule: QuadRule) -> list[Scalar]:
    """-1, 1 and the nodes: equal values merged by Scalar ==, then sorted by Scalar <."""
    pts = [Scalar(-1), Scalar(1)]
    for x, _ in rule.value_nodes + rule.deriv_nodes:
        if x not in pts:
            pts.append(x)
    return sorted(pts)


def reference_build_kernel(rule: QuadRule, r: int) -> PiecewisePolynomial:
    """``build_kernel`` in Scalar arithmetic for data of every tier: each node
    term by r Polynomial products, the order condition from ``minus_terms``
    and ``zero_within``, and each piece the leading term minus the terms of
    its active nodes (node >= right end, by ``lt_definite``) in rule order."""
    if r < 0:
        raise ValueError("kernel order must be nonnegative")
    lead, moments = _integrals(r)
    terms = [(x, Polynomial([x, -1]) ** r * a) for x, a in rule.value_nodes]
    if r >= 1:
        terms += [(y, Polynomial([y, -1]) ** (r - 1) * (b * r)) for y, b in rule.deriv_nodes]
    for i, c in enumerate(moments.coeffs):
        if not minus_terms(c, [t.coeffs[i] for _, t in terms if i < len(t.coeffs)]).zero_within():
            raise OrderExceedsExactness(f"rule {rule.name} is not exact on degree {r}")
    bps = reference_breakpoints(rule)
    pieces = []
    for right in bps[1:]:
        p = lead
        for node, term in terms:
            if node.lt_definite(right) is not True:
                p = p - term
        pieces.append(p * Scalar(F(1, math.factorial(r))))
    return PiecewisePolynomial(tuple(bps), tuple(pieces))


def reference_kernel_l1_norm(rule: QuadRule, r: int) -> KernelReport:
    """``kernel_l1_norm`` on ``reference_build_kernel``: the antiderivative of
    each piece by Scalar Horner passes at the cut points, and the sum
    total + |F(cut) - F(previous cut)| in Scalar arithmetic."""
    kernel = reference_build_kernel(rule, r)
    total = Scalar(0)
    roots = []
    for i, piece in enumerate(kernel.pieces):
        lo, hi = kernel.breakpoints[i], kernel.breakpoints[i + 1]
        if piece.is_zero:
            continue
        inside = piece.degree >= 1 and Scalar(lo) != Scalar(hi)
        piece_roots = isolate_roots(piece, lo, hi) if inside else ()
        F_ = piece.antiderivative()
        cuts = [lo] + [rt.location for rt in piece_roots] + [hi]
        prev = F_(cuts[0])
        for s in cuts[1:]:
            cur = F_(s)
            total = total + abs(cur - prev)
            prev = cur
        roots.extend(piece_roots)
    return KernelReport(order=r, kernel=kernel, l1_norm=total, sign_changes=tuple(roots))


# --------------------------------------------------------------------------
# root isolation in Fractions: Euclid over Q, monic gcds, Fraction bisection

#: how often the reference engine left by each exit; tests clear it and read
#: it to show that their cases reach every branch
REFERENCE_EXITS: Counter = Counter()


def fdivmod(a: list[F], b: list[F]):
    """Exact polynomial division over the rationals."""
    a = list(a)
    q = [F(0)] * max(len(a) - len(b) + 1, 0)
    inv = 1 / b[-1]
    while len(a) >= len(b) and a:
        k = len(a) - len(b)
        f = a.pop() * inv  # the leading term cancels exactly
        q[k] = f
        for i in range(len(b) - 1):
            a[k + i] -= f * b[i]
        _ftrim(a)
    return _ftrim(q), a


def fgcd(a: list[F], b: list[F]) -> list[F]:
    """Monic gcd over the rationals."""
    a, b = list(a), list(b)
    while b:
        _, r = fdivmod(a, b)
        a, b = b, r
    if a:
        inv = 1 / a[-1]
        a = [x * inv for x in a]
    return a


def yun_squarefree(c: list[F]) -> list[tuple[list[F], int]]:
    """Yun squarefree decomposition over Q: list of (monic factor, multiplicity)."""
    d = _fderiv(list(c))
    g = fgcd(list(c), list(d))
    if _fdeg(g) < 1:
        return [(list(c), 1)]
    out = []
    w, _ = fdivmod(c, g)   # product of distinct roots
    y, _ = fdivmod(d, g)
    z = _fsub(y, _fderiv(w))
    i = 1
    while _fdeg(w) > 0:
        g_i = fgcd(list(w), list(z))
        if _fdeg(g_i) > 0:
            out.append((g_i, i))
        w, _ = fdivmod(w, g_i)
        y, _ = fdivmod(z, g_i) if z else ([], [])
        z = _fsub(y, _fderiv(w))
        i += 1
    return out


def _int_sign_at(c: list[int], t: F) -> int:
    acc = int_horner(c, t.numerator, t.denominator)
    return (acc > 0) - (acc < 0)


def reference_sturm_chain_int(c: list[int]) -> list[list[int]]:
    """Sturm chain by Euclid over Q, each entry made primitive in integers."""
    f0 = [F(x) for x in c]
    chain = [_to_int_primitive(f0), _to_int_primitive(_fderiv(f0))]
    while _fdeg(chain[-1]) > 0:
        _, r = fdivmod([F(x) for x in chain[-2]], [F(x) for x in chain[-1]])
        if not r:
            break
        chain.append(_to_int_primitive([-x for x in r]))
    return [p for p in chain if p]


def _variations(chain: list[list[int]], t: F) -> int:
    signs = [s for s in (_int_sign_at(p, t) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def reference_simplest_in_open(a: F, b: F) -> F:
    """Rational with the smallest denominator strictly inside (a, b), by
    recursion on Fractions."""
    if not a < b:
        raise ValueError("empty interval")
    if a < 0 < b:
        return F(0)
    if b <= 0:
        return -reference_simplest_in_open(-b, -a)
    ia = a.numerator // a.denominator
    if ia + 1 < b:
        return F(ia + 1)
    if a == ia:  # integer left endpoint, interval inside (ia, ia+1)
        inner = F(1, (b - ia).denominator // (b - ia).numerator + 1)
        return ia + inner
    return ia + 1 / reference_simplest_in_open(1 / (b - ia), 1 / (a - ia))


def reference_refine_single(f_int: list[int], fq: list[F], a: F, b: F, tol: F):
    """Fraction bisection of a one-root bracket: ('exact', r) or ('bracket', a, b)."""
    sa = _int_sign_at(f_int, a)
    step = 0
    while b - a > tol:
        if step in (0, 8):
            cand = reference_simplest_in_open(a, b)
            if fraction_eval(fq, cand) == 0:
                REFERENCE_EXITS[f"probe at step {step}"] += 1
                return ("exact", cand)
        m = (a + b) / 2
        sm = _int_sign_at(f_int, m)
        if sm == 0:
            REFERENCE_EXITS["dyadic midpoint"] += 1
            return ("exact", m)
        if sm == sa:
            a = m
        else:
            b = m
        step += 1
    cand = reference_simplest_in_open(a, b)
    if fraction_eval(fq, cand) == 0:
        REFERENCE_EXITS["final probe"] += 1
        return ("exact", cand)
    REFERENCE_EXITS["bracket"] += 1
    return ("bracket", a, b)


def _quadratic_roots(f: list[F], lo: F, hi: F) -> list[Scalar]:
    if _fdeg(f) == 1:
        r = -f[0] / f[1]
        return [Scalar(r)] if lo < r < hi else []
    f = f if f[2] > 0 else [-x for x in f]
    c0, c1, c2 = f
    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        return []
    s, m = _extract_square(disc.numerator * disc.denominator)
    a, b = -c1 / (2 * c2), F(s, disc.denominator) / (2 * c2)
    f_lo, f_hi = fraction_eval(f, lo), fraction_eval(f, hi)
    inside = (f_lo > 0 and lo < a and (f_hi < 0 or a < hi),
              (f_lo < 0 or lo < a) and f_hi > 0 and a < hi)
    return [_quad(a, y, m) for y, ok in zip((-b, b), inside) if ok]


def reference_isolate_rational(coeffs: list[F], lo: F, hi: F, tol: F) -> list[Root]:
    """``roots._isolate_rational`` in Fraction arithmetic: deflation by
    monic division, Yun over Q, Sturm chains by Euclid over Q and Fraction
    bisection."""
    c = [F(x) for x in coeffs]
    for end, name in ((lo, "lo"), (hi, "hi")):
        k = 0
        while _fdeg(c) >= 1 and fraction_eval(c, end) == 0:
            c = fdivmod(c, [-end, F(1)])[0]
            k += 1
        REFERENCE_EXITS[f"root at {name} of multiplicity {k}"] += 1
    if _fdeg(c) < 1:
        return []
    if _fdeg(c) == 2 and c[1] * c[1] == 4 * c[0] * c[2]:
        r = -c[1] / (2 * c[2])
        return [Root(Scalar(r), 2)] if lo < r < hi else []
    if _fdeg(c) <= 2:
        return [Root(r, 1) for r in _quadratic_roots(c, lo, hi)]
    found: list[Root] = []
    for factor, mult in yun_squarefree(c):
        REFERENCE_EXITS[f"Yun factor of multiplicity {mult}"] += 1
        if _fdeg(factor) <= 2:
            found.extend(Root(r, mult) for r in _quadratic_roots(factor, lo, hi))
            continue
        pending = list(factor)
        while True:
            exact_hit = None
            f_int = _to_int_primitive(pending)
            if _fdeg(pending) < 1:
                break
            chain = reference_sturm_chain_int(f_int)
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
                REFERENCE_EXITS["Sturm midpoint"] += 1
                found.append(Root(Scalar(exact_hit), mult))
                pending = fdivmod(pending, [-exact_hit, F(1)])[0]
                continue
            for a, b in brackets:
                got = reference_refine_single(f_int, pending, a, b, tol)
                if got[0] == "exact":
                    found.append(Root(Scalar(got[1]), mult))
                else:
                    found.append(Root(Scalar.from_interval(got[1], got[2]), mult))
            break
    found.sort(key=lambda r: r.location.bounds()[0])
    return found


def _sign_at_root(s: list[F], n: list[F], x: Scalar) -> int:
    if x.is_exact:
        return Polynomial(s)(x).sign()
    REFERENCE_EXITS["sign at a bracket"] += 1
    lo, hi = x.bounds()
    w = _to_int_primitive(fdivmod(n, fgcd(n, _fderiv(n)))[0])
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


def _isolate_field(a: list[F], b: list[F], m: int, lo: F, hi: F, tol: F) -> list[Root]:
    if not b:
        return reference_isolate_rational(a, lo, hi, tol)
    g = fgcd(a, b)
    a, b = fdivmod(a, g)[0], fdivmod(b, g)[0]
    found = reference_isolate_rational(g, lo, hi, tol)
    norm = _fsub(_fmul(a, a), [m * x for x in _fmul(b, b)])
    ab = _fmul(a, b)
    found += [r for r in reference_isolate_rational(norm, lo, hi, tol)
              if _sign_at_root(ab, norm, r.location) < 0]
    out: list[Root] = []
    for r in sorted(found, key=lambda r: r.location.bounds()[0]):
        if out and out[-1].location.lt_definite(r.location) is not True:
            prev = out.pop()
            r = Root(prev.location if prev.is_exact() else r.location,
                     prev.multiplicity_hint + r.multiplicity_hint)
        out.append(r)
    return out


def _isolate_midpoints(p: Polynomial, lo_s: Scalar, hi_s: Scalar, lo: F, hi: F,
                       tol: F) -> list[Root]:
    REFERENCE_EXITS["interval midpoints"] += 1
    q = [sum(c.bounds()) / 2 for c in p.coeffs]
    v_lo = fraction_eval(q, lo) if p(lo_s).contains_zero() else 0
    v_hi = fraction_eval(q, hi) if p(hi_s).contains_zero() else 0
    slope = (v_hi - v_lo) / (hi - lo)
    q = _fsub(q, [v_lo - slope * lo, slope])
    out = []
    for r in reference_isolate_rational(q, lo, hi, tol):
        qa, qb = r.location.bounds()
        qa, qb = qa - tol / 4, qb + tol / 4
        sa, sb = p(Scalar(qa)).sign(), p(Scalar(qb)).sign()
        certified = sa is not None and sb is not None and sa * sb < 0
        out.append(Root(Scalar.from_interval(qa, qb), r.multiplicity_hint, certified))
    dq = _fderiv(q)
    d2q = _fderiv(dq)
    for r in reference_isolate_rational(dq, lo, hi, tol):
        qa, qb = r.location.bounds()
        c = (qa + qb) / 2
        if fraction_eval(q, c) * fraction_eval(d2q, c) > 0:
            qa, qb = qa - tol / 4, qb + tol / 4
            if p(Scalar.from_interval(qa, qb)).contains_zero():
                out.append(Root(Scalar.from_interval(qa, qb), 2, False))
    out.sort(key=lambda r: r.location.bounds()[0])
    return out


def reference_isolate_roots(p: Polynomial, lo, hi, tol=F(1, 10**20)) -> tuple[Root, ...]:
    """``isolate_roots`` on the Fraction engine above (degree and tolerance
    checks left out)."""
    lo_s, hi_s = as_scalar(lo), as_scalar(hi)
    lof, hif = lo_s.mid_fraction(), hi_s.mid_fraction()
    if p.degree < 1:
        return ()
    parts = field_parts(p.coeffs)
    if parts is None:
        return tuple(_isolate_midpoints(p, lo_s, hi_s, lof, hif, tol))
    m, ab = parts
    a, b = (_ftrim(list(c)) for c in zip(*ab))
    return tuple(_isolate_field(a, b, m, lof, hif, tol))
