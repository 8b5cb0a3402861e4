"""Shared helpers for the test suite."""

import math
import random
from collections import Counter
from fractions import Fraction as F
from itertools import zip_longest
from math import lcm

from peanoquad import (ExactnessReport, KernelReport, OrderExceedsExactness, PiecewisePolynomial,
                       Polynomial, QuadRule, Scalar, custom_rule, isolate_roots, kernel_l1_norm,
                       remainder_on_monomial)
from peanoquad.exactness import _classify
from peanoquad._qpoly import (_fderiv, _fdeg, _fmul, _fsub, _ftrim, _integral, _ints, _primitive,
                              int_horner, zm_horner)
from peanoquad.peano import _abs_sum, _integrals, _piece_roots, build_kernel
from peanoquad.roots import Root
from peanoquad.scalars import (_Dual, _dual, _extract_square, _quad, _quad_sign, as_scalar,
                               field_parts, minus_terms, quad_widened)


# every family with a free node x; the parameters of the others are those
# the family_scan benchmark pins with seeds 1 and 5
SCAN_FAMILIES = [
    ("ostrowski", {}), ("mp3", {}), ("mod3_opt", {}), ("gs2", {}), ("franjic", {}),
    ("liu_park", {}), ("dragomir_sofo", {}),
    ("mod3", {"lam": F(9, 19)}), ("mod3", {"lam": F(7, 17)}),
    ("dcr", {"lam": F(2, 7)}), ("dcr", {"lam": F(17, 60)}),
    ("alomari4", {"lam": F(9, 43)}), ("alomari4", {"lam": F(3, 16)}),
    ("q44", {"lam": F(1, 5), "gamma": F(1, 32), "delta": F(5, 53)}),
    ("q44", {"lam": F(13, 53), "gamma": F(2, 57), "delta": F(3, 25)}),
]


def family_points(fam):
    """At least 50 rational x in the domain: both ends when closed, the
    collision and zero-weight points 0 and 1, and a grid of the rest."""
    d = fam.domain
    xs = {d.lo + (d.hi - d.lo) * F(k, 53) for k in range(54)} | {F(0), F(1), F(1, 3)}
    xs = sorted(x for x in xs if d.contains(x))
    assert len(xs) >= 50
    return xs


def unshared(rule: QuadRule) -> QuadRule:
    """A rule with the data of ``rule`` that no other caller holds.
    ``make_rule`` shares one rule for equal parameters, with the kernels and
    reports it keeps, so a test that writes kept state or counts work takes
    this copy."""
    return custom_rule(rule.name, rule.value_nodes, rule.deriv_nodes, rule.params)


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


def no_wider_overlapping(got: Scalar, want: Scalar) -> bool:
    """got is want where want is exact (same type, tier and exact string), and
    an enclosure no wider than want that overlaps it where want is an
    interval; part by part for a _Dual."""
    if type(got) is not type(want):
        return False
    for g, w in zip(_Dual.parts(got), _Dual.parts(want)):
        if w.is_exact:
            if (g.is_rational, g.is_exact, g.to_json_str()) != (w.is_rational, True, w.to_json_str()):
                return False
            continue
        (glo, ghi), (wlo, whi) = g.bounds(), w.bounds()
        if ghi - glo > whi - wlo or ghi < wlo or whi < glo:
            return False
    return True


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


def reference_merge_nodes(pairs) -> list[tuple[Scalar, Scalar]]:
    """Equal nodes merged by a scan of Scalar ==, exact-zero weights dropped,
    then sorted by Scalar < (nodes that overlap without being equal raise
    AmbiguousOrder)."""
    merged: list[list[Scalar]] = []
    for x, w in pairs:
        x, w = as_scalar(x), as_scalar(w)
        same = next((p for p in merged if p[0] == x), None)
        if same is None:
            merged.append([x, w])
        else:
            same[1] = same[1] + w
    return sorted(((x, w) for x, w in merged if not w.is_exact_zero()), key=lambda p: p[0])


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


def reference_verify_peano_identity(rule: QuadRule, r: int, f: Polynomial) -> tuple[Scalar, Scalar]:
    """``verify_peano_identity`` in Scalar arithmetic: I(f) - Q(f) by
    ``definite_integral`` and ``rule.apply``, and f^(r+1) by r + 1
    ``derivative`` calls integrated against ``reference_build_kernel``."""
    lhs = f.definite_integral(-1, 1) - rule.apply(f)
    g = f
    for _ in range(r + 1):
        g = g.derivative()
    return lhs, reference_build_kernel(rule, r).integrate_against(g)


def reference_degree_of_exactness(rule: QuadRule, k_max: int = 20) -> ExactnessReport:
    """``degree_of_exactness`` in Scalar arithmetic: each R(e_k) by
    ``remainder_on_monomial``, classified by ``exactness._classify``."""
    remainders, flags, first = [], [], None
    for k in range(k_max + 1):
        remainders.append(remainder_on_monomial(rule, k))
        kind, ambiguous = _classify(remainders[-1])
        flags += [k] * ambiguous
        if kind == "nonzero":
            first = k
            break
    return ExactnessReport(tuple(remainders), k_max if first is None else first - 1, first,
                           first is None, tuple(flags))


def exactness_fingerprint(report: ExactnessReport) -> tuple:
    """Every field of the report, each remainder by type, tier, exact string
    and exact enclosure ends."""
    return ([(type(v), v.is_rational, v.is_exact, v.to_json_str(), v.bounds())
             for v in report.remainders],
            report.degree, report.first_nonzero_index, report.at_least, report.ambiguous_indices)


def reference_signature(rule: QuadRule, r: int) -> tuple[int, ...]:
    """The kernel root signature from a full ``kernel_l1_norm`` pass: each
    sign change counted in the piece that ``piece_index`` finds for it."""
    rep = kernel_l1_norm(rule, r)
    counts = [0] * len(rep.kernel.pieces)
    for root in rep.sign_changes:
        counts[rep.kernel.piece_index(root.location)] += 1
    return tuple(counts)


def reference_bound_fn(family, r: int):
    """``bounds._bound_fn`` by kernel passes on built rules: M_r(x) and its
    signature from ``kernel_l1_norm`` (each root counted in the piece that
    ``piece_index`` finds for it), a probe from ``build_kernel`` (roots of
    rational pieces counted by ``reference_count_roots``, those of other
    pieces isolated), and (M_r, M_r') from the kernel pass on the rule at
    x + eps (x - eps at the upper end of the domain)."""
    values, sigs, slopes = {}, {}, {}

    def fn(x):
        if x not in values:
            rep = kernel_l1_norm(family.build(Scalar(x)), r)
            counts = [0] * (len(rep.kernel.breakpoints) - 1)
            for root in rep.sign_changes:
                counts[rep.kernel.piece_index(root.location)] += 1
            values[x] = rep.l1_norm
            sigs.setdefault(x, tuple(counts))
        return values[x]

    def sig(x):
        if x not in sigs:
            k = build_kernel(family.build(Scalar(x)), r)
            if k.exact and k.exact[0][3] == 1:
                bps = [b._frac for b in k.breakpoints]
                sigs[x] = tuple(map(reference_count_roots, (A for A, *_ in k.exact), bps, bps[1:]))
            else:
                sigs[x] = tuple(len(roots) for _, roots in _piece_roots(k))
        return sigs[x]

    def slope(x):
        if x not in slopes:
            seed = -1 if x == family.domain.hi else 1
            m, dm = _Dual.parts(kernel_l1_norm(family.build(_Dual(x, seed)), r).l1_norm)
            slopes[x] = (m, dm * seed)
        return slopes[x]

    return fn, sig, slope


def reference_abs_sum(A, B, den, cuts, m):
    """(value, eps part) of the sum of |F(c_(k+1)) - F(c_k)| in Scalar and
    _Dual arithmetic, F the antiderivative of (A + B*eps)/den: a cut is a
    Scalar or rational, or a pair (p, q), p + q*eps at the two ends and
    p + q*sqrt(m) inside."""
    F_ = Polynomial([_dual(Scalar(F(a, den)), Scalar(F(b, den)))
                     for a, b in zip(A, B or [0] * len(A))]).antiderivative()
    points = [Scalar(c) if type(c) is not tuple
              else _dual(Scalar(c[0]), Scalar(c[1])) if k in (0, len(cuts) - 1)
              else _quad(c[0], c[1], m) for k, c in enumerate(cuts)]
    total = Scalar(0)
    for s, t in zip(points, points[1:]):
        total = total + abs(F_(t) - F_(s))
    return _Dual.parts(total)


# --------------------------------------------------------------------------
# the L1 sum of an integer kernel, piece by piece


def reference_abs_integral(A: list[int], B, den: int, k: int, cuts: list, m: int) -> tuple:
    """``_qpoly.abs_integrals`` for one piece, as it was summed piece by
    piece: the integral of |p| for p = (A + B*sqrt(k))/den, or
    (A + B*eps)/den for k = 0 (B empty for a rational piece), from the first
    cut to the last, between consecutive cuts of which A keeps its sign: the
    sum of |F(c_(j+1)) - F(c_j)|, F an antiderivative, as (a, b, c, e) for
    (a + b*sqrt(m)) + (c + e*sqrt(m))*eps, in integers over one denominator.
    A cut is a rational or a pair (p, q), p + q*sqrt(m) (m = k for k > 1 and
    B not empty), except that for k = 0 the two ends (breakpoints of a dual
    pass) are p + q*eps.  Each |.| reads the sign of the value part, or of
    the eps part where that is 0, as ``_Dual.__abs__`` does."""
    L = lcm(*range(1, len(A) + 1))
    FA = _integral(A, L)
    if not B and all(type(c) is not tuple for c in cuts):  # all in Q
        *U, w = _ints(*cuts)
        X = [int_horner(FA, u, w) for u in U]  # F(u/w) * den * L * w**len(A)
        S, D = sum(abs(y - x) for x, y in zip(X, X[1:])), den * L * w ** len(A)
        return F(S, D), 0, 0, 0
    zero, vals = [0] * len(FA), []
    FB = _integral(B, L) if B else zero
    *PQ, w = _ints(*(x for c in cuts for x in (c if type(c) is tuple else (c, 0))))
    for j, (p, q) in enumerate(zip(PQ[::2], PQ[1::2])):
        if k:  # F(p + q*sqrt(m)) over w
            vals.append((*zm_horner(FA, FB, p, q, w, m), 0, 0))
        elif not q or j in (0, len(cuts) - 1):  # p + q*eps over w
            X, U = zm_horner(FA, FB, p, q, w, 0)
            vals.append((X, 0, U, 0))
        else:
            vals.append((*zm_horner(FA, zero, p, q, w, m), *zm_horner(FB, zero, p, q, w, m)))
    total = [0, 0, 0, 0]
    for x, y in zip(vals, vals[1:]):
        d = [b - a for a, b in zip(x, y)]
        s = _quad_sign(d[0], d[1], m) or _quad_sign(d[2], d[3], m)
        total = [t + s * v for t, v in zip(total, d)]
    D = den * L * w ** len(A)
    return tuple(t and F(t, D) for t in total)


def reference_l1_sum(pieces, ends, roots) -> Scalar:
    """``peano.l1_sum`` as it summed piece by piece: each piece's cuts read
    over their own denominator by ``reference_abs_integral``, and the parts
    of the pieces added as Fractions."""
    m = pieces[0][3]
    if m > 1 and (any(q for _, q in ends) or any(any(B) for _, B, _, _ in pieces)):
        d = m
    else:
        quads = [(not (m == 0 and any(B)), rt.location._sqrt[2])
                 for (_, B, _, _), found in zip(pieces, roots) for rt in found if rt.location._sqrt]
        d = min(quads, key=lambda q: q[0], default=(0, 1))[1]
    root = math.isqrt(m - 1) + 1 if m > 1 else 0  # ceil(sqrt(m)); 0 where B is no part of the value
    total, gap, slack = [0, 0, 0, 0], 0, 0
    for (A, B, den, _), lo, hi, found in zip(pieces, ends, ends[1:], roots):
        cuts = [lo if lo[1] else lo[0]]
        dA = None  # den * K' = dA + dB*sqrt(m), and absolute coefficient sums for |K'|, |K''|
        for rt in found:
            s = rt.location
            if s._frac is not None or s._sqrt and s._sqrt[2] == d:
                cuts.append(s._frac if s._frac is not None else s._sqrt[:2])
                continue
            P, Q, e = rt.bracket[1:] if rt.bracket else _ints(*s.bounds())  # (P/e, Q/e)
            c = F(P + Q, 2 * e)
            if _quad_sign(c - lo[0], -lo[1], m) == _quad_sign(hi[0] - c, hi[1], m) == 1:
                cuts.append(c)
            if dA is None:
                dA, dB = zip(*zip_longest(_fderiv(A), _fderiv(B), fillvalue=0))
                abs1 = [abs(a) + root * abs(b) for a, b in zip(dA, dB)]
                abs2 = [abs(a) + root * abs(b) for a, b in zip(_fderiv(dA), _fderiv(dB))]
            # den * sup|K'| over the bracket, of width w and within |t| <= R, times
            # 2 (2e)**(k-1): the coefficient sum at R, or |K'(c)| + sup|K''| w/2
            k, R, w = len(abs1), max(-P, Q), Q - P
            at_c = abs(int_horner(dA, P + Q, 2 * e))
            if root:
                at_c += root * abs(int_horner(dB, P + Q, 2 * e))
            dK = min(int_horner(abs1, R, e) << k, 2 * at_c + (int_horner(abs2, R, e) * w << (k - 1)))
            gap += F(dK * w * w, den * e ** (k + 1) << (k + 2))  # sup|K'| (w/2)**2
            if not m:  # |B| <= |B(c)| + sup|B'| w/2 over the enclosure
                R, w = F(R, e), F(w, e)
                slack += (abs(sum(x * c**j for j, x in enumerate(B)))
                          + _abs_sum(_fderiv(B), R) * w / 2) * w / den
        cuts.append(hi if hi[1] else hi[0])
        part = reference_abs_integral(A, B if m != 1 and any(B) else (), den, m, cuts, d)
        total = [t + x if x else t for t, x in zip(total, part)]
    return _dual(quad_widened(total[0], total[1], d, 0, gap),
                 quad_widened(total[2], total[3], d, slack, slack))


def reference_kernel_l1_norm(rule: QuadRule, r: int, tol=None) -> KernelReport:
    """``kernel_l1_norm`` on ``reference_build_kernel``: the antiderivative of
    each piece by Scalar Horner passes at the cut points, and the sum
    total + |F(cut) - F(previous cut)| in Scalar arithmetic.  Given a root
    tolerance ``tol``, the roots come from ``reference_isolate_roots`` with
    brackets of width at most tol."""
    kernel = reference_build_kernel(rule, r)
    total = Scalar(0)
    roots = []
    for i, piece in enumerate(kernel.pieces):
        lo, hi = kernel.breakpoints[i], kernel.breakpoints[i + 1]
        if piece.is_zero:
            continue
        inside = piece.degree >= 1 and Scalar(lo) != Scalar(hi)
        if not inside:
            piece_roots = ()
        elif tol is None:
            piece_roots = isolate_roots(piece, lo, hi)
        else:
            piece_roots = reference_isolate_roots(piece, lo, hi, tol)
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


def fraction_eval(c: list[F], t: F) -> F:
    """p(t) for rational coefficients c, by one integer Horner pass."""
    *ints, den = _ints(*c)
    return F(int_horner(ints, t.numerator, t.denominator), den * t.denominator ** max(len(c) - 1, 0))


def _to_int_primitive(c: list[F]) -> list[int]:
    """The primitive integer multiple of rational coefficients, with their sign."""
    return _primitive(_ints(*c)[:-1])


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


def reference_count_roots(c: list, lo: F, hi: F) -> int:
    """The number of distinct roots of c inside (lo, hi): roots at the ends
    divided out over Q, then V(lo) - V(hi) on ``reference_sturm_chain_int``."""
    f = _ftrim([F(x) for x in c])
    for t in (lo, hi):
        while _fdeg(f) >= 1 and fraction_eval(f, t) == 0:
            f, _ = fdivmod(f, [-t, F(1)])
    if _fdeg(f) < 1:
        return 0
    chain = reference_sturm_chain_int(_to_int_primitive(f))
    return _variations(chain, lo) - _variations(chain, hi)


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
    bisection.  A bracket keeps its cell (a, b) as ``Root.bracket``, (f, A,
    B, d) with a = A/d and b = B/d in lowest terms."""
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
                else:  # the cell kept as an exact engine's bracket (f, A, B, d)
                    found.append(Root(Scalar.from_interval(got[1], got[2]), mult,
                                      bracket=(tuple(f_int), *_ints(got[1], got[2]))))
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
