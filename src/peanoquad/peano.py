"""Peano kernels as piecewise polynomials, and their L1 norms.

For a rule with degree of exactness at least r, the order-r kernel is

    r! K_r(t) = (1-t)^(r+1)/(r+1) - sum_{x_k>t} A_k (x_k-t)^r
                                  - r * sum_{y_k>t} B_k (y_k-t)^(r-1)

assembled here piece by piece between consecutive breakpoints (the union of
{-1, 1} and all nodes).  Pieces are left-open/right-closed, and node sums are
taken per piece so kernel values at breakpoints come from the left piece.
The L1 norm integrates |K_r| between isolated sign changes, which yields
the sharp sup-norm error constant of the rule.  A kernel formed in integers
is summed in integers alone (``l1_sum``): exactly where every root is exact
in one field, else as an enclosure [L, L + G] whose gap G is second order
in the width of the root brackets.

The order condition is read from the same node terms: I[(x-t)^r] minus all
of them is R[(x-t)^r], whose coefficient of t^(r-j) is binom(r, j)
(-1)^(r-j) R(e_j), so it vanishes exactly when the rule is exact on degree r.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import zip_longest

from ._qpoly import (_fderiv, _ints, _rule_ints, abs_integrals, int_horner, int_parts,
                     integrate_pieces, kernel_pieces, parts, remainder)
from .errors import OrderExceedsExactness
from .polynomials import Polynomial
from .roots import DEFAULT_ROOT_TOL, Root, isolate_roots
from .rules import QuadRule, _node_keys, _node_order
from .scalars import (Scalar, _dual, _quad_sign, as_scalar, get_working_dps, minus_terms,
                      quad_widened)


class PiecewisePolynomial:
    """Breakpoints -1 = b_0 < ... < b_m = 1 with piece i valid on (b_i, b_{i+1}].
    A kernel formed in integers keeps its pieces as ``exact``, (A_i, B_i, den, m)
    for (A_i + B_i*sqrt(m))/den, and ``pieces`` is their view, built on first read."""

    def __init__(self, breakpoints, pieces=None, exact=None):
        self.breakpoints, self.exact = tuple(breakpoints), exact
        if pieces is not None:
            self.pieces = tuple(pieces)

    @cached_property
    def pieces(self) -> tuple[Polynomial, ...]:
        return tuple(Polynomial.of_ints(*p) for p in self.exact)

    def __eq__(self, other):
        return (isinstance(other, PiecewisePolynomial) and self.breakpoints == other.breakpoints
                and self.pieces == other.pieces)

    def piece_index(self, t) -> int:
        t, last = as_scalar(t), len(self.breakpoints) - 2
        return next((i for i in range(last) if t <= self.breakpoints[i + 1]), last)

    def evaluate(self, t) -> Scalar:
        """Value at t, from the left piece at breakpoints; 0 outside [b_0, b_m]."""
        if t < self.breakpoints[0] or t > self.breakpoints[-1]:
            return Scalar(0)
        return self.pieces[self.piece_index(t)](t)

    __call__ = evaluate

    def integrate(self) -> Scalar:
        return self.integrate_against(Polynomial([1]))

    def integrate_against(self, g: Polynomial) -> Scalar:
        """Integral of (self * g) over [-1, 1], exact piecewise."""
        if self.exact is not None:  # in integers for g in Q or the pieces' field
            m, read = self.exact[0][3], int_parts(g.coeffs)
            if read is not None and (m == 1 or read[3] in (1, m)):
                G, H, e, gm = read
                return integrate_pieces(self.exact, G, H, e, max(m, gm), self.breakpoints)
        total = Scalar(0)
        for i, p in enumerate(self.pieces):
            total = total + (p * g).definite_integral(
                self.breakpoints[i], self.breakpoints[i + 1]
            )
        return total


@dataclass(frozen=True)
class KernelReport:
    order: int
    kernel: PiecewisePolynomial
    l1_norm: Scalar
    sign_changes: tuple[Root, ...]

    @property
    def radius(self) -> float:
        return self.l1_norm.radius()

    @property
    def continuity_flags(self) -> tuple[bool, ...]:
        """Whether the jump of K_r at each interior breakpoint passes ``zero_within``."""
        k = self.kernel
        return tuple((k.pieces[i - 1](b) - k.pieces[i](b)).zero_within()
                     for i, b in enumerate(k.breakpoints[1:-1], 1))


@lru_cache(maxsize=64)
def _integrals(r: int) -> tuple[Polynomial, Polynomial]:
    """(1-t)^(r+1)/(r+1) and I[(x-t)^r] = ((1-t)^(r+1) - (-1-t)^(r+1))/(r+1)."""
    lead = Polynomial([1, -1]) ** (r + 1) * Scalar(Fraction(1, r + 1))
    return lead, lead - Polynomial([-1, -1]) ** (r + 1) * Scalar(Fraction(1, r + 1))


def build_kernel(rule: QuadRule, r: int) -> PiecewisePolynomial:
    """Order-r Peano kernel of the rule; requires exactness degree >= r.

    At r = 0 the derivative-node sum carries a factor r and is omitted
    outright, so for rules with derivative nodes K_0 represents the value
    part of the functional only (the derivative weights would enter as point
    masses at the derivative nodes).  The full remainder identity therefore
    starts at r = 1 for such rules.

    The breakpoints are -1, 1 and the nodes in ``rules._node_order``; the
    term of the node at b_j is active on the pieces (b_i, b_(i+1)] with i < j.
    Plain exact data in Q or one Q(sqrt m) are read once (``_qpoly._rule_ints``),
    and the integers key the breakpoint order and form the node terms
    (``_qpoly.kernel_pieces``); that kernel is kept on the rule by r.
    Otherwise (interval, dual or mixed-radicand data) each node's term
    A_k (x_k - t)^r (or r B_k (y_k - t)^(r-1)) is formed once, and every
    piece subtracts the terms of its active nodes from the leading term in
    rule order, the same order whatever the tier of the data; that kernel is
    built on every call.

    ``OrderExceedsExactness`` is raised unless every coefficient of
    I[(x-t)^r] - (all node terms), formed by ``minus_terms``, passes ``zero_within``.
    """
    if r < 0:
        raise ValueError("kernel order must be nonnegative")
    kernels = vars(rule).setdefault("_kernels", {})
    if r in kernels:
        return kernels[r]
    nodes, read = rule.value_nodes + rule.deriv_nodes, _rule_ints(rule)
    points = [Scalar(-1), Scalar(1)] + [x for x, _ in nodes]
    if read is not None:  # nodes, then weights, over one denominator e
        G, H, e, m = read
        k = len(nodes)  # the weight of the node G[i] is at k + i
        bps, at = _node_order(points, *_node_keys([-e, e] + G[:k], [0, 0] + H[:k], m))
        # node terms s*w*(x - t)**n: r*w*(y - t)**(r-1) at derivative nodes, none at r = 0
        sn = [(1, r)] * len(rule.value_nodes) + [(r, r - 1)] * len(rule.deriv_nodes) * (r > 0)
        den, exact = kernel_pieces([(G[i], H[i], s * G[k + i], s * H[k + i], n, at[i + 2])
                                    for i, (s, n) in enumerate(sn)], e, r, m, len(bps) - 1)
        ok = exact is not None
    else:
        lead, moments = _integrals(r)
        terms = [Polynomial([x, -1]) ** r * a for x, a in rule.value_nodes]
        if r >= 1:
            terms += [Polynomial([y, -1]) ** (r - 1) * (b * r) for y, b in rule.deriv_nodes]
        ok = all(minus_terms(c, [t.coeffs[i] for t in terms if i < len(t.coeffs)]).zero_within()
                 for i, c in enumerate(moments.coeffs))
    if not ok:
        raise OrderExceedsExactness(
            f"rule {rule.name} is not exact on degree {r} polynomials; "
            f"the order-{r} kernel identity does not hold"
        )
    if read is not None:
        kernels[r] = PiecewisePolynomial(bps, exact=tuple((A, B, den, m) for A, B in exact))
        return kernels[r]
    bps, at = _node_order(points)  # after the order check, which may raise first
    pieces = []
    for i in range(len(bps) - 1):
        p = lead
        for term, j in zip(terms, at[2:]):
            if j > i:  # node at b_j >= right end b_(i+1): active on piece i
                p = p - term
        pieces.append(p * Scalar(Fraction(1, math.factorial(r))))
    return PiecewisePolynomial(tuple(bps), tuple(pieces))


def _piece_roots(kernel: PiecewisePolynomial) -> list[tuple[Polynomial, tuple[Root, ...]]]:
    """Each piece with its interior roots on (b_i, b_(i+1)], one
    ``isolate_roots`` call per piece of degree >= 1.  The pieces of an integer
    kernel are ``Polynomial.of_ints``, which the root engine reads as integers.
    Nodes of a dual rule that meet at x but part with it leave a piece of zero
    length (equal values, compared as plain copies): no roots there."""
    exact, bps = kernel.exact, kernel.breakpoints
    pieces = [Polynomial.of_ints(*p) for p in exact] if exact else kernel.pieces
    out = []
    for piece, lo, hi in zip(pieces, bps, bps[1:]):
        inside = piece.degree >= 1 and (exact or Scalar(lo) != Scalar(hi))
        out.append((piece, isolate_roots(piece, lo, hi) if inside else ()))
    return out


def _abs_sum(c: list[int], R: Fraction) -> Fraction:
    """sum |c_j| R**j: a bound on |c(t)| for |t| <= R."""
    return sum(abs(x) * R ** j for j, x in enumerate(c))


def l1_sum(pieces, ends, roots) -> Scalar:
    """The integral of |K_r| over [-1, 1] for a kernel's integer pieces
    (A, B, den, m), (A + B*sqrt(m))/den or (m = 0) (A + B*eps)/den, on the
    breakpoints ``ends``, pairs (p, q) for p + q*sqrt(m) or p + q*eps, given
    the roots inside each piece.  Every piece's |F(c') - F(c)| between its
    cuts (its ends and roots) goes into one integer sum over the whole
    kernel (``_qpoly.abs_integrals``) over Q, one Q(sqrt d), Q[eps] or
    Q(sqrt d)[eps]: d is m where a piece or an end is irrational, else the
    field of the first quadratic root (in a slope pass, of the first one
    whose piece has an eps part).

    A bracketed root tau is cut at the rational midpoint c of its exact
    bracket (``Root.bracket``), one exact in another field at that of its
    enclosure, of width w; a cut at or beyond a window end is left out.  As
    K(tau) = 0, each such cut undercounts by at most 2|int_tau^c K| <=
    sup|K'| (w/2)**2, so the value is [L, L + G], G the sum of those bounds,
    each end rounded once, outward (``scalars.quad_widened``).  sup|K'| over
    the bracket is the smaller of two integer bounds: the absolute values of
    the coefficients of K' summed at R, the larger end of the bracket, and
    |K'(c)| + sup|K''| w/2, with sqrt(m) read as ceil(sqrt(m)).  In a slope
    pass (m = 0) G reads A alone, and the eps part is within the sum of
    sup|B/den| * w of the true slope, sup over the bracket: first order in
    w."""
    m = pieces[0][3]
    if m > 1 and (any(q for _, q in ends) or any(any(B) for _, B, _, _ in pieces)):
        d = m
    else:
        quads = [(not (m == 0 and any(B)), rt.location._sqrt[2])
                 for (_, B, _, _), found in zip(pieces, roots) for rt in found if rt.location._sqrt]
        d = min(quads, key=lambda q: q[0], default=(0, 1))[1]
    root = math.isqrt(m - 1) + 1 if m > 1 else 0  # ceil(sqrt(m)); 0 where B is no part of the value
    cuts, gap, slack = [], 0, 0
    for (A, B, den, _), lo, hi, found in zip(pieces, ends, ends[1:], roots):
        cuts.append([lo])
        dA = None  # den * K' = dA + dB*sqrt(m), and absolute coefficient sums for |K'|, |K''|
        for rt in found:
            s = rt.location
            if s._frac is not None or s._sqrt and s._sqrt[2] == d:
                cuts[-1].append((s._frac, 0) if s._frac is not None else s._sqrt[:2])
                continue
            P, Q, e = rt.bracket[1:] if rt.bracket else _ints(*s.bounds())  # (P/e, Q/e)
            c = Fraction(P + Q, 2 * e)
            if _quad_sign(c - lo[0], -lo[1], m) == _quad_sign(hi[0] - c, hi[1], m) == 1:
                cuts[-1].append((c, 0))
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
            gap += Fraction(dK * w * w, den * e ** (k + 1) << (k + 2))  # sup|K'| (w/2)**2
            if not m:  # |B| <= |B(c)| + sup|B'| w/2 over the enclosure
                R, w = Fraction(R, e), Fraction(w, e)
                slack += (abs(sum(x * c**j for j, x in enumerate(B)))
                          + _abs_sum(_fderiv(B), R) * w / 2) * w / den
        cuts[-1].append(hi)
    total = abs_integrals(pieces, cuts, d)
    return _dual(quad_widened(total[0], total[1], d, 0, gap),
                 quad_widened(total[2], total[3], d, slack, slack))


def _kernel_l1(kernel: PiecewisePolynomial, found) -> Scalar:
    """The integral of |K_r| over [-1, 1], given the roots inside each piece
    (``_piece_roots``): a kernel formed in integers by ``l1_sum``, on its
    breakpoints as pairs (``_qpoly.parts``); any other in Scalar arithmetic,
    total + |F(c') - F(c)| term by term."""
    bps = kernel.breakpoints
    if kernel.exact:
        return l1_sum(kernel.exact, [parts(b) for b in bps], found)
    total = Scalar(0)
    for piece, roots, lo, hi in zip(kernel.pieces, found, bps, bps[1:]):
        F = piece.antiderivative()
        values = [F(s) for s in (lo, *(rt.location for rt in roots), hi)]
        for prev, cur in zip(values, values[1:]):
            total = total + abs(cur - prev)
    return total


def kernel_l1_norm(rule: QuadRule, r: int) -> KernelReport:
    """Sharp constant M_r = integral of |K_r| with sign changes isolated.

    The result is exact (rational, or a + b*sqrt(m)) whenever the rule's data
    lie in one Q(sqrt m) and every kernel root is rational or lies in it;
    otherwise a validated value whose radius is reported.  A continuity flag
    is True when the jump of K_r at that interior breakpoint passes
    ``Scalar.zero_within``.

    The report of a kernel formed in integers is kept on the rule, as the
    kernel is, by (r, working precision, ``roots.DEFAULT_ROOT_TOL``), so a
    rule that ``make_rule`` shares reads each M_r once per process.
    """
    reports, key = vars(rule).setdefault("_reports", {}), (r, get_working_dps(), DEFAULT_ROOT_TOL)
    if key in reports:
        return reports[key]
    kernel = build_kernel(rule, r)
    found = [roots for _, roots in _piece_roots(kernel)]
    report = KernelReport(order=r, kernel=kernel, l1_norm=_kernel_l1(kernel, found),
                          sign_changes=tuple(rt for roots in found for rt in roots))
    if kernel.exact is not None:
        reports[key] = report
    return report


def verify_peano_identity(rule: QuadRule, r: int, f: Polynomial) -> tuple[Scalar, Scalar]:
    """Both sides of the remainder identity for a polynomial f.

    Left: direct remainder I(f) - Q(f).  Right: integral of K_r * f^(r+1),
    computed by exact piecewise integration.  The contract is lhs == rhs
    (exactly so on rational data) for r >= 1, and for r = 0 on rules without
    derivative nodes (see build_kernel on the r = 0 convention).  Plain exact
    data in one Q(sqrt m) (``_qpoly.int_parts`` of f, and the rule's one
    integer read) take integers: the left by ``_qpoly.remainder``, the sum of
    f_k R(e_k) over the rule's power sums (the pass of
    ``degree_of_exactness``), which reads no kernel; the right from f^(r+1) by
    falling factorials, against the kernel's integer pieces over one
    denominator (``_qpoly.integrate_pieces``).
    """
    kernel, read, fread = build_kernel(rule, r), _rule_ints(rule), int_parts(f.coeffs)
    if read is None or fread is None or read[3] > 1 and fread[3] not in (1, read[3]):
        g = f
        for _ in range(r + 1):
            g = g.derivative()
        return f.definite_integral(-1, 1) - rule.apply(f), kernel.integrate_against(g)
    G, H, e, m = *fread[:3], max(fread[3], read[3])
    G1, H1 = ([c * math.perm(k, r + 1) for k, c in enumerate(P) if k > r] for P in (G, H))
    return (remainder(rule, G, H, e, m),
            integrate_pieces(kernel.exact, G1, H1, e, m, kernel.breakpoints))


# --------------------------------------------------------------------------
# export


def export_kernel_csv(report: KernelReport, path, points: int = 2001, digits: int = 17) -> None:
    """Columns t, K<r>(t) on a uniform grid of [-1, 1] (left-piece values)."""
    if points < 2:
        raise ValueError("need at least two grid points")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", f"K{report.order}"])
        for i in range(points):
            t = Scalar(Fraction(-1) + Fraction(2 * i, points - 1))
            w.writerow([t.to_decimal(digits), report.kernel.evaluate(t).to_decimal(digits)])


def kernel_report_json_dict(report: KernelReport, digits: int = 17) -> dict:
    k = report.kernel
    return {
        "order": report.order,
        "breakpoints": [b.to_json_str() for b in k.breakpoints],
        "pieces": [[c.to_json_str() for c in p.coeffs] for p in k.pieces],
        "l1_norm": report.l1_norm.to_json_str(),
        "l1_norm_decimal": report.l1_norm.to_decimal(digits),
        "radius": report.radius,
        "sign_changes": [rt.location.to_json_str() for rt in report.sign_changes],
        "continuity_flags": list(report.continuity_flags),
    }


def export_kernel_json(report: KernelReport, path, digits: int = 17) -> None:
    with open(path, "w") as fh:
        json.dump(kernel_report_json_dict(report, digits), fh, indent=2)
        fh.write("\n")
