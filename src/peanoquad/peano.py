"""Peano kernels as piecewise polynomials, and their L1 norms.

For a rule with degree of exactness at least r, the order-r kernel is

    r! K_r(t) = (1-t)^(r+1)/(r+1) - sum_{x_k>t} A_k (x_k-t)^r
                                  - r * sum_{y_k>t} B_k (y_k-t)^(r-1)

assembled here piece by piece between consecutive breakpoints (the union of
{-1, 1} and all nodes).  Pieces are left-open/right-closed, and node sums are
taken per piece so kernel values at breakpoints come from the left piece.
The L1 norm integrates |K_r| exactly between isolated sign changes, which
yields the sharp sup-norm error constant of the rule.

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
from functools import cmp_to_key, lru_cache

from ._qpoly import (_ints, add_abs_diff, antiderivative_values, integrate_pieces, kernel_pieces,
                     parts, plain_field, to_scalar)
from .errors import OrderExceedsExactness
from .polynomials import Polynomial
from .roots import Root, isolate_roots
from .rules import QuadRule
from .scalars import Scalar, _quad, as_scalar, minus_terms


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Breakpoints -1 = b_0 < ... < b_m = 1 with piece i valid on (b_i, b_{i+1}]."""

    breakpoints: tuple[Scalar, ...]
    pieces: tuple[Polynomial, ...]
    _exact = None  # not a field: (A_i, B_i, den, m) per piece, set by build_kernel

    def piece_index(self, t) -> int:
        t = as_scalar(t)
        for i in range(len(self.pieces)):
            if t <= self.breakpoints[i + 1]:
                return i
        return len(self.pieces) - 1

    def evaluate(self, t) -> Scalar:
        """Value at t, taken from the left piece at breakpoints."""
        return self.pieces[self.piece_index(t)](t)

    __call__ = evaluate

    def integrate(self) -> Scalar:
        return self.integrate_against(Polynomial([1]))

    def integrate_against(self, g: Polynomial) -> Scalar:
        """Integral of (self * g) over [-1, 1], exact piecewise."""
        if self._exact is not None:
            total = integrate_pieces(self._exact, g.coeffs, self.breakpoints)
            if total is not None:
                return total
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


def _breakpoints(rule: QuadRule) -> list[Scalar]:
    """-1, 1 and the nodes: equal values merged (the first instance stays), then
    sorted by the exact order.  Plain rationals by integer keys, plain values in
    one Q(sqrt m) on their parts and by an integer sign test; other values by
    Scalar == and < (nodes that overlap without being equal raise AmbiguousOrder)."""
    pts = [Scalar(-1), Scalar(1)] + [x for x, _ in rule.value_nodes + rule.deriv_nodes]
    m = plain_field(pts)
    if m is None:
        merged = []
        for x in pts:
            if x not in merged:
                merged.append(x)
        return sorted(merged)
    if m == 1:  # numerators over one denominator: equal for equal values, and in order
        by_key = dict(reversed([*zip(_ints(*(x._frac for x in pts)), pts)]))
        return [by_key[k] for k in sorted(by_key)]
    by_parts = {parts(x): x for x in reversed(pts)}
    order = cmp_to_key(lambda u, v: _quad(u[0] - v[0], u[1] - v[1], m).sign())
    return [by_parts[k] for k in sorted(by_parts, key=order)]


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

    Plain exact data over Q or one Q(sqrt m) are formed in integers
    (``_qpoly.kernel_pieces``), with the same Scalars as a result.  Otherwise
    each node's term A_k (x_k - t)^r (or r B_k (y_k - t)^(r-1)) is formed
    once; every piece then starts from the leading term and subtracts the
    terms of its active nodes in rule order, so each piece is summed in the
    same order whatever the tier of the data.

    ``OrderExceedsExactness`` is raised unless every coefficient of
    I[(x-t)^r] - (all node terms), formed by ``minus_terms``, passes ``zero_within``.
    """
    if r < 0:
        raise ValueError("kernel order must be nonnegative")
    nodes = [(x, a, r) for x, a in rule.value_nodes]
    if r >= 1:
        nodes += [(y, b * r, r - 1) for y, b in rule.deriv_nodes]
    m = plain_field([v for node in rule.value_nodes + rule.deriv_nodes for v in node])
    if m is not None:
        bps = _breakpoints(rule)
        index = {parts(b): j for j, b in enumerate(bps)}
        den, exact = kernel_pieces([(x, a, n, index[parts(x)]) for x, a, n in nodes], r, m,
                                   len(bps) - 1)
        ok = exact is not None
    else:
        lead, moments = _integrals(r)
        terms = [(x, Polynomial([x, -1]) ** n * a) for x, a, n in nodes]
        ok = all(minus_terms(c, [t.coeffs[i] for _, t in terms if i < len(t.coeffs)]).zero_within()
                 for i, c in enumerate(moments.coeffs))
    if not ok:
        raise OrderExceedsExactness(
            f"rule {rule.name} is not exact on degree {r} polynomials; "
            f"the order-{r} kernel identity does not hold"
        )
    if m is not None:
        kernel = PiecewisePolynomial(tuple(bps), tuple(Polynomial(
            [to_scalar((Fraction(a, den), b and Fraction(b, den), m)) for a, b in zip(A, B)])
            for A, B in exact))
        object.__setattr__(kernel, "_exact", [(A, B, den, m) for A, B in exact])
        return kernel
    bps = _breakpoints(rule)
    pieces = []
    for right in bps[1:]:
        p = lead
        for node, term in terms:
            if node.lt_definite(right) is not True:  # node >= right end: active on piece
                p = p - term
        pieces.append(p * Scalar(Fraction(1, math.factorial(r))))
    return PiecewisePolynomial(tuple(bps), tuple(pieces))


def kernel_l1_norm(rule: QuadRule, r: int) -> KernelReport:
    """Sharp constant M_r = integral of |K_r| with sign changes isolated.

    The result is exact (rational, or a + b*sqrt(m)) whenever the rule's data
    lie in one Q(sqrt m) and every kernel root is rational or lies in it;
    otherwise a validated value whose radius is reported.  A continuity flag
    is True when the jump of K_r at that interior breakpoint passes
    ``Scalar.zero_within``.  A kernel formed in integers is integrated in
    integers too (``_qpoly.antiderivative_values`` and ``add_abs_diff``).
    """
    kernel = build_kernel(rule, r)
    exact = kernel._exact
    total = (Fraction(0), Fraction(0), 1)
    roots: list[Root] = []
    for i, piece in enumerate(kernel.pieces):
        lo, hi = kernel.breakpoints[i], kernel.breakpoints[i + 1]
        if piece.is_zero:
            continue
        # nodes of a dual pass that meet at x but part with it leave a piece of
        # zero length (equal values, compared as plain copies): no roots there
        inside = piece.degree >= 1 and (exact or Scalar(lo) != Scalar(hi))
        piece_roots = isolate_roots(piece, lo, hi) if inside else ()
        cuts = [lo] + [rt.location for rt in piece_roots] + [hi]
        values = antiderivative_values(*exact[i], cuts) if exact else [None] * len(cuts)
        if any(v is None for v in values):
            F = piece.antiderivative()
            values = [F(s) if v is None else v for s, v in zip(cuts, values)]
        for prev, cur in zip(values, values[1:]):
            total = add_abs_diff(total, cur, prev)
        roots.extend(piece_roots)
    return KernelReport(order=r, kernel=kernel, l1_norm=to_scalar(total), sign_changes=tuple(roots))


def verify_peano_identity(rule: QuadRule, r: int, f: Polynomial) -> tuple[Scalar, Scalar]:
    """Both sides of the remainder identity for a polynomial f.

    Left: direct remainder I(f) - Q(f).  Right: integral of K_r * f^(r+1),
    computed by exact piecewise integration.  The contract is lhs == rhs
    (exactly so on rational data) for r >= 1, and for r = 0 on rules without
    derivative nodes (see build_kernel on the r = 0 convention).
    """
    lhs = f.definite_integral(-1, 1) - rule.apply(f)
    g = f
    for _ in range(r + 1):
        g = g.derivative()
    rhs = build_kernel(rule, r).integrate_against(g)
    return lhs, rhs


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
