"""Shared helpers for the test suite."""

import math
import random
from fractions import Fraction as F

from peanoquad import (KernelReport, OrderExceedsExactness, PiecewisePolynomial, Polynomial,
                       QuadRule, Scalar, custom_rule, isolate_roots)
from peanoquad.peano import _breakpoints, _integrals
from peanoquad.scalars import minus_terms


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
    bps = _breakpoints(rule)
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
