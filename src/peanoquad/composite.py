"""Composite integration with an a-priori error certificate.

Splitting [a, b] into n equal panels and applying a rule of sharp constant
M_r on each panel gives the additive certificate

    n * M_r * h^(r+2) * deriv_sup,    h = (b - a) / (2n),

valid whenever deriv_sup really bounds |f^(r+1)| on [a, b].  The derivative
bound is always caller-asserted; nothing here differentiates a black box.

The rule is mapped once per call, not once per panel: node offsets and
scaled weights are formed once, and f is summed node by node over the
panels (``rules._sum_panels``, the same path ``apply_rule`` takes).  Exact
nodes are stepped in integers.  A user's f is called once per panel node,
with Scalars; a named float integrand (``integrands``) is evaluated once per
distinct node, from those integers.  Float values are summed exactly as
dyadic rationals, a Polynomial with exact coefficients in closed form from
deg + 1 values formed in integers.  For exact data the value equals the
panel-by-panel sum exactly.

The certificate covers the truncation error alone: it still ignores the
rounding error of evaluating f in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadInterval
from .peano import kernel_l1_norm
from .rules import QuadRule, _sum_panels
from .scalars import Scalar, as_scalar


@dataclass(frozen=True)
class CompositeResult:
    value: Scalar
    panels: int
    rule_name: str
    order_used: int
    certificate: Scalar
    deriv_sup_asserted: Scalar


def _certificate(rule: QuadRule, r: int, a, b, deriv_sup):
    """n -> n * M_r * h^(r+2) * deriv_sup with h = (b - a) / (2n): the error
    certificate of the rule on n equal panels of [a, b].  M_r is computed
    once; a < b and deriv_sup >= 0 must be provable."""
    a, b, deriv_sup = as_scalar(a), as_scalar(b), as_scalar(deriv_sup)
    if not a.lt_definite(b):
        raise BadInterval(f"need a < b, got [{a}, {b}]")
    if deriv_sup.lt_definite(0) is not False:  # an enclosure straddling 0 too
        raise ValueError("deriv_sup must be nonnegative")
    m_r = kernel_l1_norm(rule, r).l1_norm  # raises OrderExceedsExactness if r > d
    return lambda n: n * m_r * ((b - a) / (2 * n)) ** (r + 2) * deriv_sup


def composite_integrate(
    rule: QuadRule,
    f,
    a,
    b,
    n: int,
    r: int,
    deriv_sup,
    fprime=None,
) -> CompositeResult:
    """Apply the rule on n equal panels of [a, b]; certify the total error.

    The certificate bounds |integral - value| whenever `deriv_sup` is a valid
    sup norm of f^(r+1) on [a, b].  The value is summed node by node: the
    values of f at node j of every panel form one sum, weighted once.  For
    exact data this is exactly the sum of the panels taken one by one.
    """
    if n < 1:
        raise ValueError("need at least one panel")
    certificate = _certificate(rule, r, a, b, deriv_sup)(n)
    return CompositeResult(
        value=_sum_panels(rule, f, a, b, n, fprime),
        panels=n,
        rule_name=rule.name,
        order_used=r,
        certificate=certificate,
        deriv_sup_asserted=as_scalar(deriv_sup),
    )


def panels_for_tolerance(rule: QuadRule, r: int, deriv_sup, a, b, eps) -> int:
    """Smallest panel count whose certificate is at most eps.

    The certificate falls as n^-(r+1), so the count is found by doubling n
    until the certificate is small enough, then bisecting; every comparison
    is exact or validated, at any size of eps or deriv_sup; a certificate
    not provably at most eps counts as too few panels.
    """
    certificate = _certificate(rule, r, a, b, deriv_sup)
    eps = as_scalar(eps)
    if not eps > Scalar(0):
        raise ValueError("eps must be positive")

    def too_few(n: int) -> bool:
        return eps.lt_definite(certificate(n)) is not False

    if not too_few(1):
        return 1
    lo, hi = 1, 2  # too_few(lo) holds throughout, too_few(hi) fails on exit
    while too_few(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if too_few(mid):
            lo = mid
        else:
            hi = mid
    return hi
