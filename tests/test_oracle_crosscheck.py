"""Independent numeric oracles against the exact/validated pipeline.

These tests recompute kernel norms with a completely separate method
(floating high-precision kernel evaluation, dense sign scans, adaptive
quadrature) and compare against the library's exact piecewise integration.
"""

from fractions import Fraction as F

import mpmath
import pytest

from peanoquad import (
    degree_of_exactness,
    error_bound,
    kernel_l1_norm,
    make_rule,
    rule_from_json,
    rule_to_json,
)


def _numeric_rule(rule):
    with mpmath.workdps(40):
        vals = [(mpmath.mpf(x.to_decimal(38)), mpmath.mpf(w.to_decimal(38)))
                for x, w in rule.value_nodes]
        ders = [(mpmath.mpf(y.to_decimal(38)), mpmath.mpf(w.to_decimal(38)))
                for y, w in rule.deriv_nodes]
    return vals, ders


def _oracle_l1(rule, r, lo=-1, hi=1):
    """Integrate |K_r| by sign-scan splitting and adaptive quadrature."""
    vals, ders = _numeric_rule(rule)

    def kernel(t):
        s = (hi - t) ** (r + 1) / (r + 1)
        for x, a in vals:
            if x > t:
                s -= a * (x - t) ** r
        if r >= 1:
            for y, b in ders:
                if y > t:
                    s -= r * b * (y - t) ** (r - 1)
        return s / mpmath.factorial(r)

    with mpmath.workdps(40):
        breaks = sorted({mpmath.mpf(lo), mpmath.mpf(hi)}
                        | {x for x, _ in vals} | {y for y, _ in ders})
        off = mpmath.mpf("0.2718281828459045")
        total = mpmath.mpf(0)
        for a, b in zip(breaks[:-1], breaks[1:]):
            n = 1201
            pts = [a] + [a + (b - a) * (i + off) / n for i in range(n)] + [b]
            splits = [a]
            for p, q in zip(pts[:-1], pts[1:]):
                fp, fq = kernel(p), kernel(q)
                if fp * fq < 0:
                    x0, x1, f0 = p, q, fp
                    for _ in range(140):
                        m = (x0 + x1) / 2
                        fm = kernel(m)
                        if f0 * fm <= 0:
                            x1 = m
                        else:
                            x0, f0 = m, fm
                    splits.append((x0 + x1) / 2)
            splits.append(b)
            for u, v in zip(splits[:-1], splits[1:]):
                total += abs(mpmath.quad(kernel, [u, v]))
        return total


CASES = [
    ("simpson", {}, 3),
    ("mp3", {"x": F(2, 5)}, 1),
    ("mod3_opt", {"x": F(1, 5)}, 2),
    ("gs2", {"x": F(7, 10)}, 1),
    ("gauss_legendre2", {}, 3),
    ("radau2", {}, 2),
    ("alomari4", {"lam": F(1, 5), "x": F(1, 2)}, 1),
    ("lobatto4", {}, 4),
    ("liu_park", {"x": F(3, 10)}, 1),
    ("liu_park_gauss", {}, 3),
    ("dragomir_sofo", {"x": F(2, 5)}, 1),
    ("q44", {"lam": F(1, 3), "gamma": F(1, 20), "delta": F(-1, 30), "x": F(1, 2)}, 1),
]


@pytest.mark.parametrize("name,params,r_max", CASES, ids=lambda v: str(v))
def test_l1_norm_matches_independent_quadrature(name, params, r_max):
    rule = make_rule(name, **params)
    r_lo = 1 if rule.deriv_nodes else 0
    for r in range(r_lo, r_max + 1):
        ours = kernel_l1_norm(rule, r).l1_norm
        ref = _oracle_l1(rule, r)
        assert abs(float(ours) - float(ref)) < 1e-13, (name, r)


def test_mapped_functional_kernel_matches_scaled_bound():
    """Build the kernel of the mapped functional on [a, b] directly and
    compare its L1 norm against M_r h^(r+2)."""
    a, b = F(1, 4), F(7, 4)  # h = 3/4
    h, mid = (b - a) / 2, (a + b) / 2
    for name, r in [("simpson", 3), ("radau2", 2), ("liu_park_gauss", 2)]:
        rule = make_rule(name)

        class _Shim:
            value_nodes = [(mid + x * h, w * h) for x, w in rule.value_nodes]
            deriv_nodes = [(mid + y * h, w * h * h) for y, w in rule.deriv_nodes]

        ref = _oracle_l1(_Shim, r, lo=float(a), hi=float(b))
        want = error_bound(rule, r, 1, a, b)
        assert abs(float(ref) - float(want)) < 1e-13, name


def test_reimported_sqrt_rule_keeps_its_degree():
    # sqrt provenance survives the JSON round trip, so the reimported
    # two-point Gauss rule still certifies degree 3 exactly
    rule = rule_from_json(rule_to_json(make_rule("gauss_legendre2")))
    report = degree_of_exactness(rule)
    assert report.degree == 3
    assert report.ambiguous_indices == ()
    ours = kernel_l1_norm(rule, 3).l1_norm
    assert abs(float(ours) - 1 / 135) < 1e-12


def test_reimported_double_node_rule_keeps_its_degree():
    rule = rule_from_json(rule_to_json(make_rule("liu_park_gauss")))
    assert degree_of_exactness(rule).degree == 3
