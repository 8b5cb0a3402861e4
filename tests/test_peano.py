"""Peano kernels: closed-form piece displays, L1 norms, the remainder identity."""

import csv
import json
import math
import random
from fractions import Fraction as F

import mpmath
import pytest

from peanoquad import (
    AmbiguousOrder,
    PiecewisePolynomial,
    QuadRule,
    OrderExceedsExactness,
    Polynomial,
    Scalar,
    build_kernel,
    catalog_names,
    custom_rule,
    degree_of_exactness,
    export_kernel_csv,
    export_kernel_json,
    family,
    integral_of_monomial,
    kernel_l1_norm,
    make_rule,
    remainder_on_monomial,
    set_working_dps,
    sqrt,
    verify_peano_identity,
)
from peanoquad.scalars import _Dual, _dual
from peanoquad._qpoly import _fmul, int_parts, remainder
from peanoquad.peano import _piece_roots
from peanoquad.roots import isolate_roots
from peanoquad.rules import _merge_nodes
from util import (SCAN_FAMILIES, assert_scalar_equals, exactness_fingerprint, no_wider_overlapping,
                  random_rational_rule, reference_breakpoints, reference_build_kernel,
                  reference_degree_of_exactness, reference_kernel_l1_norm, reference_merge_nodes,
                  reference_signature, reference_verify_peano_identity, scalar_is_zero, unshared)

S3 = sqrt(Scalar(3))
S5 = sqrt(Scalar(5))
ONE = Scalar(1)


def check_pieces(rule, r, cases):
    """cases: list of (t, expected-Scalar); kernel evaluated with left-piece rule."""
    k = build_kernel(rule, r)
    for t, want in cases:
        got = k.evaluate(Scalar(t))
        assert scalar_is_zero(got - want), (
            f"{rule.name} K_{r}({t}): got {float(got)}, want {float(want)}"
        )


# ---------------------------------------------------------------------------
# kernel piece displays


def test_ostrowski_kernel_order0():
    x = F(1, 4)
    rule = make_rule("ostrowski", x=x)
    cases = [(t, Scalar(-1 - t)) for t in [F(-9, 10), F(-1, 2), F(0), x]]
    cases += [(t, Scalar(1 - t)) for t in [F(1, 2), F(3, 4), F(1)]]
    check_pieces(rule, 0, cases)


def test_ostrowski_midpoint_kernel_order1():
    rule = make_rule("ostrowski", x=0)
    cases = [(t, Scalar((1 + t) ** 2) / 2) for t in [F(-3, 4), F(-1, 5), F(0)]]
    cases += [(t, Scalar((1 - t) ** 2) / 2) for t in [F(1, 4), F(9, 10)]]
    check_pieces(rule, 1, cases)


def test_mp3_kernels():
    x = F(1, 2)
    rule = make_rule("mp3", x=x)
    check_pieces(rule, 0, [
        (F(-1, 2), Scalar((x - 2 * F(-1, 2) - 1)) / 2),
        (F(1, 4), Scalar((x - 2 * F(1, 4) - 1)) / 2),
        (F(3, 4), Scalar((x - 2 * F(3, 4) + 1)) / 2),
    ])
    check_pieces(rule, 1, [
        (t, Scalar((1 + t) * (t - x)) / 2) for t in [F(-1, 2), F(0), F(1, 2)]
    ] + [
        (t, Scalar((-1 + t) * (t - x)) / 2) for t in [F(3, 5), F(9, 10)]
    ])


def test_mod3_opt_kernels():
    x = F(1, 2)
    rule = make_rule("mod3_opt", x=x)
    check_pieces(rule, 0, [
        (t, Scalar(-t - F(2, 3) / (1 + x))) for t in [F(-1, 2), F(0), F(2, 5)]
    ] + [
        (t, Scalar(-t + F(2, 3) / (1 - x))) for t in [F(3, 5), F(4, 5)]
    ])
    check_pieces(rule, 1, [
        (t, Scalar((1 + t) * (3 * t * x + 3 * t - 3 * x + 1)) / (6 * (1 + x)))
        for t in [F(-1, 2), F(0), F(2, 5)]
    ] + [
        (t, Scalar((1 - t) * (3 * t * x - 3 * t + 3 * x + 1)) / (6 * (1 - x)))
        for t in [F(3, 5), F(9, 10)]
    ])
    check_pieces(rule, 2, [
        (t, Scalar((1 + t) ** 2 * (2 * x - t * (1 + x))) / (6 * (1 + x)))
        for t in [F(-1, 2), F(0), F(2, 5)]
    ] + [
        (t, Scalar((1 - t) ** 2 * (2 * x - t * (1 - x))) / (6 * (1 - x)))
        for t in [F(3, 5), F(9, 10)]
    ])


def test_dcr_kernel_order0():
    lam, x = F(1, 4), F(3, 10)
    rule = make_rule("dcr", lam=lam, x=x)
    check_pieces(rule, 0, [
        (t, Scalar(-1 - t + lam)) for t in [F(-1, 2), F(0), x]
    ] + [
        (t, Scalar(1 - t - lam)) for t in [F(1, 2), F(9, 10)]
    ])


def test_simpson_kernels_all_orders():
    rule = make_rule("simpson")
    check_pieces(rule, 0, [
        (F(-1, 2), Scalar(-1 - F(-1, 2) + F(1, 3))),
        (F(1, 2), Scalar(1 - F(1, 2) - F(1, 3))),
    ])
    check_pieces(rule, 1, [
        (t, Scalar(1 + 4 * t + 3 * t * t) / 6) for t in [F(-3, 4), F(-1, 4)]
    ] + [
        (t, Scalar(1 - 4 * t + 3 * t * t) / 6) for t in [F(1, 4), F(3, 4)]
    ])
    check_pieces(rule, 2, [
        (t, Scalar(-t * (1 + t) ** 2) / 6) for t in [F(-3, 4), F(-1, 4)]
    ] + [
        (t, Scalar(-t * (1 - t) ** 2) / 6) for t in [F(1, 4), F(3, 4)]
    ])
    k3 = build_kernel(rule, 3)
    assert k3.pieces[0] == Polynomial([1, 1]) ** 3 * Polynomial([-1, 3]) * Scalar(F(1, 72))
    assert k3.pieces[1] == Polynomial([1, -1]) ** 3 * Polynomial([1, 3]) * Scalar(F(-1, 72))


def test_gs2_kernels():
    x = F(1, 2)
    rule = make_rule("gs2", x=x)
    check_pieces(rule, 0, [
        (F(-3, 4), Scalar(-1 - F(-3, 4))),
        (F(0), Scalar(0)),
        (F(1, 4), Scalar(-F(1, 4))),
        (F(3, 4), Scalar(1 - F(3, 4))),
    ])
    check_pieces(rule, 1, [
        (F(-3, 4), Scalar((1 - 3 * F(1, 4)) ** 2) / 2),
        (F(0), Scalar(1 + 0 - 2 * x) / 2),
        (F(2, 5), Scalar(1 + F(4, 25) - 2 * x) / 2),
        (F(3, 4), Scalar((1 - F(3, 4)) ** 2) / 2),
    ])


def test_gauss_legendre2_kernels():
    rule = make_rule("gauss_legendre2")
    inv = ONE / S3
    check_pieces(rule, 2, [
        (F(-4, 5), Scalar(-F(1, 6)) * (1 + Scalar(F(-4, 5))) ** 3),
        (F(0), Scalar(0)),
        (F(2, 5), -Scalar(F(2, 5)) / 6 * (Scalar(3) - 2 * S3 + Scalar(F(4, 25)))),
        (F(4, 5), Scalar(F(1, 6)) * (1 - Scalar(F(4, 5))) ** 3),
    ])
    t = Scalar(F(1, 5))
    check_pieces(rule, 3, [
        (F(-9, 10), Scalar(F(1, 24)) * (1 + Scalar(F(-9, 10))) ** 4),
        (F(1, 5), (9 * t**4 - 18 * (2 * S3 - 3) * t**2 - 4 * S3 + 9) / 216),
        (F(9, 10), Scalar(F(1, 24)) * (1 - Scalar(F(9, 10))) ** 4),
    ])
    # interior piece boundary belongs to the middle piece's left neighbor
    b = inv
    left_val = build_kernel(rule, 3).evaluate(-b)
    want = Scalar(F(1, 24)) * (1 - b) ** 4
    assert scalar_is_zero(left_val - want)


def test_franjic_kernels():
    x = F(3, 5)
    rule = make_rule("franjic", x=x)
    check_pieces(rule, 0, [
        (t, Scalar(1 - t - 2 / (1 + Scalar(x)))) for t in [F(-1, 2), F(0), F(1, 2)]
    ] + [
        (t, Scalar(1 - t)) for t in [F(7, 10), F(19, 20)]
    ])
    # right piece (1-t)^2/2: no node sits right of x, so only the lead term
    # survives; it also matches the left piece value (1-x)^2/2 at t = x
    check_pieces(rule, 1, [
        (t, Scalar((t + 1) * (t * x + t - 3 * x + 1)) / (2 * (x + 1)))
        for t in [F(-1, 2), F(0), F(1, 2)]
    ] + [
        (t, Scalar((1 - t) ** 2) / 2) for t in [F(7, 10), F(19, 20)]
    ])


def test_radau2_kernel_order2():
    rule = make_rule("radau2")
    check_pieces(rule, 2, [
        (t, Scalar((1 - 2 * t) * (1 + t) ** 2) / 12) for t in [F(-1, 2), F(0), F(1, 4)]
    ] + [
        (t, Scalar((1 - t) ** 3) / 6) for t in [F(1, 2), F(4, 5)]
    ])


def test_alomari4_kernels():
    lam, x = F(1, 5), F(2, 3)
    rule = make_rule("alomari4", lam=lam, x=x)
    check_pieces(rule, 0, [
        (F(-4, 5), Scalar(-1 - F(-4, 5) + lam)),
        (F(0), Scalar(0)),
        (F(1, 2), Scalar(-F(1, 2))),
        (F(4, 5), Scalar(1 - F(4, 5) - lam)),
    ])
    check_pieces(rule, 1, [
        (F(-4, 5), Scalar((1 + F(-4, 5)) * (1 + F(-4, 5) - 2 * lam)) / 2),
        (F(1, 2), Scalar(1 + F(1, 4) - 2 * x * (1 - lam) - 2 * lam) / 2),
        (F(4, 5), Scalar((1 - F(4, 5)) * (1 - F(4, 5) - 2 * lam)) / 2),
    ])


def test_lobatto4_kernels():
    rule = make_rule("lobatto4")
    t1, t2, t3 = Scalar(F(-7, 10)), Scalar(F(3, 10)), Scalar(F(4, 5))
    check_pieces(rule, 2, [
        (F(-7, 10), -((1 + t1) ** 2) * (1 + 2 * t1) / 12),
        (F(3, 10), -t2 * (2 - S5 + t2**2) / 6),
        (F(4, 5), (1 - t3) ** 2 * (1 - 2 * t3) / 12),
    ])
    check_pieces(rule, 3, [
        (F(-7, 10), (1 + t1) ** 3 * (1 + 3 * t1) / 72),
        (F(3, 10), (Scalar(5) - 2 * S5 + 30 * (Scalar(2) - S5) * t2**2 + 15 * t2**4) / 360),
        (F(4, 5), (1 - t3) ** 3 * (1 - 3 * t3) / 72),
    ])
    check_pieces(rule, 4, [
        (F(-7, 10), -((1 + t1) ** 4) * (1 + 6 * t1) / 720),
        (F(3, 10), t2 * (2 * S5 - 5 + 10 * (S5 - Scalar(2)) * t2**2 - 3 * t2**4) / 360),
        (F(4, 5), (1 - t3) ** 4 * (1 - 6 * t3) / 720),
    ])
    check_pieces(rule, 5, [
        (F(-7, 10), t1 * (1 + t1) ** 5 / 720),
        (F(3, 10), (t2**6 - 5 * (S5 - Scalar(2)) * t2**4 + (Scalar(5) - 2 * S5) * t2**2 - S5 / 25) / 720),
        (F(4, 5), -t3 * (1 - t3) ** 5 / 720),
    ])


def test_liu_park_kernels():
    x = F(1, 2)
    rule = make_rule("liu_park", x=x)
    # note: the third piece is (1 - 2t)/2, the odd mirror of the first piece
    check_pieces(rule, 0, [
        (F(-4, 5), Scalar(-(1 + 2 * F(-4, 5))) / 2),
        (F(-1, 5), Scalar(F(1, 5))),
        (F(1, 5), Scalar(-F(1, 5))),
        (F(4, 5), Scalar(1 - 2 * F(4, 5)) / 2),
    ])
    check_pieces(rule, 1, [
        (F(-4, 5), Scalar(F(-4, 5) * (1 + F(-4, 5))) / 2),
        (F(1, 5), Scalar(F(1, 25)) / 2),
        (F(4, 5), Scalar(F(4, 5) * (F(4, 5) - 1)) / 2),
    ])


def test_liu_park_gauss_kernels():
    rule = make_rule("liu_park_gauss")
    t1, t2, t3 = Scalar(F(-4, 5)), Scalar(F(1, 5)), Scalar(F(4, 5))
    check_pieces(rule, 2, [
        (F(-4, 5), (1 + t1) ** 2 * (1 - 2 * t1) / 12),
        (F(1, 5), -(t2**3) / 6),
        (F(4, 5), -((1 - t3) ** 2) * (1 + 2 * t3) / 12),
    ])
    check_pieces(rule, 3, [
        (F(-4, 5), (t1 - 1) * (t1 + 1) ** 3 / 24),
        (F(1, 5), (9 * t2**4 + 4 * S3 - 9) / 216),
        (F(4, 5), (t3 - 1) ** 3 * (t3 + 1) / 24),
    ])


def test_dragomir_sofo_order_zero_ignores_derivative_nodes():
    x = F(2, 5)
    rule = make_rule("dragomir_sofo", x=x)
    # r = 0: the derivative sum carries a factor r and vanishes identically
    check_pieces(rule, 0, [
        (F(-1, 2), Scalar(1 - F(-1, 2) - 2) + Scalar(F(1, 2))),
        (F(9, 10), Scalar(1 - F(9, 10) - F(1, 2))),
    ])


# ---------------------------------------------------------------------------
# L1 norms (sharp constants)


@pytest.mark.parametrize(
    "rule_name,params,r,expected",
    [
        ("simpson", {}, 0, F(5, 9)),
        ("simpson", {}, 1, F(8, 81)),
        ("simpson", {}, 2, F(1, 36)),
        ("simpson", {}, 3, F(1, 90)),
        ("ostrowski", {"x": F(1, 4)}, 0, F(17, 16)),      # 1 + x^2
        ("mp3", {"x": F(1, 2)}, 0, F(5, 8)),              # (1+x^2)/2
        ("mp3", {"x": F(1, 2)}, 1, F(7, 24)),             # (1+3x^2)/6
        ("radau2", {}, 0, F(25, 36)),
        ("radau2", {}, 1, F(1, 6)),
        ("radau2", {}, 2, F(2, 27)),
    ],
)
def test_rational_l1_norms_exact(rule_name, params, r, expected):
    rep = kernel_l1_norm(make_rule(rule_name, **params), r)
    assert rep.l1_norm.is_rational
    assert rep.l1_norm.as_fraction() == expected
    assert rep.radius == 0.0


def test_gauss_legendre2_constants():
    rule = make_rule("gauss_legendre2")
    m2 = kernel_l1_norm(rule, 2)
    want = (Scalar(9) - 4 * S3) / 108
    assert_scalar_equals(m2.l1_norm, want, tol=1e-12)
    assert m2.radius < 1e-13
    m3 = kernel_l1_norm(rule, 3)
    assert m3.l1_norm.as_fraction() == F(1, 135)


@pytest.mark.parametrize("dps", [20, 60, 120])
def test_quadratic_field_constants_exact_at_any_precision(dps):
    set_working_dps(dps)
    try:
        gl2, lob4 = make_rule("gauss_legendre2"), make_rule("lobatto4")
        assert kernel_l1_norm(gl2, 2).l1_norm == Scalar("1/12-1/27*sqrt(3)")
        assert kernel_l1_norm(lob4, 2).l1_norm == Scalar("1/32-1/90*sqrt(5)")
        assert kernel_l1_norm(lob4, 4).l1_norm == Scalar("1/9000*sqrt(5)")
        [root] = kernel_l1_norm(gl2, 2).sign_changes
        assert root.is_exact() and root.location == 0
        exact = [rt.location for rt in kernel_l1_norm(lob4, 1).sign_changes if rt.is_exact()]
        assert exact == [Scalar(F(-2, 3)), Scalar(F(2, 3))]
        for name in ("simpson", "radau2", "gauss_legendre2", "lobatto4", "liu_park_gauss"):
            rule = make_rule(name)
            for r in range(degree_of_exactness(rule).degree + 1):
                rep = kernel_l1_norm(rule, r)
                assert rep.l1_norm.is_exact or rep.radius <= 1e-20, (name, r, rep.radius)
    finally:
        set_working_dps(60)


def _mod3_sqrt_rule():
    return make_rule("mod3", x=Scalar("sqrt(1/8)"), lam=Scalar("sqrt(1/27)"))


@pytest.mark.parametrize("dps", [15, 20, 30])
def test_zero_test_follows_working_precision(dps):
    # the weights at -1 and 1 mix sqrt(2) and sqrt(3), so the remainders are
    # intervals whose width shrinks with the precision; a fixed 1e-30 zero
    # width called R(e_0) nonzero below 40 digits
    lo, hi = kernel_l1_norm(_mod3_sqrt_rule(), 1).l1_norm.bounds()
    set_working_dps(dps)
    try:
        rule = _mod3_sqrt_rule()
        report = degree_of_exactness(rule)
        assert report.degree == 1 and report.ambiguous_indices == ()
        rep = kernel_l1_norm(rule, 1)
        assert rep.continuity_flags == (True,)
        low, high = rep.l1_norm.bounds()
        assert low <= lo and hi <= high
    finally:
        set_working_dps(60)


def _reference_kernel_pieces(rule, r, breakpoints):
    """The per-piece assembly build_kernel replaced: each piece forms the
    power (x_k - t)^r of every active node again, by repeated multiplication."""

    def affine_power(c, n):
        out = Polynomial([1])
        for _ in range(n):
            out = out * Polynomial([c, -1])
        return out

    lead = affine_power(1, r + 1) * Scalar(F(1, r + 1))
    pieces = []
    for right in breakpoints[1:]:
        p = lead
        for x, a in rule.value_nodes:
            if x.lt_definite(right) is not True:
                p = p - affine_power(x, r) * a
        if r >= 1:
            for y, b in rule.deriv_nodes:
                if y.lt_definite(right) is not True:
                    p = p - affine_power(y, r - 1) * (b * r)
        pieces.append(p * Scalar(F(1, math.factorial(r))))
    return pieces


def _kernel_reference_rules():
    rng = random.Random(2024)

    def x():
        return F(rng.randint(1, 9), 10)

    def narrow(q):
        return Scalar.from_interval(q - F(1, 10**40), q + F(1, 10**40))

    rules = [
        make_rule("ostrowski", x=x()),
        make_rule("mp3", x=x()),
        make_rule("mod3", x=x(), lam=x()),
        make_rule("mod3_opt", x=x()),
        make_rule("simpson"),
        make_rule("dcr", lam=F(1, 5), x=x() / 2),
        make_rule("gs2", x=x()),
        make_rule("gauss_legendre2"),
        make_rule("franjic", x=x()),
        make_rule("radau2"),
        make_rule("alomari2", lam=F(0), x=-x(), y=x()),
        make_rule("alomari4", lam=x(), x=x()),
        make_rule("lobatto4"),
        make_rule("liu_park", x=x()),
        make_rule("liu_park_gauss"),
        make_rule("dragomir_sofo", x=x()),
        make_rule("q44", lam=x(), gamma=F(rng.randint(-3, 3), 10), delta=-x(), x=x()),
        _mod3_sqrt_rule(),
        make_rule("gs2", x=narrow(F(1, 2))),
        custom_rule("interval_simpson", [(-1, narrow(F(1, 3))), (narrow(F(0)), F(4, 3)), (1, F(1, 3))]),
        custom_rule("interval_double_node", [(-1, F(1, 2)), (narrow(F(1, 3)), F(3, 2))],
                    [(narrow(F(1, 3)), narrow(F(1, 7)))]),
    ]
    for i in range(10):
        rules.append(random_rational_rule(rng, with_derivs=i % 2 == 1, force_degree_one=i % 4 == 1))
    return rules


def test_build_kernel_matches_per_piece_reference():
    # same bits, interval enclosures included: a reordered sum fails this
    for rule in _kernel_reference_rules():
        for r in range(min(degree_of_exactness(rule, k_max=8).degree, 6) + 1):
            kernel = build_kernel(rule, r)
            want = _reference_kernel_pieces(rule, r, kernel.breakpoints)
            assert len(kernel.pieces) == len(want)
            for got_p, want_p in zip(kernel.pieces, want):
                assert len(got_p.coeffs) == len(want_p.coeffs), (rule.name, r)
                for c, w in zip(got_p.coeffs, want_p.coeffs):
                    assert c.to_json_str() == w.to_json_str(), (rule.name, r)
                    assert c.bounds() == w.bounds(), (rule.name, r)


def _order_check_rules():
    """The catalog, 50 seeded rational rules, the mod3 sqrt rule, dual-number
    rules of every scannable family, and rules with interval data."""
    rng = random.Random(88)
    rules = _kernel_reference_rules()
    rules += [random_rational_rule(rng, with_derivs=i % 2 == 1, force_degree_one=i % 4 == 1)
              for i in range(40)]
    for name, fixed, x in [("ostrowski", {}, F(1, 3)), ("mp3", {}, F(1, 2)),
                           ("mod3", {"lam": F(1, 2)}, F(1, 4)), ("mod3_opt", {}, F(1, 3)),
                           ("gs2", {}, F(1, 2)), ("franjic", {}, F(1, 5)),
                           ("alomari4", {"lam": F(1, 5)}, F(2, 5)), ("liu_park", {}, F(1, 4)),
                           ("dragomir_sofo", {}, F(1, 2)),
                           ("q44", {"lam": F(1, 5), "gamma": F(1, 30), "delta": F(1, 10)}, F(1, 2))]:
        for seed in (1, -1):
            rules.append(family(name, **fixed).build(_Dual(x, seed)))
    wobble = _narrow(F(0), 50)
    rules += [
        _simpson_with_tiny_derivative_nodes(),
        # exact weights summing to 2 - 1e-40: R(e_0) is exact and nonzero
        custom_rule("interval_node", [(-1, F(1, 3)), (_narrow(F(0)), F(4, 3) - F(1, 10**40)),
                                      (1, F(1, 3))]),
        custom_rule("interval_weights",
                    [(-1, _narrow(F(1, 2))), (_narrow(F(1, 3), 50), _narrow(F(3, 2), 50))],
                    [(F(1, 3), _narrow(F(1, 7)))]),
        custom_rule("interval_lobatto", [(-1, F(1, 6)), (-S5 / 5 + wobble, F(5, 6)),
                                         (S5 / 5 + wobble, F(5, 6)), (1, F(1, 6))]),
    ]
    return rules


def _narrow(q, digits=40):
    return Scalar.from_interval(q - F(1, 10**digits), q + F(1, 10**digits))


def _simpson_with_tiny_derivative_nodes():
    """Simpson plus derivative nodes 1/2 and -1/2 (each an interval of
    half-width 1e-40) with weights 1e-40 and -1e-40: R(e_2) is about -2e-40,
    far below the rounding of Simpson's exact terms at 15 digits."""
    tiny = F(1, 10**40)
    return custom_rule("simpson_tiny_derivs", [(-1, F(1, 3)), (0, F(4, 3)), (1, F(1, 3))],
                       [(_narrow(F(1, 2)), tiny), (_narrow(F(-1, 2)), -tiny)])


@pytest.mark.parametrize("dps", [15, 20, 30, 60, 120, 200])
def test_kernel_order_check_agrees_with_degree_of_exactness(dps):
    set_working_dps(dps)
    try:
        for rule in _order_check_rules():
            degree = degree_of_exactness(rule, 8).degree
            for r in range(9):
                # interval_weights has the value node 1/3 +- 1e-50 and the
                # derivative node 1/3: no exact order separates its breakpoints
                expected = (OrderExceedsExactness if degree < r
                            else AmbiguousOrder if rule.name == "interval_weights" else None)
                try:
                    build_kernel(rule, r)
                    raised = None
                except (OrderExceedsExactness, AmbiguousOrder) as exc:
                    raised = type(exc)
                assert raised is expected, (rule.name, r, degree)
    finally:
        set_working_dps(60)


def test_remainder_far_below_rounding_is_kept():
    # the exact Simpson terms cancel the integral before the 1e-40 interval
    # terms are subtracted; summed together they rounded R(e_2) away to 0
    set_working_dps(15)
    try:
        rule = _simpson_with_tiny_derivative_nodes()
        report = degree_of_exactness(rule, 8)
        assert report.degree == 1
        assert report.remainders[2].lt_definite(0) is True
        with pytest.raises(OrderExceedsExactness):
            build_kernel(rule, 2)
        build_kernel(rule, 1)
    finally:
        set_working_dps(60)


@pytest.mark.parametrize("dps", [15, 60, 120])
def test_remainder_no_wider_than_running_sum(dps):
    # the summation the remainder used before: integral - (t_1 + ... + t_n)
    # in rule order; the exact-first enclosure must lie inside it
    set_working_dps(dps)
    try:
        for rule in _order_check_rules():
            for k in range(9):
                terms = [a * x**k for x, a in rule.value_nodes]
                if k >= 1:
                    terms += [b * k * y ** (k - 1) for y, b in rule.deriv_nodes]
                ref_lo, ref_hi = (integral_of_monomial(k) - sum(terms, Scalar(0))).bounds()
                lo, hi = remainder_on_monomial(rule, k).bounds()
                assert ref_lo <= lo and hi <= ref_hi, (rule.name, k)
    finally:
        set_working_dps(60)


def test_kernel_passes_run_no_exactness_loop(monkeypatch):
    from peanoquad import exactness, peano

    rules = _kernel_reference_rules()[:17]
    assert sorted(rule.name for rule in rules) == sorted(catalog_names())
    orders = [(rule, r) for rule in rules for r in range(degree_of_exactness(rule, 8).degree + 1)]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return degree_of_exactness(*args, **kwargs)

    monkeypatch.setattr(exactness, "degree_of_exactness", counted)
    monkeypatch.setattr(peano, "degree_of_exactness", counted, raising=False)
    for rule, r in orders:
        kernel_l1_norm(rule, r)
    assert len(orders) > 40 and calls == []


def test_mixed_radicand_rule_brackets():
    # x in Q(sqrt 2), lambda in Q(sqrt 3): interval weights, midpoint isolation
    x, lam = Scalar("1/2*sqrt(1/2)"), Scalar("1/3*sqrt(1/3)")
    rule = make_rule("mod3", x=x, lam=lam)
    m0, m1 = kernel_l1_norm(rule, 0), kernel_l1_norm(rule, 1)
    assert len(m1.sign_changes) == 0  # K_1 vanishes at t = -1, an end of its piece
    assert m1.radius <= 1e-55
    assert m0.sign_changes and all(rt.certified for rt in m0.sign_changes)
    with mpmath.workdps(80):
        xv, lv = mpmath.sqrt(2) / 4, mpmath.sqrt(3) / 9
        t0, t1 = lv * (xv - 1), lv * (1 + xv)  # K_0 = t_k - t on the two pieces
        ref = mpmath.quad(lambda t: abs(t0 - t) if t <= xv else abs(t1 - t), [-1, t0, xv, 1])
        lo, hi = m0.l1_norm.bounds()
        assert lo <= F(mpmath.nstr(ref, 75)) <= hi


def test_double_node_rule_kernel_root_is_found():
    # K_4 changes sign once inside (-1, 1); a miscounting Sturm chain missed
    # that root and reported the wrong exact constant 32768/703125
    nodes = (F(3, 5), F(4, 5), F(21, 25))
    rule = custom_rule(
        "double_node_3",
        list(zip(nodes, (F(-1065415, 27), -2759728, F(75578125, 27)))),
        list(zip(nodes, (F(-33703, 15), F(-350752, 5), F(-427175, 9)))),
    )
    rep = kernel_l1_norm(rule, 4)
    assert abs(float(rep.l1_norm) - 0.0569870537375) < 1e-12
    assert [round(float(rt.location), 15) for rt in rep.sign_changes] == [0.676203665267365]


def test_liu_park_gauss_constants():
    rule = make_rule("liu_park_gauss")
    assert_scalar_equals(kernel_l1_norm(rule, 2).l1_norm, (Scalar(9) - 4 * S3) / 108)
    assert_scalar_equals(kernel_l1_norm(rule, 3).l1_norm, Scalar(F(1, 90)))


def test_order_exceeding_exactness_is_rejected():
    with pytest.raises(OrderExceedsExactness):
        build_kernel(make_rule("ostrowski", x=F(1, 4)), 1)
    with pytest.raises(OrderExceedsExactness):
        kernel_l1_norm(make_rule("gs2", x=F(1, 2)), 2)


def test_breakpoints_are_nodes_and_endpoints():
    rule = make_rule("liu_park", x=F(1, 2))
    k = build_kernel(rule, 1)
    assert [float(b) for b in k.breakpoints] == [-1.0, -0.5, 0.5, 1.0]
    assert all(p.degree <= 2 for p in k.pieces)


def test_left_piece_convention_at_breakpoints():
    rule = make_rule("ostrowski", x=F(1, 4))
    k = build_kernel(rule, 0)
    # value at the interior node comes from the left piece: -1 - t
    assert k.evaluate(Scalar(F(1, 4))).as_fraction() == F(-5, 4)


def test_continuity_flags():
    # no derivative nodes, r >= 1: continuous at interior value nodes
    rep = kernel_l1_norm(make_rule("simpson"), 1)
    assert all(rep.continuity_flags)
    rep = kernel_l1_norm(make_rule("gs2", x=F(1, 2)), 1)
    assert all(rep.continuity_flags)
    # order 0 kernels jump at value nodes
    rep = kernel_l1_norm(make_rule("simpson"), 0)
    assert not any(rep.continuity_flags)
    # derivative nodes introduce jumps in K_1
    rep = kernel_l1_norm(make_rule("liu_park", x=F(1, 2)), 1)
    assert rep.continuity_flags == (False, False)


def test_l1_dominates_plain_integral():
    for rule, r in [
        (make_rule("simpson"), 2),
        (make_rule("liu_park", x=F(1, 2)), 1),
        (make_rule("franjic", x=F(3, 5)), 1),
    ]:
        rep = kernel_l1_norm(rule, r)
        plain = rep.kernel.integrate()
        assert float(rep.l1_norm) >= abs(float(plain)) - 1e-30


# ---------------------------------------------------------------------------
# the remainder identity and the moment identity


def test_peano_identity_simpson_quartic():
    lhs, rhs = verify_peano_identity(make_rule("simpson"), 3, Polynomial([0, 0, 0, 0, 1]))
    assert lhs.as_fraction() == rhs.as_fraction() == F(-4, 15)


def test_peano_identity_low_degree_is_zero():
    rule = make_rule("radau2")
    for r in range(3):
        for deg in range(r + 1):
            lhs, rhs = verify_peano_identity(rule, r, Polynomial.monomial(deg))
            assert lhs.as_fraction() == 0
            assert rhs.as_fraction() == 0


def test_peano_identity_ostrowski_midpoint():
    lhs, rhs = verify_peano_identity(make_rule("ostrowski", x=0), 1, Polynomial([0, 0, 1]))
    assert lhs.as_fraction() == rhs.as_fraction() == F(2, 3)


def test_peano_identity_random_rational_rules():
    rng = random.Random(987654321)
    checked = 0
    for _ in range(50):
        rule = random_rational_rule(rng)
        d = degree_of_exactness(rule, k_max=8).degree
        f = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(d + 4)])
        for r in range(d + 1):
            lhs, rhs = verify_peano_identity(rule, r, f)
            assert lhs.as_fraction() == rhs.as_fraction()
            checked += 1
    assert checked >= 50


def test_peano_identity_derivative_node_rules_from_order_one():
    # for rules with derivative nodes the order-0 kernel omits the point
    # masses at the derivative nodes, so the identity starts at r = 1
    rng = random.Random(24601)
    for _ in range(20):
        rule = random_rational_rule(rng, with_derivs=True, force_degree_one=True)
        d = degree_of_exactness(rule, k_max=8).degree
        f = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(d + 4)])
        for r in range(1, d + 1):
            lhs, rhs = verify_peano_identity(rule, r, f)
            assert lhs.as_fraction() == rhs.as_fraction()


def test_moment_identity_across_catalog():
    rules = [
        make_rule("ostrowski", x=F(1, 4)),
        make_rule("mp3", x=F(2, 5)),
        make_rule("mod3_opt", x=F(1, 5)),
        make_rule("simpson"),
        make_rule("gs2", x=F(1, 2)),
        make_rule("gauss_legendre2"),
        make_rule("radau2"),
        make_rule("alomari4", lam=F(1, 5), x=F(2, 3)),
        make_rule("lobatto4"),
        make_rule("liu_park", x=F(1, 2)),
        make_rule("liu_park_gauss"),
        make_rule("dragomir_sofo", x=F(2, 5)),
        make_rule("q44", lam=F(1, 3), gamma=F(1, 10), delta=F(-1, 20), x=F(1, 2)),
    ]
    for rule in rules:
        d = degree_of_exactness(rule, k_max=8).degree
        # order 0 is excluded for derivative-node rules: the order-0 kernel
        # has no derivative-node term, so it represents the value part only
        r_lo = 1 if rule.deriv_nodes else 0
        for r in range(r_lo, min(d, 6) + 1):
            lhs = build_kernel(rule, r).integrate()
            rhs = remainder_on_monomial(rule, r + 1) / math.factorial(r + 1)
            assert scalar_is_zero(lhs - rhs), (rule.name, r)


def test_kernel_symmetry_at_sampled_points():
    rng = random.Random(5150)
    sym_rules = [
        make_rule("gs2", x=F(2, 5)),
        make_rule("simpson"),
        make_rule("alomari4", lam=F(1, 5), x=F(2, 3)),
        make_rule("liu_park", x=F(1, 2)),
        make_rule("gauss_legendre2"),
        make_rule("lobatto4"),
        make_rule("liu_park_gauss"),
        make_rule("q44", lam=F(1, 3), gamma=F(1, 10), delta=F(-1, 20), x=F(1, 2)),
    ]
    for rule in sym_rules:
        d = degree_of_exactness(rule, k_max=8).degree
        breaks = {float(x) for x, _ in rule.value_nodes}
        breaks.update(float(y) for y, _ in rule.deriv_nodes)
        for r in range(min(d, 5) + 1):
            k = build_kernel(rule, r)
            sign = Scalar((-1) ** (r + 1))
            for _ in range(100):
                t = F(rng.randint(-999, 999), 1000)
                if float(t) in breaks or float(-t) in breaks:
                    continue
                diff = k.evaluate(Scalar(-t)) - sign * k.evaluate(Scalar(t))
                assert scalar_is_zero(diff), (rule.name, r, t)


# ---------------------------------------------------------------------------
# export


def test_kernel_csv_and_json_export(tmp_path):
    rep = kernel_l1_norm(make_rule("simpson"), 3)
    csv_path = tmp_path / "k3.csv"
    json_path = tmp_path / "k3.json"
    export_kernel_csv(rep, csv_path, points=101, digits=17)
    export_kernel_json(rep, json_path)

    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "K3"]
    assert len(rows) == 102
    assert rows[1][0] == "-1.0"
    assert rows[-1][0] == "1.0"
    mid = rows[51]
    assert abs(float(mid[0]) - 0.0) < 1e-15
    # K_3(0) from the left piece: (1/72)(1)^3(-1) = -1/72
    assert abs(float(mid[1]) + 1 / 72) < 1e-15

    data = json.loads(json_path.read_text())
    assert data["order"] == 3
    assert data["breakpoints"] == ["-1", "0", "1"]
    assert data["l1_norm"] == "1/90"
    assert len(data["pieces"]) == 2
    assert data["continuity_flags"] == [True]


def _fingerprint(x):
    """Type, and for the value and its derivative (0 for a plain Scalar) the
    tier, the exact string and, for an interval, the exact enclosure ends."""
    return type(x), [(v.is_rational, v.is_exact, v.to_json_str(), None if v.is_exact else v.bounds())
                     for v in _Dual.parts(x)]


def _report_fingerprint(rep):
    k = rep.kernel
    return ([_fingerprint(b) for b in k.breakpoints],
            [[_fingerprint(c) for c in p.coeffs] for p in k.pieces],
            _fingerprint(rep.l1_norm),
            [(_fingerprint(rt.location), rt.multiplicity_hint, rt.certified)
             for rt in rep.sign_changes])


def _matches_with_no_wider_norm(got, want):
    """Breakpoints, pieces and sign changes as in the reference report, and
    the L1 norm as exact or no wider (``no_wider_overlapping``)."""
    (g, w) = _report_fingerprint(got), _report_fingerprint(want)
    return g[:2] == w[:2] and g[3] == w[3] and no_wider_overlapping(got.l1_norm, want.l1_norm)


def _oracle_rules():
    """Every catalog rule, the sqrt, mixed-radicand and interval rules of the
    piece reference, 30 seeded random rational rules, and rules at a _Dual
    node.  Two of those have nodes that meet at the value of x but stay apart
    (x = 0 + eps, and 1 - eps at double nodes), leaving pieces of zero length."""
    rng = random.Random(1616)
    rules = _kernel_reference_rules()[:-10]
    rules += [random_rational_rule(rng, with_derivs=i % 2 == 1, force_degree_one=i % 4 == 1)
              for i in range(30)]
    rules += [family(name).build(_Dual(F(1, 3), seed))
              for name in ("ostrowski", "mp3", "gs2") for seed in (1, -1)]
    rules += [family("alomari4", lam=F(1, 5)).build(_Dual(0, 1)),
              family("liu_park").build(_Dual(1, -1))]
    # Simpson at x = 0 only: R(t^3) has value 0 and derivative 4/3, so the
    # order-3 condition holds on the value part alone
    rules += [family("mod3", lam=F(2, 3)).build(_Dual(0, seed)) for seed in (1, -1)]
    # every scannable family at a grid point and at its upper end (the
    # one-sided slope there has seed -1), and gs2 at its kink x = 1/2
    for name, fixed in SCAN_FAMILIES:
        fam = family(name, **fixed)
        grid = fam.domain.grid(33)
        rules += [fam.build(_Dual(grid[9], 1)), fam.build(_Dual(grid[-1], -1))]
    # q44 where the roots of K_1 lie under two radicands: the roots under
    # the second are cut at rational midpoints
    for fixed, x in ((Q44, F(12, 53)), (Q44, F(13, 53)),
                     ({"lam": F(13, 53), "gamma": F(2, 57), "delta": F(3, 25)}, F(7, 53))):
        rules += [family("q44", **fixed).build(v) for v in (Scalar(x), _Dual(x, 1))]
    return rules + [family("gs2").build(_Dual(F(1, 2), seed)) for seed in (1, -1)]


def _node_fingerprints(values):
    return [(_fingerprint(v), v.bounds()) for v in values]


def test_dual_nodes_order_as_the_scalar_reference():
    # rational _Dual nodes that meet at a value, or part with it, and plain
    # copies, merged and ordered as the Scalar == scan and < sort: same
    # values, types, tiers and ends
    c = F(1, 3)
    colliding = [(_Dual(c, 1), F(1, 2)), (_Dual(c, -1), F(1, 3)), (Scalar(c), F(1, 5)),
                 (_Dual(c, F(-1, 2)), ONE), (_Dual(c, 1), F(1, 4)), (_Dual(-c, 2), F(2, 7)),
                 (_Dual(c, -1), F(-1, 3)), (Scalar(-c), ONE), (_Dual(F(-1), 1), ONE),
                 (_Dual(F(1), -1), F(1, 6)), (_Dual(c, F(1, 3)), ONE)]
    rng = random.Random(2502)
    for _ in range(40):
        rng.shuffle(colliding)
        nodes = colliding[:rng.randint(1, len(colliding))]
        got, want = _merge_nodes(nodes), reference_merge_nodes(nodes)
        assert [_node_fingerprints(p) for p in got] == [_node_fingerprints(p) for p in want], nodes


def test_node_order_matches_the_scalar_reference():
    # nodes merged and ordered for a rule, and the breakpoints of its kernels,
    # against the Scalar == scan and < sort: same values, types, tiers and ends
    for rule in _oracle_rules():
        pairs = list(rule.value_nodes + rule.deriv_nodes)
        cancel = [(pairs[0][0], -pairs[0][1])]  # the first node's weight sums to 0
        thirds = [(x, w / 3) for x, w in pairs] + [(x, 2 * w / 3) for x, w in pairs[::-1]]
        for nodes in (rule.value_nodes, rule.deriv_nodes, pairs, pairs[::-1], pairs + cancel,
                      thirds):
            got, want = _merge_nodes(nodes), reference_merge_nodes(nodes)
            assert [_node_fingerprints(p) for p in got] == [_node_fingerprints(p) for p in want], rule.name
        want = _node_fingerprints(reference_breakpoints(rule))
        for r in range(min(degree_of_exactness(rule, k_max=8).degree, 2) + 1):
            assert _node_fingerprints(build_kernel(rule, r).breakpoints) == want, (rule.name, r)


@pytest.mark.parametrize("dps", [20, 60, 120])
def test_kernel_pass_matches_the_scalar_reference(dps):
    # pieces and sign changes: the same exact strings, tiers and enclosures
    # as the Scalar-product kernel; the L1 norm the same exact value as the
    # Scalar sum, or an enclosure no wider than its that overlaps it
    set_working_dps(dps)
    try:
        for rule in _oracle_rules():
            for r in range(min(degree_of_exactness(rule, k_max=8).degree, 6) + 1):
                got, want = kernel_l1_norm(rule, r), reference_kernel_l1_norm(rule, r)
                assert _matches_with_no_wider_norm(got, want), (rule.name, r)
    finally:
        set_working_dps(60)


def test_dual_cut_points_keep_their_derivative():
    # K_0 of Ostrowski's rule at a dual node x has plain pieces, -1 - t and
    # 1 - t, but the cut point x carries d/dx: M_0 = 1 + x^2, M_0' = 2x
    rule = family("ostrowski").build(_Dual(F(1, 3), 1))
    rep = kernel_l1_norm(rule, 0)
    assert all(type(c) is Scalar for p in rep.kernel.pieces for c in p.coeffs)
    value, slope = _Dual.parts(rep.l1_norm)
    assert value.to_json_str() == "10/9" and slope.to_json_str() == "2/3"


Q44 = {"lam": F(1, 5), "gamma": F(1, 32), "delta": F(5, 53)}


def test_plain_exact_passes_read_no_scalar_view(monkeypatch):
    # a kernel of plain exact data stays integer pieces: an L1 pass whose
    # roots are all exact, a signature probe and M_r(x) build no Scalar view
    # and form no Scalar coefficient of a piece
    from peanoquad.bounds import _bound_fn

    q44, gs2 = family("q44", **Q44), family("gs2")
    cases = [(lambda: make_rule("gauss_legendre2"), 0), (lambda: make_rule("lobatto4"), 2),
             (lambda: q44.build(Scalar(F(1, 64))), 1), (lambda: make_rule("simpson"), 3)]
    wants = [reference_kernel_l1_norm(build(), r) for build, r in cases]
    assert all(w.sign_changes for w in wants[:3])
    assert all(rt.is_exact() for w in wants for rt in w.sign_changes)
    probes = [(q44, F(1, 64)), (gs2, F(1, 3)), (gs2, F(1, 2)), (gs2, F(3, 4))]
    values = [kernel_l1_norm(fam.build(Scalar(x)), 1).l1_norm for fam, x in probes]
    assert [reference_signature(fam.build(Scalar(x)), 1) for fam, x in probes] == [
        (1, 0, 1), (0, 0, 0), (0, 1, 0), (0, 2, 0)]

    def no_view(self, *args):
        raise AssertionError("the Scalar view of an integer kernel was read")

    monkeypatch.setattr(PiecewisePolynomial, "pieces", property(no_view))
    monkeypatch.setattr(Polynomial, "__getattr__", no_view)
    gots = [kernel_l1_norm(build(), r) for build, r in cases]
    sigs, got_values = [], []
    for fam, x in probes:
        fn, sig, _ = _bound_fn(fam, 1)
        sigs.append(sig(x))
        got_values.append(fn(x))
    monkeypatch.undo()
    assert [_report_fingerprint(g) for g in gots] == [_report_fingerprint(w) for w in wants]
    assert sigs == [(1, 0, 1), (0, 0, 0), (0, 1, 0), (0, 2, 0)]
    assert [_fingerprint(v) for v in got_values] == [_fingerprint(v) for v in values]


def test_scalar_pieces_build_a_kernel_equal_by_value():
    kernel = build_kernel(make_rule("lobatto4"), 3)
    copy = PiecewisePolynomial(kernel.breakpoints, kernel.pieces)
    assert kernel.exact is not None and copy.exact is None
    assert copy == kernel == reference_build_kernel(make_rule("lobatto4"), 3)
    assert copy.evaluate(Scalar(F(1, 3))) == kernel.evaluate(Scalar(F(1, 3)))
    changed = PiecewisePolynomial(kernel.breakpoints, (Polynomial([1]),) + kernel.pieces[1:])
    assert changed != kernel and kernel != build_kernel(make_rule("lobatto4"), 2)


def test_integer_pieces_isolate_like_their_scalar_coefficients():
    # the root engine reads an integer piece at the scale field_parts gives
    # its Scalars; that scale names the field of a closed-form root, so q44
    # at x = 1/64 has roots in Q(sqrt 41), not under the radicand 53**2 * 41
    rep = kernel_l1_norm(family("q44", **Q44).build(Scalar(F(1, 64))), 1)
    assert rep.l1_norm.to_json_str() == "701171/6784000+41/6000*sqrt(41)"
    assert [rt.location.to_json_str() for rt in rep.sign_changes] == [
        "-4/5+1/20*sqrt(41)", "4/5-1/20*sqrt(41)"]

    def roots(found):
        return [(rt.location.to_json_str(), rt.multiplicity_hint, rt.certified) for rt in found]

    rules = _kernel_reference_rules()[:17]  # every catalog rule
    for name, fixed in SCAN_FAMILIES:
        fam = family(name, **fixed)
        rules += [fam.build(Scalar(x)) for x in fam.domain.grid(9)]
    for rule in rules:
        for r in range(degree_of_exactness(rule, k_max=8).degree + 1):
            kernel = build_kernel(rule, r)
            bps = kernel.breakpoints
            for (piece, got), lo, hi in zip(_piece_roots(kernel), bps, bps[1:]):
                assert piece.ints is not None, (rule.name, r)
                want = isolate_roots(Polynomial(piece.coeffs), lo, hi)
                assert roots(got) == roots(want), (rule.name, r, str(lo), str(hi))


def test_integrate_against_matches_the_scalar_reference():
    rng = random.Random(16)
    gs = [Polynomial([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k)]) for k in (0, 1, 4, 9)]
    gs += [Polynomial([S3, 1, -2 * S3]), Polynomial([1, S5]), Polynomial([ONE, _Dual(F(1, 2), 1)])]
    for rule in _oracle_rules():
        for r in range(min(degree_of_exactness(rule, k_max=8).degree, 6) + 1):
            got, want = build_kernel(rule, r), reference_build_kernel(rule, r)
            for g in gs:
                assert (_fingerprint(got.integrate_against(g))
                        == _fingerprint(want.integrate_against(g))), (rule.name, r, str(g))


def _identity_polys(rng, r):
    """Rational f of degree r - 1 to r + 3, the zero polynomial, f over
    Q(sqrt 3), Q(sqrt 5) and Q(sqrt 7), and f with a _Dual coefficient."""
    def q():
        return F(rng.randint(-9, 9), rng.randint(1, 7))
    fs = [Polynomial([q() for _ in range(k)]) for k in (r, r + 2, r + 4)] + [Polynomial()]
    fs += [Polynomial([q() * s + q() for _ in range(r + 3)]) for s in (S3, S5, sqrt(Scalar(7)))]
    return fs + [Polynomial([ONE, q(), _Dual(q(), 1)])]


@pytest.mark.parametrize("dps", [20, 60, 120])
def test_peano_identity_matches_the_scalar_reference(dps):
    # both sides, in integers for plain exact data in one field, against the
    # Scalar expression: same type, tier, exact string and enclosure; f over
    # another field than the rule's, interval and dual data take the fallback
    rng = random.Random(1818)
    set_working_dps(dps)
    try:
        for rule in _oracle_rules():
            for r in range(min(degree_of_exactness(rule, k_max=8).degree, 6) + 1):
                for f in _identity_polys(rng, r):
                    got = verify_peano_identity(rule, r, f)
                    want = reference_verify_peano_identity(rule, r, f)
                    assert ([(_fingerprint(v), v.bounds()) for v in got]
                            == [(_fingerprint(v), v.bounds()) for v in want]), (rule.name, r)
    finally:
        set_working_dps(60)


def test_plain_exact_identity_takes_no_scalar_pass_and_keeps_its_sides_apart(monkeypatch):
    def scalar_pass(*args):
        raise AssertionError("Scalar pass on plain exact data")

    monkeypatch.setattr(QuadRule, "apply", scalar_pass)
    monkeypatch.setattr(PiecewisePolynomial, "integrate_against", scalar_pass)
    f = Polynomial([1, F(2, 3), -S3, 5, F(1, 7), 1])
    rule = unshared(make_rule("gauss_legendre2"))  # the test writes a kept kernel
    lhs, rhs = verify_peano_identity(rule, 3, f)
    assert lhs == rhs
    # the left side reads no kernel: a wrong kept kernel changes the right side only
    rule._kernels[3] = build_kernel(make_rule("simpson"), 3)
    wrong_lhs, wrong_rhs = verify_peano_identity(rule, 3, f)
    assert wrong_lhs == lhs and wrong_rhs != rhs


def _same_sides(got, want):
    return [(_fingerprint(v), v.bounds()) for v in got] == [(_fingerprint(v), v.bounds()) for v in want]


def _sqrt_rules(rng):
    """Random custom rules with nodes and weights a + b*sqrt(m) in one field:
    weights that sum to 2, every second rule symmetric, half of them with
    derivative nodes that make the rule exact on degree 1, and last a rule
    with derivative nodes only."""
    def q(n=20):
        return F(rng.randint(-3, 3), n)

    rules = []
    for i, m in enumerate((2, 3, 5, 7, 2, 3, 5, 7)):
        s = sqrt(Scalar(m))
        value = [(q() + q() * s, q(4) + q(4) * s) for _ in range(rng.randint(1, 3))]
        value[0] = (value[0][0], value[0][1] + (2 - i % 2) - sum(w for _, w in value))
        value += [(-x, w) for x, w in value] * (i % 2)  # equal nodes merge
        deriv = [(q() + q() * s, q(4) * s + q(4)) for _ in range(rng.randint(1, 2) * (i % 4 // 2))]
        if deriv:
            y, b = deriv[-1]
            deriv[-1] = (y, b - sum(w * x for x, w in value) - sum(c for _, c in deriv))
        rules.append(custom_rule(f"sqrt{m}", value, deriv))
    rules.append(custom_rule("derivative_only", [], [(F(1, 3), F(2, 5)), (-S3 / 3, S3 / 6)]))
    return rules


def _exactness_rules():
    """The oracle rules, every catalog rule at seeded rational parameters, 20
    seeded random rational rules and random rules in one Q(sqrt m)."""
    rng = random.Random(3636)
    rules = _oracle_rules() + _kernel_reference_rules()[-10:]
    rules += [random_rational_rule(rng, with_derivs=i % 2 == 1, force_degree_one=i % 4 == 1)
              for i in range(20)]
    return rules + _sqrt_rules(rng)


@pytest.mark.parametrize("dps", [15, 20, 60, 120])
def test_degree_of_exactness_matches_the_scalar_lane(dps):
    # plain exact rules take the power sums in integers, every other rule the
    # Scalar lane: every field of the report as remainder_on_monomial and
    # _classify give it, each remainder by type, tier, exact string and ends
    set_working_dps(dps)
    try:
        rules = _exactness_rules()
        assert {r.name for r in rules} >= set(catalog_names())
        for rule in rules:
            for k_max in (0, 1, 8, 20):
                got, want = degree_of_exactness(rule, k_max), reference_degree_of_exactness(rule, k_max)
                assert exactness_fingerprint(got) == exactness_fingerprint(want), (rule.name, k_max)
    finally:
        set_working_dps(60)


@pytest.mark.parametrize("dps", [60, 120])
def test_interval_and_mixed_radicand_rules_keep_the_scalar_lane(dps, monkeypatch):
    def integer_pass(*args):
        raise AssertionError("the integer lane on interval or mixed-radicand data")

    set_working_dps(dps)
    try:
        narrow = Scalar.from_interval(F(-1, 10**50), F(1, 10**50))
        # the 1e-40 points and the mixed-radicand mod3 rule (sqrt(2) and sqrt(3) meet in an interval)
        rules = [r for r in _kernel_reference_rules()
                 if not all(v.is_exact for node in r.value_nodes + r.deriv_nodes for v in node)]
        rules.append(make_rule("gs2", x=sqrt(Scalar(F(1, 3))) + narrow))
        assert [r.name for r in rules] == ["mod3", "gs2", "interval_simpson", "interval_double_node", "gs2"]
        wants = [reference_degree_of_exactness(rule) for rule in rules]
        monkeypatch.setattr("peanoquad.exactness.power_sums", integer_pass)
        for rule, want in zip(rules, wants):
            assert exactness_fingerprint(degree_of_exactness(rule)) == exactness_fingerprint(want)
    finally:
        set_working_dps(60)


def test_plain_exact_exactness_takes_no_scalar_pass(monkeypatch):
    def scalar_pass(*args):
        raise AssertionError("Scalar pass on plain exact data")

    rng = random.Random(77)
    rules = [make_rule(name) for name in ("simpson", "gauss_legendre2", "lobatto4", "liu_park_gauss")]
    rules += [random_rational_rule(rng, with_derivs=True) for _ in range(4)] + _sqrt_rules(rng)
    f = Polynomial([1, F(2, 3), -S3, 5, F(1, 7), 1])
    wants = [reference_degree_of_exactness(rule) for rule in rules]
    identity = [(rule, r) for rule, want in zip(rules, wants)
                for r in range(1 if rule.deriv_nodes else 0, min(want.degree, 3) + 1)]
    id_wants = [reference_verify_peano_identity(rule, r, f) for rule, r in identity]
    for rule, r in identity:
        build_kernel(rule, r)  # kept on the rule
    monkeypatch.setattr("peanoquad.exactness.minus_terms", scalar_pass)
    monkeypatch.setattr(Scalar, "__pow__", scalar_pass)
    for rule, want in zip(rules, wants):
        assert exactness_fingerprint(degree_of_exactness(rule)) == exactness_fingerprint(want)
    for (rule, r), want in zip(identity, id_wants):
        assert _same_sides(verify_peano_identity(rule, r, f), want)


def test_a_rule_is_read_into_integers_once(monkeypatch):
    # the exactness report, the kernel and both identity sides share one
    # integer read of the rule's nodes and weights
    from peanoquad import _qpoly, peano, rules

    def counting(values):
        values = list(values)
        reads.append(any(v is w for v in values for _, w in nodes))
        return int_parts(values)

    # unshared copies: make_rule reads a rule it keeps when it builds it
    for make in (lambda: unshared(make_rule("gs2", x=sqrt(Scalar(F(1, 3))))),
                 lambda: unshared(make_rule("liu_park_gauss")),
                 lambda: custom_rule("dn", [(-1, F(1, 2)), (F(1, 3), F(3, 2))], [(F(1, 3), F(1, 7))])):
        rule, reads = make(), []
        nodes = rule.value_nodes + rule.deriv_nodes
        for module in (_qpoly, peano, rules):
            if hasattr(module, "int_parts"):
                monkeypatch.setattr(module, "int_parts", counting)
        r = min(degree_of_exactness(rule).degree, 2)
        kernel_l1_norm(rule, r)
        verify_peano_identity(rule, r, Polynomial([1, F(1, 2), -S3, 2, 1]))
        monkeypatch.undo()
        assert sum(reads) == 1, rule.name


def test_identity_of_the_zero_polynomial_is_an_exact_zero():
    # no term of f: the left side's sum has no power of the node denominator
    rng = random.Random(12)
    rules = [make_rule("simpson"), make_rule("gauss_legendre2"), make_rule("liu_park_gauss"),
             random_rational_rule(rng, with_derivs=True, force_degree_one=True)] + _sqrt_rules(rng)[:2]
    for rule in rules:
        for r in range(1 if rule.deriv_nodes else 0, min(degree_of_exactness(rule).degree, 3) + 1):
            got = verify_peano_identity(rule, r, Polynomial([]))
            assert all(type(v) is Scalar and v.is_rational and v.as_fraction() == 0 for v in got)
            assert _same_sides(got, reference_verify_peano_identity(rule, r, Polynomial([])))


def test_rational_pieces_on_irrational_breakpoints():
    # liu_park_gauss at r = 1: every piece is rational, the breakpoints +-1/sqrt(3) are not
    rule = make_rule("liu_park_gauss")
    kernel = build_kernel(rule, 1)
    assert not any(any(B) for _, B, _, _ in kernel.exact)
    assert not all(b.is_rational for b in kernel.breakpoints)
    want = reference_build_kernel(rule, 1)
    for g in (Polynomial([1]), Polynomial([F(1, 3), -2, F(5, 7)]), Polynomial([F(1, 2), S3])):
        got = kernel.integrate_against(g)
        assert _same_sides([got], [want.integrate_against(g)])
    assert kernel.integrate() == remainder_on_monomial(rule, 2) / 2
    f = Polynomial([F(1, 5), 2, -1, F(3, 4)])
    assert _same_sides(verify_peano_identity(rule, 1, f), reference_verify_peano_identity(rule, 1, f))


def test_identity_edge_cases_match_the_reference():
    rng = random.Random(21)
    derivs = random_rational_rule(rng, with_derivs=True)
    while not derivs.deriv_nodes:
        derivs = random_rational_rule(rng, with_derivs=True)
    cases = [
        (make_rule("lobatto4"), 2, Polynomial([F(5, 3)])),  # a constant f
        (make_rule("liu_park_gauss"), 0, Polynomial([1, F(1, 2), F(-2, 3)])),  # r = 0, derivative nodes
        (derivs, 0, Polynomial([F(2, 3), 1])),
        (make_rule("gauss_legendre2"), 2, Polynomial([1, F(1, 2) * S5, F(2, 3), 1])),  # f in another field
    ]
    for rule, r, f in cases:
        assert _same_sides(verify_peano_identity(rule, r, f), reference_verify_peano_identity(rule, r, f))
    # a rule with derivative nodes only is exact on no degree: the left side alone
    only = _sqrt_rules(rng)[-1]
    assert not only.value_nodes and degree_of_exactness(only).degree == -1
    for f in (Polynomial([]), Polynomial([F(5, 3)]), Polynomial([1, F(1, 2), S3, F(-2, 3), 2])):
        G, H, e, _ = int_parts(f.coeffs)
        got = remainder(only, G, H, e, 3)
        assert _same_sides([got], [f.definite_integral(-1, 1) - only.apply(f)])


def test_peano_identity_errors_match_the_reference():
    f = Polynomial([1, 2, 3, 4, 5])
    for rule, r, error in [(make_rule("simpson"), -1, ValueError),
                           (make_rule("simpson"), 4, OrderExceedsExactness),
                           (make_rule("gauss_legendre2"), 4, OrderExceedsExactness),
                           (make_rule("ostrowski", x=F(1, 4)), 1, OrderExceedsExactness),
                           (family("ostrowski").build(_Dual(F(1, 3), 1)), 1, OrderExceedsExactness)]:
        for verify in (verify_peano_identity, reference_verify_peano_identity):
            with pytest.raises(error):
                verify(rule, r, f)


def test_plain_exact_kernels_are_kept_on_the_rule():
    for rule in (make_rule("simpson"), make_rule("lobatto4"), random_rational_rule(random.Random(5))):
        for r in range(min(degree_of_exactness(rule, k_max=8).degree, 3) + 1):
            kernel = build_kernel(rule, r)
            assert build_kernel(rule, r) is kernel
    # the kept kernel serves another working precision: it holds no enclosure
    rule = make_rule("gauss_legendre2")
    kernel = build_kernel(rule, 1)
    set_working_dps(20)
    try:
        got = kernel_l1_norm(rule, 1)
        assert got.kernel is kernel
        assert _matches_with_no_wider_norm(got, reference_kernel_l1_norm(rule, 1))
        assert 1e-24 < got.radius < 1e-21  # an enclosure at 20 digits, about one rounding unit
    finally:
        set_working_dps(60)
    got = kernel_l1_norm(rule, 1)
    assert _matches_with_no_wider_norm(got, reference_kernel_l1_norm(rule, 1)) and got.radius < 1e-40


def test_interval_and_dual_kernels_are_built_on_every_call():
    rule = custom_rule("interval_simpson", [(-1, _narrow(F(1, 3))), (_narrow(F(0)), F(4, 3)),
                                            (1, F(1, 3))])
    kernels = []
    for dps in (20, 60):
        set_working_dps(dps)
        try:
            kernels.append(build_kernel(rule, 3))
            assert _report_fingerprint(kernel_l1_norm(rule, 3)) == _report_fingerprint(
                reference_kernel_l1_norm(rule, 3)), dps
        finally:
            set_working_dps(60)
    assert kernels[0] is not kernels[1]
    dual = family("ostrowski").build(_Dual(F(1, 3), 1))
    assert build_kernel(dual, 0) is not build_kernel(dual, 0)


def test_order_exceeding_exactness_is_raised_on_every_call():
    rule = make_rule("simpson")
    for _ in range(2):
        with pytest.raises(OrderExceedsExactness):
            build_kernel(rule, 4)
        with pytest.raises(ValueError):
            build_kernel(rule, -1)
    assert build_kernel(rule, 3) is build_kernel(rule, 3)


def test_kernel_is_zero_outside_its_interval():
    # K_r(t) = 0 for t >= 1 (no (x - t)_+ term is left) and for t <= -1 (the
    # rule is exact on degree r); the end pieces extrapolate to other values
    k = build_kernel(make_rule("simpson"), 3)
    for t in (2, -3, F(1000001, 1000000), -S3):
        v = k.evaluate(Scalar(t))
        assert v.is_rational and v.as_fraction() == 0, t
    assert k.pieces[-1](Scalar(2)).as_fraction() == F(7, 72)
    assert k.pieces[0](Scalar(-3)).as_fraction() == F(10, 9)
    for t in (-1, 1):
        assert k.evaluate(Scalar(t)) == k.pieces[0 if t < 0 else -1](Scalar(t))
    with pytest.raises(AmbiguousOrder):
        k.evaluate(_narrow(F(1)))
    with pytest.raises(AmbiguousOrder):
        k.evaluate(_narrow(F(-1)))


def test_rational_pieces_sum_in_integers(monkeypatch):
    # every kernel formed in integers adds each piece's |F(c') - F(c)| in one
    # integer sum, and so does the slope pass of a scan point x + eps over
    # Q[eps] or Q(sqrt m)[eps], bracketed roots and roots under a second
    # radicand too: no antiderivative, no abs of a Scalar and no built rule.
    # The value is the Scalar reference's where that is exact, else an
    # enclosure no wider than it that overlaps it
    from peanoquad.bounds import _bound_fn
    from peanoquad.rules import RuleFamily

    rng = random.Random(2503)
    rules = [make_rule(name) for name in ("simpson", "radau2", "gauss_legendre2", "liu_park_gauss",
                                          "lobatto4")]
    rules += [family(name).build(Scalar(x)) for name in ("gs2", "ostrowski", "mp3", "mod3_opt",
                                                          "liu_park", "dragomir_sofo")
              for x in (F(1, 3), F(1, 4), F(3, 5))]
    rules += [random_rational_rule(rng, with_derivs=i % 2 == 1) for i in range(20)]
    cases = [(rule, r) for rule in rules
             for r in range(min(degree_of_exactness(rule, k_max=8).degree, 4) + 1)]
    wants = [reference_kernel_l1_norm(rule, r) for rule, r in cases]
    fams = [family(name, **fixed) for name, fixed in (("gs2", {}), ("ostrowski", {}), ("mp3", {}),
                                                       ("alomari4", {"lam": F(9, 43)}),
                                                       ("q44", Q44))]
    slopes = [(fam, x, r) for fam in fams for x in (F(1, 3), F(3, 5), F(12, 53))
              if fam.domain.contains(x) for r in range(fam.generic_degree + 1)]
    slope_wants = [reference_kernel_l1_norm(fam.build(_Dual(x, 1)), r) for fam, x, r in slopes]

    def radicands(rep):
        values = [*rep.kernel.breakpoints, *(c for p in rep.kernel.pieces for c in p.coeffs)]
        return {v._sqrt[2] for v in values + [rt.location for rt in rep.sign_changes] if v._sqrt}

    def bracketed(rep):
        return not all(rt.is_exact() for rt in rep.sign_changes)

    assert len(cases) >= 60 and sum(bool(want.sign_changes) for want in wants) >= 30
    assert sum(bool(radicands(want)) for want in wants) >= 10
    assert sum(map(bracketed, wants)) >= 3
    assert len(slopes) >= 20 and all(type(want.l1_norm) is _Dual for want in slope_wants)
    assert any(len(radicands(want)) > 1 for want in slope_wants)

    def scalar_sum(*args):
        raise AssertionError("a term-by-term sum, or a built rule")

    monkeypatch.setattr(Polynomial, "antiderivative", scalar_sum)
    monkeypatch.setattr(Scalar, "__abs__", scalar_sum)
    monkeypatch.setattr(_Dual, "__abs__", scalar_sum)
    gots = [kernel_l1_norm(rule, r) for rule, r in cases]
    monkeypatch.setattr(RuleFamily, "build", scalar_sum)
    got_slopes = [_bound_fn(fam, r)[2](x) for fam, x, r in slopes]
    monkeypatch.undo()
    for got, want, case in zip(gots, wants, cases):
        assert _matches_with_no_wider_norm(got, want), (case[0].name, case[1])
        assert got.l1_norm.is_exact or not want.l1_norm.is_exact, (case[0].name, case[1])
    for got, want, case in zip(got_slopes, slope_wants, slopes):
        assert no_wider_overlapping(_dual(*got), want.l1_norm), case


# ---------------------------------------------------------------------------
# bracketed roots: rational midpoint cuts and a second-order gap


def test_bracketed_catalog_constants_have_second_order_radii():
    # each kernel root of these is a bracket of width <= 1e-20; the midpoint
    # cuts leave a gap of order 1e-40
    for name, r in (("gauss_legendre2", 1), ("lobatto4", 1), ("lobatto4", 3)):
        rep = kernel_l1_norm(make_rule(name), r)
        assert not all(rt.is_exact() for rt in rep.sign_changes), (name, r)
        assert 0 < rep.radius <= 1e-40, (name, r, rep.radius)


def _interpolatory_rule(rng):
    """The interpolatory rule on 3 to 6 distinct nodes of the grid k/25 in [-1, 1]."""
    xs = [F(k, 25) for k in sorted(rng.sample(range(-25, 26), rng.randint(3, 6)))]
    nodes = []
    for i, x in enumerate(xs):
        basis = [F(1)]
        for j, y in enumerate(xs):
            if j != i:
                basis = _fmul(basis, [-y / (x - y), 1 / (x - y)])
        nodes.append((x, sum(2 * c / (k + 1) for k, c in enumerate(basis) if k % 2 == 0)))
    return custom_rule("interpolatory", nodes)


def test_bracketed_roots_give_enclosures_of_the_tight_reference():
    # 500 kernels of order r >= 2 with a bracketed root: each enclosure holds
    # the Scalar sum over roots refined to 1e-60 at 150 digits, and is no
    # wider than the Scalar sum over today's 1e-20 brackets at 60 digits
    rng = random.Random(25)
    cases = []
    while len(cases) < 500:
        rule = _interpolatory_rule(rng)
        for r in range(2, degree_of_exactness(rule, k_max=8).degree + 1):
            got = kernel_l1_norm(rule, r)
            if not all(rt.is_exact() for rt in got.sign_changes):
                cases.append((rule, r, got.l1_norm))
    wide = [reference_kernel_l1_norm(rule, r).l1_norm for rule, r, _ in cases]
    set_working_dps(150)
    try:
        tight = [reference_kernel_l1_norm(rule, r, tol=F(1, 10**60)).l1_norm for rule, r, _ in cases]
    finally:
        set_working_dps(60)
    for (rule, r, got), w, t in zip(cases, wide, tight):
        (lo, hi), (wlo, whi), (tlo, thi) = got.bounds(), w.bounds(), t.bounds()
        where = (r, [(str(x), str(a)) for x, a in rule.value_nodes])
        assert not got.is_exact and lo <= tlo and thi <= hi, where
        assert hi - lo <= whi - wlo, where


def _dual_abs_sum(pieces, ends, roots):
    """(value, eps part) of the sum over dual pieces (A + B*eps)/den between
    their ends and roots, in _Dual arithmetic (``util.reference_abs_sum``)."""
    from util import reference_abs_sum

    sums = [reference_abs_sum(A, B, den, [lo, *(rt.location for rt in found), hi], 0)
            for (A, B, den, _), lo, hi, found in zip(pieces, ends, ends[1:], roots)]
    return [sum(part, Scalar(0)) for part in zip(*sums)]


def test_a_slope_pass_with_a_bracketed_root_encloses_the_dual_sum():
    # dual pieces (A + B*eps)/den on two pieces whose value parts have an
    # irreducible cubic factor: the value and the eps part of l1_sum enclose
    # the _Dual sum at 1e-60 brackets and 150 digits.  The value is second
    # order in the bracket width w and no wider than the _Dual sum at the
    # same 1e-20 brackets; the eps part is first order, as wide as that sum
    # up to a term in w**2
    from peanoquad.peano import l1_sum
    from peanoquad.roots import DEFAULT_ROOT_TOL, _isolate_rational
    from util import reference_isolate_roots

    rng = random.Random(32)
    seen = 0
    while seen < 40:
        den, mid = rng.randint(1, 9), F(rng.randint(-9, 9), 10)
        ends = [(F(-1), F(rng.randint(-3, 3), 4)), (mid, F(rng.randint(-3, 3), 2)), (F(1), 0)]
        pieces = []
        for _ in range(2):
            cubic = [rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(-6, 6), rng.randint(-2, 2), 4]
            A = _fmul(cubic, [rng.randint(-3, 3), rng.choice([-2, -1, 1, 2])])
            pieces.append((A, [rng.randint(-5, 5) for _ in A], den, 0))
        windows = [(lo, hi) for (lo, _), (hi, _) in zip(ends, ends[1:])]
        roots = [_isolate_rational(A, lo, hi, DEFAULT_ROOT_TOL, F(A[-1], den))
                 for (A, *_), (lo, hi) in zip(pieces, windows)]
        if all(rt.is_exact() for found in roots for rt in found):
            continue
        seen += 1
        got = _Dual.parts(l1_sum(pieces, ends, roots))
        wide = _dual_abs_sum(pieces, ends, roots)
        set_working_dps(150)
        try:
            tight = _dual_abs_sum(pieces, ends, [
                reference_isolate_roots(Polynomial([F(a, den) for a in A]), lo, hi, F(1, 10**60))
                for (A, *_), (lo, hi) in zip(pieces, windows)])
        finally:
            set_working_dps(60)
        for g, w, t, width, slack in zip(got, wide, tight, (1e-35, 1e-15), (0, 1e-35)):
            (lo, hi), (wlo, whi), (tlo, thi) = g.bounds(), w.bounds(), t.bounds()
            assert not g.is_exact and lo <= tlo and thi <= hi and hi - lo < width, (pieces, ends)
            assert hi - lo <= whi - wlo + slack, (pieces, ends)


def test_a_root_enclosure_rounded_across_a_window_end_is_not_cut():
    # at 16 digits the enclosure of the root 1/3 + 1.8e-19 of this piece,
    # rounded outward, has its midpoint below the window end 1/3: that cut
    # is left out, and the sum still holds the Scalar sum at 150 digits
    from peanoquad.peano import l1_sum
    from peanoquad.roots import DEFAULT_ROOT_TOL, _isolate_rational
    from util import reference_isolate_roots

    A = _fmul([-1, 3], [-2, 0, 1])
    A = [c * 10**17 for c in A]
    A[0] += 1
    lo, hi = F(1, 3), F(1)
    set_working_dps(16)
    try:
        roots = _isolate_rational(A, lo, hi, DEFAULT_ROOT_TOL, F(A[-1]))
        assert len(roots) == 1 and sum(roots[0].location.bounds()) / 2 < lo
        got = l1_sum([(A, [0] * len(A), 1, 1)], [(lo, 0), (hi, 0)], [roots])
    finally:
        set_working_dps(60)
    set_working_dps(150)
    try:
        F_ = Polynomial(A).antiderivative()
        cuts = [Scalar(lo), *(rt.location for rt in reference_isolate_roots(
            Polynomial(A), lo, hi, F(1, 10**60))), Scalar(hi)]
        want = sum((abs(F_(t) - F_(s)) for s, t in zip(cuts, cuts[1:])), Scalar(0))
    finally:
        set_working_dps(60)
    (glo, ghi), (wlo, whi) = got.bounds(), want.bounds()
    assert not got.is_exact and glo <= wlo and whi <= ghi


def test_a_shared_rule_keeps_its_reports_by_order_and_precision():
    # GL2's M_1 at 20, 60, then 20 digits: each precision's own radius, and
    # each report the one an unshared rule of the same data gives
    radii = []
    try:
        for dps in (20, 60, 20):
            set_working_dps(dps)
            report = kernel_l1_norm(make_rule("gauss_legendre2"), 1)
            assert kernel_l1_norm(make_rule("gauss_legendre2"), 1) is report
            want = kernel_l1_norm(unshared(make_rule("gauss_legendre2")), 1)
            assert report.l1_norm.bounds() == want.l1_norm.bounds(), dps
            radii.append(report.radius)
    finally:
        set_working_dps(60)
    assert 1e-23 < radii[0] == radii[2] < 1e-22 and 1e-42 < radii[1] < 1e-41
    rule = make_rule("gauss_legendre2")
    assert [kernel_l1_norm(rule, r).order for r in (1, 2, 3, 1)] == [1, 2, 3, 1]


def test_no_report_is_kept_for_a_raise_or_for_interval_data():
    for _ in range(2):
        with pytest.raises(OrderExceedsExactness):
            kernel_l1_norm(make_rule("simpson"), 4)
    near = Scalar.from_interval(F(1, 2) - F(1, 10**40), F(1, 2) + F(1, 10**40))
    rule = make_rule("gs2", x=near)
    first = kernel_l1_norm(rule, 1)
    assert kernel_l1_norm(rule, 1) is not first
    assert kernel_l1_norm(rule, 1).l1_norm.bounds() == first.l1_norm.bounds()


# ---------------------------------------------------------------------------
# the one-pass L1 sum against the per-piece sum of util.py


def _same_sum(got, want) -> bool:
    """The same Scalar (or _Dual): equal by ==, part by part by type and exact enclosure ends."""
    return got == want and [(type(g), g.bounds()) for g in _Dual.parts(got)] == [
        (type(w), w.bounds()) for w in _Dual.parts(want)]


def _catalog_rules(x):
    """Every catalog rule, its free node (and alomari2's lower node, negated) at x."""
    from peanoquad.rules import CATALOG

    values = {"x": x, "lambda": F(1, 5), "y": F(2, 3), "gamma": F(1, 10), "delta": F(-1, 3)}
    for name in catalog_names():
        params = {p.replace("lambda", "lam"): values[p] for p in CATALOG[name].param_names}
        if name == "alomari2":  # x <= lambda <= y
            params.update(x=-x, lam=F(0))
        yield make_rule(name, **params)


def test_the_one_pass_l1_sum_equals_the_per_piece_sum():
    from peanoquad._forms import form_of, form_pieces, form_read
    from peanoquad._qpoly import parts
    from peanoquad.peano import l1_sum
    from peanoquad.roots import DEFAULT_ROOT_TOL, _isolate_rational
    from util import family_points, reference_l1_sum

    seen = {}

    def check(pieces, ends, found, kind):
        got, want = l1_sum(pieces, ends, found), reference_l1_sum(pieces, ends, found)
        assert _same_sum(got, want), (kind, pieces, ends)
        seen[kind] = seen.get(kind, 0) + 1

    def kernels(rule):
        for r in range(degree_of_exactness(rule, k_max=8).degree + 1):
            kernel = build_kernel(rule, r)
            if kernel.exact is not None:
                yield kernel, [roots for _, roots in _piece_roots(kernel)]

    # every catalog kernel over Q, Q(sqrt 3) and Q(sqrt 5), at three precisions
    for field, x in (("Q", F(1, 3)), ("Q(sqrt 3)", sqrt(Scalar(F(1, 3)))),
                     ("Q(sqrt 5)", sqrt(Scalar(F(1, 5))))):
        for dps in (20, 60, 120):
            set_working_dps(dps)
            try:
                for rule in _catalog_rules(x):
                    for kernel, found in kernels(rule):
                        check(kernel.exact, [parts(b) for b in kernel.breakpoints], found, field)
            finally:
                set_working_dps(60)
    # seeded random rational kernels (interpolatory rules), each with a bracketed root
    rng = random.Random(4004)
    while seen.get("bracketed", 0) < 100:
        for kernel, found in kernels(_interpolatory_rule(rng)):
            if any(rt.bracket for roots in found for rt in roots):
                check(kernel.exact, [parts(b) for b in kernel.breakpoints], found, "bracketed")
    # the Q[eps] pieces of the fitted forms at x + d*eps, as the slope passes read them
    for name, fixed in SCAN_FAMILIES:
        fam = family(name, **fixed)
        for x in family_points(fam)[::6]:
            for d in (1, -1):
                read = form_read(form_of(fam), fam.domain, x, d)
                for r in range(fam.generic_degree + 1):
                    pieces = read and form_pieces(read, r)
                    if not pieces:
                        continue
                    ends = [(F(g, read[4]), h and F(h, read[4])) for g, h in read[6]]
                    found = [_isolate_rational(A, lo, hi, DEFAULT_ROOT_TOL, F(A[-1], den))
                             for (A, _, den, _), (lo, _), (hi, _) in zip(pieces, ends, ends[1:])]
                    check(pieces, ends, found, "Q[eps]")
    assert seen["Q"] >= 120 and seen["Q(sqrt 3)"] >= 120 and seen["Q(sqrt 5)"] >= 120, seen
    assert seen["Q[eps]"] >= 200, seen
