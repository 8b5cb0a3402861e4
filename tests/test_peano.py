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
from peanoquad.scalars import _Dual
from util import assert_scalar_equals, random_rational_rule, scalar_is_zero

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
