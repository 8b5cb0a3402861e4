"""Monomial remainders and precise degrees of exactness."""

import random
from fractions import Fraction as F

import pytest

from peanoquad import (
    Polynomial,
    QuadRule,
    Scalar,
    apply_rule,
    custom_rule,
    degree_of_exactness,
    make_rule,
    remainder_on_monomial,
    sqrt,
)
from peanoquad.exactness import _classify


def test_simpson_remainders():
    s = make_rule("simpson")
    assert remainder_on_monomial(s, 2).as_fraction() == 0
    assert remainder_on_monomial(s, 4).as_fraction() == F(-4, 15)


def test_mod3_opt_cubic_remainder_is_4x_over_3():
    for x in [F(1, 4), F(-2, 5), F(1, 10), F(3, 7)]:
        r = make_rule("mod3_opt", x=x)
        assert remainder_on_monomial(r, 3).as_fraction() == F(4, 3) * x


def test_liu_park_quadratic_remainder():
    for x in [F(1, 2), F(1, 5), F(7, 10)]:
        r = make_rule("liu_park", x=x)
        assert remainder_on_monomial(r, 2).as_fraction() == x * x - F(1, 3)


def test_ostrowski_remainder_linear():
    r = make_rule("ostrowski", x=F(1, 4))
    assert remainder_on_monomial(r, 1).as_fraction() == F(-1, 2)  # -2x at x = 1/4


DEGREES = [
    (make_rule("ostrowski", x=F(1, 4)), 0),
    (make_rule("ostrowski", x=0), 1),
    (make_rule("mp3", x=F(2, 5)), 1),
    (make_rule("mod3_opt", x=F(1, 4)), 2),
    (make_rule("simpson"), 3),
    (make_rule("dcr", lam=F(1, 4), x=F(1, 5)), 0),
    (make_rule("gs2", x=F(1, 2)), 1),
    (make_rule("gauss_legendre2"), 3),
    (make_rule("franjic", x=F(1, 3)), 2),
    (make_rule("radau2"), 2),
    (make_rule("alomari4", lam=F(1, 6), x="sqrt(1/5)"), 5),
    (make_rule("lobatto4"), 5),
    (make_rule("liu_park", x=F(1, 2)), 1),
    (make_rule("liu_park_gauss"), 3),
    (make_rule("dragomir_sofo", x=F(2, 5)), 1),
]


@pytest.mark.parametrize("rule,expected", DEGREES, ids=lambda v: getattr(v, "name", v))
def test_catalog_degrees(rule, expected):
    report = degree_of_exactness(rule)
    assert report.degree == expected
    assert not report.at_least
    assert report.first_nonzero_index == expected + 1
    assert report.ambiguous_indices == ()


def test_lobatto4_sixth_remainder_exact():
    r = make_rule("lobatto4")
    val = remainder_on_monomial(r, 6)
    assert val.is_rational
    assert val.as_fraction() == F(-32, 525)


def test_remainders_vanish_up_to_degree():
    report = degree_of_exactness(make_rule("lobatto4"))
    for k in range(6):
        assert report.remainders[k].is_rational
        assert report.remainders[k].as_fraction() == 0


def test_linearity_on_random_polynomials():
    rng = random.Random(31337)
    for rule, d in DEGREES:
        if d < 0:
            continue
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d + 1)]
        p = Polynomial(coeffs)
        remainder = p.definite_integral(-1, 1) - apply_rule(rule, p)
        assert remainder.is_exact_zero() or remainder.zero_within()


@pytest.mark.parametrize(
    "rule",
    [
        make_rule("gs2", x=F(2, 5)),
        make_rule("simpson"),
        make_rule("alomari4", lam=F(1, 5), x=F(2, 3)),
        make_rule("liu_park", x=F(1, 2)),
        make_rule("q44", lam=F(1, 3), gamma=F(1, 10), delta=F(-1, 20), x=F(1, 2)),
    ],
    ids=lambda r: r.name,
)
def test_symmetric_rules_kill_odd_monomials(rule):
    for k in range(1, 12, 2):
        val = remainder_on_monomial(rule, k)
        assert val.is_exact_zero() or val.zero_within()


def test_degenerate_weight_sum_gives_degree_minus_one():
    rule = QuadRule("lopsided", ((Scalar(0), Scalar(1)),), (), {})
    report = degree_of_exactness(rule)
    assert report.degree == -1
    assert report.first_nonzero_index == 0


def test_at_least_flag_with_small_cap():
    report = degree_of_exactness(make_rule("simpson"), k_max=3)
    assert report.at_least
    assert report.degree == 3
    assert report.first_nonzero_index is None


def test_dcr_special_cases():
    # lambda = 0 reduces to the one-point rule
    assert degree_of_exactness(make_rule("dcr", lam=0, x=F(1, 5))).degree == 0
    assert degree_of_exactness(make_rule("dcr", lam=0, x=0)).degree == 1
    # lambda = 1/3, x = 0 is Simpson
    assert degree_of_exactness(make_rule("dcr", lam=F(1, 3), x=0)).degree == 3


def test_ambiguity_is_decided_from_exact_ends():
    # the float of 1e-400 is 0: the ends must be compared as rationals
    tiny = Scalar.from_interval(F(1, 10**400), F(2, 10**400))
    assert _classify(tiny) == ("nonzero", True)
    assert _classify(Scalar.from_interval(F(1), F(1) + F(1, 10**40))) == ("nonzero", False)
    assert _classify(Scalar(F(1, 10**400))) == ("nonzero", False)
    # flagged when the midpoint is within AMBIGUITY_FACTOR radii of zero
    assert _classify(Scalar.from_interval(F(17, 4), F(21, 4))) == ("nonzero", True)
    assert _classify(Scalar.from_interval(F(9, 2), F(11, 2))) == ("nonzero", False)


def test_an_exact_nonzero_remainder_is_never_ambiguous():
    # p - q*sqrt(2) from a convergent of sqrt(2): exact and nonzero, yet its
    # enclosure at the working precision is many times wider than its value
    p, q = 1, 1
    while q <= 10**62:
        p, q = p + 2 * q, p + q
    tiny = Scalar(p) - Scalar(q) * sqrt(Scalar(2))
    lo, hi = tiny.bounds()
    assert tiny.is_exact and not tiny.is_rational and abs(lo + hi) < 10 * (hi - lo)
    assert _classify(tiny) == ("nonzero", False)
    report = degree_of_exactness(custom_rule("t", [(F(0), Scalar(2) - tiny)], []))
    assert report.remainders[0].to_json_str() == tiny.to_json_str()
    assert (report.degree, report.first_nonzero_index, report.ambiguous_indices) == (-1, 0, ())


def test_gs2_trapezoid_case():
    assert degree_of_exactness(make_rule("gs2", x=1)).degree == 1
