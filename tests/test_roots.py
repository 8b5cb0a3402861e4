"""Root isolation: rational and Q(sqrt m) inputs, interval data, oracles."""

import math
import random
from fractions import Fraction as F

import pytest

from peanoquad import DegreeTooHigh, Polynomial, Scalar, isolate_roots, sqrt


def sign_scan_oracle(fn, lo, hi, n=100001):
    """Dense sign scan; returns crossing count and approximate locations."""
    locs = []
    prev = fn(lo + (hi - lo) * 1e-9)
    for i in range(1, n):
        t = lo + (hi - lo) * (i / (n - 1) - 1e-12)
        v = fn(t)
        if prev * v < 0:
            locs.append(t)
        if v != 0:
            prev = v
    return len(locs), locs


def test_linear_exact_roots():
    roots = isolate_roots(Polynomial([0, 1]), -1, 1)
    assert len(roots) == 1
    assert roots[0].location.as_fraction() == 0
    roots = isolate_roots(Polynomial([-1, 3]), -1, 1)
    assert roots[0].location.as_fraction() == F(1, 3)


def test_zero_and_constant_have_no_roots():
    assert len(isolate_roots(Polynomial(), -1, 1)) == 0
    assert len(isolate_roots(Polynomial([5]), -1, 1)) == 0


def test_degree_guard():
    with pytest.raises(DegreeTooHigh):
        isolate_roots(Polynomial.monomial(17), -1, 1)


def test_quadratic_irrational_roots():
    p = Polynomial([-2, 0, 1])  # t^2 - 2
    roots = isolate_roots(p, -3, 3)
    assert len(roots) == 2
    assert abs(float(roots[0].location) + math.sqrt(2)) < 1e-15
    assert abs(float(roots[1].location) - math.sqrt(2)) < 1e-15


def test_endpoint_roots_excluded():
    p = Polynomial([1, 1]) ** 3 * Polynomial([-1, 3])  # roots -1 (triple), 1/3
    assert len(isolate_roots(p, -1, 0)) == 0
    roots = isolate_roots(p, -1, 1)
    assert [r.location.as_fraction() for r in roots] == [F(1, 3)]


def test_multiplicity_hints():
    p = Polynomial([F(-1, 2), 1]) ** 2 * Polynomial([F(1, 4), 1])
    roots = isolate_roots(p, -1, 1)
    assert [(r.location.as_fraction(), r.multiplicity_hint) for r in roots] == [
        (F(-1, 4), 1),
        (F(1, 2), 2),
    ]


@pytest.mark.parametrize("q", ["1.25992104989487316477", "1.259921049894873164767",
                               "1.259921049894873164767211", "1.25992104989487316476721060728"])
def test_close_roots_of_two_multiplicities_are_both_reported(q):
    # q is 2^(1/3) rounded, so the simple root 2^(1/3) and the double root q
    # of two squarefree factors sit closer than the root tolerance: their
    # brackets overlap and have no exact order
    q = F(q)
    p = Polynomial([-2, 0, 0, 1]) * Polynomial([-q, 1]) ** 2
    roots = isolate_roots(p, 0, 2)
    assert sorted(r.multiplicity_hint for r in roots) == [1, 2]
    assert [r.location.bounds()[0] for r in roots] == sorted(r.location.bounds()[0] for r in roots)
    double = next(r for r in roots if r.multiplicity_hint == 2)
    simple = next(r for r in roots if r.multiplicity_hint == 1)
    assert double.location.as_fraction() == q
    lo, hi = simple.location.bounds()
    assert lo**3 <= 2 <= hi**3


def test_sign_pattern_consistent_with_multiplicity():
    p = Polynomial([F(-1, 2), 1]) ** 2 * Polynomial([F(1, 4), 1])
    roots = isolate_roots(p, -1, 1)
    cuts = [F(-1)] + [r.location.as_fraction() for r in roots] + [F(1)]
    mids = [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    signs = [1 if p(m).as_fraction() > 0 else -1 for m in mids]
    for k, r in enumerate(roots):
        if r.multiplicity_hint % 2 == 1:
            assert signs[k] != signs[k + 1]
        else:
            assert signs[k] == signs[k + 1]


def test_bracket_width_within_tolerance():
    p = Polynomial([-F(1, 3), 0, 0, 1])  # t^3 = 1/3, irrational root
    tol = F(1, 10**20)
    roots = isolate_roots(p, 0, 1, tol)
    loc = roots[0].location
    assert not loc.is_rational
    assert loc.radius() <= float(tol)
    assert abs(float(loc) - (1 / 3) ** (1 / 3)) < 1e-15


def test_random_rational_root_recovery():
    rng = random.Random(424242)
    for _ in range(10):
        roots = sorted({F(rng.randint(-8, 8), rng.randint(1, 9)) for _ in range(3)})
        p = Polynomial([1])
        for r in roots:
            p = p * Polynomial([-r, 1])
        got = isolate_roots(p, -10, 10)
        assert [r.location.as_fraction() for r in got] == roots


def test_sturm_chain_keeps_remainder_signs():
    # a Sturm chain whose remainders were sign-normalized miscounted here and
    # the bisection never terminated; the quartic has no real root at all
    p = Polynomial([F(1, 3), F(-1, 2), F(3, 5), F(-2, 3), F(5, 7)])
    assert len(isolate_roots(p, -1, 1)) == 0


def test_gauss2_quartic_has_no_roots_inside():
    # middle kernel piece of order 3 for the two-point Gauss rule
    s3 = sqrt(Scalar(3))
    p = Polynomial([Scalar(9) - 4 * s3, 0, -18 * (2 * s3 - Scalar(3)), 0, 9])
    lim = float(1 / math.sqrt(3))
    count, _ = sign_scan_oracle(
        lambda t: 9 * t**4 - 18 * (2 * math.sqrt(3) - 3) * t**2 - 4 * math.sqrt(3) + 9,
        -lim, lim,
    )
    got = isolate_roots(p, -Scalar(1) / s3, Scalar(1) / s3)
    assert count == 0
    assert len(got) == count


def test_numeric_quartic_roots_match_sign_scan():
    # middle kernel piece of order 3 for the four-point Lobatto rule
    s5 = sqrt(Scalar(5))
    p = Polynomial([Scalar(5) - 2 * s5, 0, 30 * (Scalar(2) - s5), 0, 15])
    lim = 1 / math.sqrt(5)
    count, locs = sign_scan_oracle(
        lambda t: 15 * t**4 + 30 * (2 - math.sqrt(5)) * t**2 + (5 - 2 * math.sqrt(5)),
        -lim, lim,
    )
    got = isolate_roots(p, -Scalar(1) / s5, Scalar(1) / s5)
    assert len(got) == count == 2
    for root, ref in zip(got, locs):
        assert abs(float(root.location) - ref) < 1e-4  # oracle grid resolution
        assert root.location.radius() <= 1e-20


def test_numeric_path_certifies_brackets():
    s5 = sqrt(Scalar(5))
    p = Polynomial([Scalar(5) - 2 * s5, 0, 30 * (Scalar(2) - s5), 0, 15])
    got = isolate_roots(p, -Scalar(1) / s5, Scalar(1) / s5)
    for root in got:
        assert root.multiplicity_hint == 1  # certified sign change


def test_root_shared_by_gcd_and_cofactor_is_merged():
    # p = (2t^2 - 1)(t - sqrt(2)/2): A = 2t^3 - t and B = 1/2 - t^2 share
    # 2t^2 - 1, and the cofactor 2t - sqrt(2) vanishes at sqrt(2)/2 again
    s2 = sqrt(Scalar(2))
    p = Polynomial([2 * s2 / 4, -1, -s2, 2])
    got = isolate_roots(p, -1, 1)
    assert [r.location for r in got] == [-s2 / 2, s2 / 2]
    assert [r.multiplicity_hint for r in got] == [1, 2]
    assert all(r.is_exact() and r.certified for r in got)


def test_interval_data_double_root_is_reported_uncertified():
    # (t - 1/4)^2 with an interval constant term centred on 1/16: the
    # midpoint polynomial has the double root, p has no provable sign change
    c0 = Scalar.from_interval(F(1, 16) - F(1, 2**140), F(1, 16) + F(1, 2**140))
    tol = F(1, 10**20)
    [root] = isolate_roots(Polynomial([c0, F(-1, 2), 1]), 0, 1, tol)
    assert not root.is_exact() and not root.certified
    assert root.multiplicity_hint == 2
    lo, hi = root.location.bounds()
    assert lo < F(1, 4) < hi and hi - lo <= tol


def test_interval_data_double_root_off_the_midpoint_grid():
    # (t - 1/3)^2 with the constant 1/9 +- 1e-40: the enclosure's midpoint
    # is not exactly 1/9, so the midpoint polynomial misses zero near 1/3 by
    # a hair; its minimum there is still reported, uncertified
    def poly(c):
        return Polynomial([Scalar.from_interval(c - F(1, 10**40), c + F(1, 10**40)), F(-2, 3), 1])

    tol = F(1, 10**20)
    [root] = isolate_roots(poly(F(1, 9)), 0, 1, tol)
    assert not root.is_exact() and not root.certified
    assert root.multiplicity_hint == 2
    lo, hi = root.location.bounds()
    assert lo < F(1, 3) < hi and hi - lo <= tol
    # a minimum clear of zero is no root, and one below zero adds nothing to
    # the two certified roots around it
    assert len(isolate_roots(poly(F(1, 9) + F(1, 1000)), 0, 1, tol)) == 0
    got = isolate_roots(poly(F(1, 9) - F(1, 100)), 0, 1, tol)
    assert [r.certified for r in got] == [True, True]
    for root, want in zip(got, (F(7, 30), F(13, 30))):
        lo, hi = root.location.bounds()
        assert lo < want < hi
