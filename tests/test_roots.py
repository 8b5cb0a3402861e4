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


def test_interval_window_end_is_its_exact_midpoint():
    # the root lies 1e-18 below 1/3; a window end 1/3 +- 1e-40 read as the
    # nearest double (1/3 - 1.85e-17) would leave it outside
    root = F(1, 3) - F(1, 10**18)
    hi = Scalar.from_interval(F(1, 3) - F(1, 10**40), F(1, 3) + F(1, 10**40))
    for end in (hi, F(1, 3)):
        got = isolate_roots(Polynomial([-root, 1]), 0, end)
        assert [r.location.as_fraction() for r in got] == [root]


def _scalar_quadratic_roots(f, lo, hi):
    """Reference: roots of a squarefree linear or quadratic factor inside
    (lo, hi) by Scalar arithmetic in Q(sqrt(disc))."""
    if len(f) == 2:
        r = -f[0] / f[1]
        return [Scalar(r)] if lo < r < hi else []
    disc = f[1] * f[1] - 4 * f[0] * f[2]
    if disc < 0:
        return []
    rs = [(Scalar(-f[1]) + s * sqrt(Scalar(disc))) / Scalar(2 * f[2]) for s in (-1, 1)]
    return sorted(r for r in rs if Scalar(lo).lt_definite(r) and r.lt_definite(Scalar(hi)))


def _yun_route(c, lo, hi):
    """Reference: _isolate_rational with every piece split by Yun first."""
    from peanoquad import _qpoly, roots

    while len(c) > 1 and _qpoly.fraction_eval(c, lo) == 0:
        c = _qpoly._fdivmod(c, [-lo, F(1)])[0]
    while len(c) > 1 and _qpoly.fraction_eval(c, hi) == 0:
        c = _qpoly._fdivmod(c, [-hi, F(1)])[0]
    if len(c) < 2:
        return []
    found = [roots.Root(r, mult) for factor, mult in _qpoly._yun_squarefree(c)
             for r in _scalar_quadratic_roots(factor, lo, hi)]
    return sorted(found, key=lambda r: r.location.bounds()[0])


def _low_degree_cases(rng):
    """(coefficients, lo, hi) of seeded linear and quadratic pieces, and of
    cubics that deflate to one at a window end."""
    def q():
        return F(rng.randint(-30, 30), rng.randint(1, 12))

    def times(*fs):
        from functools import reduce

        from peanoquad._qpoly import _fmul

        return reduce(_fmul, fs)

    for _ in range(60):
        k, a, b = q() or F(-1), q(), q()
        lo, hi = sorted((q(), q() + F(1, 7)))
        yield [-a * k, k], lo, hi                                  # linear, k < 0 half the time
        yield [-a * k, k], a, hi if hi > a else a + 1              # linear root at lo
        yield times([-a, 1], [-b, 1], [k]), lo, hi                 # rational roots
        yield times([-a, 1], [-a, 1], [k]), lo, hi                 # double root
        yield times([-a, 1], [-a, 1], [k]), a, a + 2               # double root at lo
        yield times([-a, 1], [-b, 1], [k]), min(a, b), max(a, b) + 1  # root at lo
        yield times([-a, 1], [-b, 1], [k]), min(a, b) - 1, max(a, b)  # root at hi
        yield times([-a, 1], [-b, 1], [k]), min(a, b), max(a, b)   # both at the ends
        yield [k * (a * a + 1), -2 * a * k, k], lo, hi             # negative discriminant
        yield [q(), q(), k], lo - 3, hi + 3                        # roots in Q(sqrt m), mostly
        yield times([q(), q(), k], [-lo, 1]), lo, hi + 3           # cubic, a root at lo
        yield times([-a, 1], [-a, 1], [-hi, 1]), lo, hi            # double root, a root at hi


def test_closed_form_low_degree_roots_match_the_yun_route():
    from peanoquad.roots import _isolate_rational

    rng = random.Random(8128)
    tol = F(1, 10**20)
    kinds = set()
    for c, lo, hi in _low_degree_cases(rng):
        if lo >= hi or c[-1] == 0:
            continue
        want = _yun_route(list(c), lo, hi)
        got = _isolate_rational(list(c), lo, hi, tol)
        assert ([(r.location.to_json_str(), r.multiplicity_hint, r.certified) for r in got]
                == [(r.location.to_json_str(), r.multiplicity_hint, r.certified) for r in want]), c
        assert list(isolate_roots(Polynomial(c), lo, hi)) == got
        kinds.update(("rational" if r.location.is_rational else "sqrt", r.multiplicity_hint)
                     for r in got)
    assert kinds == {("rational", 1), ("rational", 2), ("sqrt", 1)}
