"""Root isolation: rational and Q(sqrt m) inputs, interval data, oracles."""

import math
import random
from fractions import Fraction as F
from functools import reduce

import pytest

from peanoquad import DegreeTooHigh, Polynomial, Scalar, isolate_roots, sqrt
from peanoquad._qpoly import _fmul
from peanoquad.roots import _simplest_in_open, _sturm_chain_int
from util import (REFERENCE_EXITS, fdivmod, reference_isolate_roots, reference_simplest_in_open,
                  reference_sturm_chain_int, yun_squarefree)


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


def _times(*fs):
    return reduce(_fmul, fs)


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
        c = fdivmod(c, [-lo, F(1)])[0]
    while len(c) > 1 and _qpoly.fraction_eval(c, hi) == 0:
        c = fdivmod(c, [-hi, F(1)])[0]
    if len(c) < 2:
        return []
    found = [roots.Root(r, mult) for factor, mult in yun_squarefree(c)
             for r in _scalar_quadratic_roots(factor, lo, hi)]
    return sorted(found, key=lambda r: r.location.bounds()[0])


def _low_degree_cases(rng):
    """(coefficients, lo, hi) of seeded linear and quadratic pieces, and of
    cubics that deflate to one at a window end."""
    def q():
        return F(rng.randint(-30, 30), rng.randint(1, 12))

    for _ in range(60):
        k, a, b = q() or F(-1), q(), q()
        lo, hi = sorted((q(), q() + F(1, 7)))
        yield [-a * k, k], lo, hi                                  # linear, k < 0 half the time
        yield [-a * k, k], a, hi if hi > a else a + 1              # linear root at lo
        yield _times([-a, 1], [-b, 1], [k]), lo, hi                # rational roots
        yield _times([-a, 1], [-a, 1], [k]), lo, hi                # double root
        yield _times([-a, 1], [-a, 1], [k]), a, a + 2              # double root at lo
        yield _times([-a, 1], [-b, 1], [k]), min(a, b), max(a, b) + 1  # root at lo
        yield _times([-a, 1], [-b, 1], [k]), min(a, b) - 1, max(a, b)  # root at hi
        yield _times([-a, 1], [-b, 1], [k]), min(a, b), max(a, b)  # both at the ends
        yield [k * (a * a + 1), -2 * a * k, k], lo, hi             # negative discriminant
        yield [q(), q(), k], lo - 3, hi + 3                        # roots in Q(sqrt m), mostly
        yield _times([q(), q(), k], [-lo, 1]), lo, hi + 3          # cubic, a root at lo
        yield _times([-a, 1], [-a, 1], [-hi, 1]), lo, hi           # double root, a root at hi


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


# --------------------------------------------------------------------------
# the integer engine against the Fraction reference in util.py


def _root_keys(roots):
    return [(r.location.to_json_str(), r.location.bounds(), r.multiplicity_hint, r.certified)
            for r in roots]


def _engine_cases(rng):
    """(coefficients, lo, hi) of seeded rational polynomials of degree 3 to 8.

    An integer root alone in its window meets the rational probe at step 0;
    roots of middling and large odd denominators meet the probes at step 8
    and after the last halving; odd/2**k roots meet a dyadic midpoint; cube
    roots of non-cubes stay brackets."""
    def q(den=12):
        return F(rng.randint(-30, 30), rng.randint(1, den))

    def root_in(lo, hi, den):
        return lo + (hi - lo) * F(rng.randint(1, den - 1), den)

    def cubic(lo, hi):  # (t - s)**3 - k, its real root irrational
        s, k = root_in(lo, hi, 7), F(rng.choice((2, 3, 5, 7)), rng.choice((1, 4, 9)))
        k *= rng.choice((-1, 1)) * (hi - lo) ** 3 / 64
        return [-s**3 - k, 3 * s * s, -3 * s, F(1)]

    def lin(r):
        return [-r, F(1)]

    for _ in range(12):
        lo, hi = sorted((q(), q() + F(1, 5)))
        k = [rng.choice((-1, 1)) * F(rng.randint(1, 9), rng.randint(1, 9))]
        rs = [root_in(lo, hi, 97), root_in(lo, hi, 3 * rng.randint(10, 60) + 1),
              root_in(lo, hi, 2 * rng.randint(10**6, 10**7) + 1)]
        yield _times(k, *map(lin, rs)), lo, hi                      # probes at steps 0, 8, end
        yield _times(k, *map(lin, rs), cubic(lo, hi)), lo, hi       # and a bracket
        n = F(rng.randint(-5, 5))
        yield _times(k, lin(n), cubic(n + 1, n + 2)), n - F(1, 3), n + F(1, 2)  # the simplest
        dy = F(2 * rng.randint(0, 31) + 1, 64)
        yield _times(k, lin(dy), cubic(F(2), F(3))), F(0), F(1)     # a dyadic midpoint
        mid = (lo + hi) / 2  # a Sturm midpoint
        yield _times(k, lin(mid), lin(root_in(lo, mid, 5)), cubic(mid, hi)), lo, hi
        i = rng.randint(1, 3)
        j = rng.randint(1, 5 - i)
        yield _times(k, *[lin(lo)] * i, *[lin(hi)] * j, cubic(lo, hi)), lo, hi  # roots at lo, hi
        yield _times(k, cubic(lo, hi), cubic(lo, hi)), lo, hi      # a Yun factor of multiplicity 2
        yield _times(k, *[lin(rs[1])] * 3, cubic(lo, hi)), lo, hi  # multiplicity 3
        w = [q(), q(), F(1)]
        yield _times(k, w, w, lin(rs[0]), lin(rs[1])), lo - 3, hi + 3  # a quadratic factor twice
    # the scale of the input names the field of a closed-form root: 53**2 is
    # not pulled out of the discriminant, so the root is 1/53*sqrt(5618)
    yield _times([F(53)], [F(-2), F(0), F(1)], lin(F(-2))), F(-2), F(2)


def _field_cases(rng):
    """Polynomials A + B*sqrt(m) with a cubic A, and ones times a rational
    factor that A and B share: their norms have irrational roots."""
    def q():
        return F(rng.randint(-20, 20), rng.randint(1, 6))

    for m in (2, 3, 5, 7, 2, 3):
        s = sqrt(Scalar(m))
        a, b = [q(), q(), q(), F(rng.choice((-2, -1, 1, 3)))], [q(), q() or F(1)]
        coeffs = [Scalar(x) + (Scalar(y) * s if i < len(b) else 0) for i, (x, y) in
                  enumerate(zip(a, b + [F(0)] * 2))]
        yield Polynomial(coeffs), F(-3), F(3)
        yield Polynomial(coeffs) * Polynomial([-q(), 1]), F(-3), F(3)
    s2 = sqrt(Scalar(2))  # a quadratic norm with 53 in its leading coefficient
    yield Polynomial([-s2, 1]) * Polynomial([F(-1, 3), 1]) * Polynomial([F(2, 5), F(53)]), -2, 2
    # a quadratic gcd of A and B, t**2 + t/53 - 1: its roots lie in Q(sqrt(11237 * 53**2))
    yield Polynomial([s2, 1, 1]) * Polynomial([-1, F(1, 53), 1]), -3, 3


def _interval_cases(rng):
    def q():
        return F(rng.randint(-20, 20), rng.randint(1, 6))

    for _ in range(6):
        c = _times([-q(), F(1)], [-q(), F(1)], [q(), q(), F(1)])
        eps = F(1, 10 ** rng.randint(25, 40))
        yield Polynomial([Scalar.from_interval(x - eps, x + eps) for x in c]), F(-4), F(4)


def test_integer_engine_matches_the_fraction_reference():
    rng = random.Random(17017)
    REFERENCE_EXITS.clear()
    cases = [(Polynomial(c), lo, hi) for c, lo, hi in _engine_cases(rng)]
    cases += list(_field_cases(rng)) + list(_interval_cases(rng))
    for p, lo, hi in cases:
        assert 3 <= p.degree <= 8
        want = reference_isolate_roots(p, lo, hi)
        got = isolate_roots(p, lo, hi)
        assert _root_keys(got) == _root_keys(want), (p.coeffs, lo, hi)
    exits = {"probe at step 0", "probe at step 8", "final probe", "dyadic midpoint", "bracket",
             "Sturm midpoint", "Yun factor of multiplicity 2", "Yun factor of multiplicity 3",
             "sign at a bracket", "interval midpoints"}
    exits |= {f"root at {end} of multiplicity {k}" for end in ("lo", "hi") for k in (1, 2, 3)}
    assert exits <= {e for e, n in REFERENCE_EXITS.items() if n}, exits - set(REFERENCE_EXITS)


def test_simplest_rational_matches_the_fraction_reference():
    rng = random.Random(2718)
    ends = [(F(-7, 3), F(-2, 3)), (F(-1, 2), F(1, 3)), (F(-5), F(-4)), (F(2), F(5, 2)),
            (F(3), F(3) + F(1, 10**9)), (F(0), F(1, 10**20)), (F(-1, 10**20), F(0)),
            (F(1, 3), F(1, 3) + F(1, 10**20))]
    for _ in range(300):
        a = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        ends.append((a, a + F(1, rng.choice((1, 7, 10**3, 10**9, 10**20)))))
        ends.append((F(rng.randint(-9, 9)), F(rng.randint(-9, 9)) + F(1, rng.randint(1, 10**6))))
    kinds = set()
    for a, b in ends:
        if a < b:
            assert _simplest_in_open(a, b) == reference_simplest_in_open(a, b), (a, b)
            kinds.add("negative" if b <= 0 else "straddle" if a < 0 else
                      "integer left end" if a.denominator == 1 else "positive")
    assert kinds == {"negative", "straddle", "integer left end", "positive"}


def test_sturm_chain_keeps_the_signs_of_the_fraction_chain():
    # pseudo-remainders scaled by lc instead of |lc| flip the sign of a
    # remainder after a negative leading coefficient and miscount roots
    rng = random.Random(31)
    polys = [[5, -3, 0, 2, -7], [-1, 4, 0, -6, 1, -2], [3, 0, -9, 2, 0, 0, -1]]
    polys += [[rng.randint(-9, 9) for _ in range(rng.randint(4, 9))] + [rng.choice((-3, -1, 2))]
              for _ in range(40)]
    negative_inner = 0
    for c in polys:
        chain = _sturm_chain_int(c)
        assert chain == reference_sturm_chain_int(c), c
        negative_inner += any(p[-1] < 0 for p in chain[1:-1])
    assert negative_inner >= 10
