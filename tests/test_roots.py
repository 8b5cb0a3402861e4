"""Root isolation: rational and Q(sqrt m) inputs, interval data, oracles."""

import math
import random
from collections import Counter
from fractions import Fraction as F
from functools import reduce

import pytest

from peanoquad import DegreeTooHigh, Polynomial, Scalar, isolate_roots, sqrt
from peanoquad.scalars import as_scalar
from peanoquad._qpoly import _fmul, _ints
from peanoquad.roots import _simplest_in_open, _sturm_chain_int
from util import (REFERENCE_EXITS, fdivmod, fraction_eval, reference_isolate_roots,
                  reference_simplest_in_open, reference_sturm_chain_int, yun_squarefree)


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
    roots = isolate_roots(p, 0, 1)
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
    [root] = isolate_roots(Polynomial([c0, F(-1, 2), 1]), 0, 1)
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
    [root] = isolate_roots(poly(F(1, 9)), 0, 1)
    assert not root.is_exact() and not root.certified
    assert root.multiplicity_hint == 2
    lo, hi = root.location.bounds()
    assert lo < F(1, 3) < hi and hi - lo <= tol
    # a minimum clear of zero is no root, and one below zero adds nothing to
    # the two certified roots around it
    assert len(isolate_roots(poly(F(1, 9) + F(1, 1000)), 0, 1)) == 0
    got = isolate_roots(poly(F(1, 9) - F(1, 100)), 0, 1)
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
    from peanoquad import roots

    while len(c) > 1 and fraction_eval(c, lo) == 0:
        c = fdivmod(c, [-lo, F(1)])[0]
    while len(c) > 1 and fraction_eval(c, hi) == 0:
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
        got = _isolate_rational(_ints(*c)[:-1], lo, hi, tol, c[-1])
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


def test_quadratic_cofactor_of_an_exact_hit_takes_the_closed_form():
    # over (-1, 1) the Sturm bisection hits the root 0 at its first midpoint
    # and divides it out; over (0, 1) the root 0 is a window end.  Both leave
    # t**2 - 6t + 3, whose root 3 - sqrt(6) is named alike: by the input's
    # scale (53**2 stays in the discriminant), or by lead 1 for a factor of
    # Yun's split (the double root 5 outside the window)
    cubic, lin5 = [F(0), F(3), F(-6), F(1)], [F(-5), F(1)]
    cases = [(cubic, "3-sqrt(6)"), (_times([F(53)], cubic), "3-1/53*sqrt(16854)"),
             (_times([F(53)], cubic, lin5, lin5), "3-sqrt(6)")]
    for coeffs, want in cases:
        p = Polynomial(coeffs)
        inside, at_end = isolate_roots(p, -1, 1), isolate_roots(p, 0, 1)
        assert [r.location.to_json_str() for r in inside] == ["0", want], coeffs
        assert [r.location.to_json_str() for r in at_end] == [want], coeffs
        assert [r.multiplicity_hint for r in inside] == [1, 1]


# --------------------------------------------------------------------------
# Descartes' rule of signs before Yun's split and the Sturm chains


def _descartes_cases(rng):
    """(integer coefficients, lo, hi) of seeded polynomials of degree 3 to 8
    on windows with rational ends: random coefficients and products of
    distinct linear and quadratic factors (squarefree), products with a
    linear factor repeated inside the window, and products whose repeated
    factors all lie outside it.  Some have a root at a window end."""
    def q(den=9):
        return F(rng.randint(-40, 40), rng.randint(1, den))

    def lin(r):  # the primitive integer multiple of t - r
        return [-r.numerator, r.denominator]

    def quad():  # (t - a)**2 - s: roots a +- sqrt(s), none real for s < 0
        a, s = q(), q(4)
        return _ints(a * a - s, -2 * a, F(1))[:-1]

    def prod(*fs):  # with squarefree factors added up to degree 3
        fs = list(fs)
        while sum(len(f) - 1 for f in fs) < 3:
            fs.append(some())
        return _times([rng.choice((-3, -1, 1, 2))], *fs)

    for _ in range(130):
        lo = q()
        hi = lo + F(rng.randint(1, 40), rng.randint(1, 9))

        def inner():
            return lo + (hi - lo) * F(rng.randint(1, 29), 30)

        def outer():
            return rng.choice((lo - F(rng.randint(1, 60), rng.randint(1, 7)),
                               hi + F(rng.randint(1, 60), rng.randint(1, 7))))

        def some():  # one squarefree factor: a root inside or outside, a quadratic, an end
            return rng.choice((lambda: lin(inner()), lambda: lin(outer()), quad, quad,
                               lambda: lin(rng.choice((lo, hi)))))()

        coeffs = [rng.randint(-20, 20) for _ in range(rng.randint(3, 8))]
        yield coeffs + [rng.choice((-3, 1, 2, 5))], lo, hi
        yield prod(*(some() for _ in range(rng.randint(2, 4)))), lo, hi
        twice = lin(inner())
        factors = [twice] * rng.randint(2, 3) + [some() for _ in range(rng.randint(1, 2))]
        yield prod(*factors), lo, hi
        far = rng.choice((lin(outer()), lin(outer()), quad()))
        yield prod(far, far, *(some() for _ in range(rng.randint(1, 2)))), lo, hi


def _deflated(c, lo, hi):
    """c made primitive with its roots at lo and hi divided out, as the engine does."""
    from peanoquad._qpoly import _idiv, _primitive, int_horner

    c = _primitive(c)
    for t in (lo, hi):
        while len(c) > 1 and int_horner(c, t.numerator, t.denominator) == 0:
            c = _idiv(c, [-t.numerator, t.denominator])
    return c


def _engine_keys(roots):
    """Each root by its exact string, enclosure, multiplicity hint and exact cell."""
    return [(r.location.to_json_str(), r.location.bounds(), r.multiplicity_hint,
             r.bracket and (F(r.bracket[1], r.bracket[3]), F(r.bracket[2], r.bracket[3])))
            for r in roots]


def test_descartes_exits_match_the_fraction_reference():
    # the engine against the Fraction engine of util.py, and the sign
    # variations against the Sturm counts of Yun's factors, each counted
    # with its multiplicity: never fewer, and of the same parity
    from peanoquad._qpoly import _yun_squarefree, sign_variations
    from peanoquad.roots import DEFAULT_ROOT_TOL, _isolate_rational
    from util import reference_count_roots, reference_isolate_rational

    rng = random.Random(4040)
    kinds, exits = Counter(), Counter()
    for c, lo, hi in _descartes_cases(rng):
        assert 3 <= len(c) - 1 <= 8
        got = _isolate_rational(c, lo, hi, DEFAULT_ROOT_TOL, F(c[-1]))
        want = reference_isolate_rational([F(x) for x in c], lo, hi, DEFAULT_ROOT_TOL)
        assert _engine_keys(got) == _engine_keys(want), (c, lo, hi)
        split = yun_squarefree([F(x) for x in c])
        repeated = [f for f, mult in split if mult > 1]
        inside = any(reference_count_roots(f, lo, hi) for f in repeated)
        kinds["squarefree" if not repeated else "repeated inside" if inside
              else "repeated outside"] += 1
        d = _deflated(c, lo, hi)
        if len(d) < 4:
            continue
        L, H, e = _ints(lo, hi)
        v = sign_variations(d, L, H, e)
        sturm = sum(mult * reference_count_roots(f, lo, hi)
                    for f, mult in yun_squarefree([F(x) for x in d]))
        assert v >= sturm and (v - sturm) % 2 == 0, (d, lo, hi, v, sturm)
        exits["V = 0" if v == 0 else "V >= 2" if v > 1 else "V = 1, squarefree"
              if _yun_squarefree(d)[0][0] is d else "V = 1, not squarefree"] += 1
    assert sum(kinds.values()) >= 500 and min(kinds.values()) >= 100, kinds
    assert len(exits) == 4 and min(exits.values()) >= 5, exits


def test_the_midpoint_polynomial_places_its_roots_against_an_exact_end():
    # r lies above the double of e = sqrt(1/3) and below e: the root of
    # t + c, c an interval of radius 1e-50 around -r, is inside (0, e) and
    # not in (e, 1); mirrored, inside (-e, 0) and not in (-1, -e)
    r = F(float(E3.interval().mid)) + F(1, 10**40)
    assert Scalar(r) < E3
    tiny = F(1, 10**50)
    c = Scalar.from_interval(-r - tiny, -r + tiny)
    for p, lo, hi, miss, tau in ((Polynomial([c, 1]), 0, E3, (E3, 1), r),
                                 (Polynomial([-c, 1]), -E3, 0, (-1, -E3), -r)):
        (root,) = isolate_roots(p, lo, hi)
        a, b = root.location.bounds()
        assert root.certified and root.multiplicity_hint == 1 and a < tau < b
        assert isolate_roots(p, *miss) == ()


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


# --------------------------------------------------------------------------
# integer entries: root counts and integer pieces


def _count_cases(rng):
    """(rational coefficients, lo, hi): seeded random polynomials of degree
    1-8, and products with roots at both window ends, double and triple
    roots, rational roots, quadratic irrationals and a cubic's irrational
    roots, which the engine brackets."""
    def q():
        return F(rng.randint(-20, 20), rng.randint(1, 9))

    cubic = [F(1), F(-3), F(0), F(1)]  # t^3 - 3t + 1: three real roots in (-2, 2)
    for _ in range(40):
        lo, hi = sorted((q(), q()))
        hi += F(1, 5)
        a, b, k = q(), q(), q() or F(3)
        deg = rng.randint(1, 8)
        yield [F(rng.randint(-9, 9)) for _ in range(deg)] + [F(rng.choice((-3, -1, 1, 2)))], lo, hi
        yield _times([-lo, 1], [-hi, 1], [-a, k]), lo, hi                   # roots at both ends
        yield _times([-lo, 1], [-lo, 1], [-hi, 1], [-a, 1]), lo, hi         # double root at lo
        yield _times([-a, 1], [-a, 1], [-b, k]), a - 1, b + 1               # double root
        yield _times([-a, 1], [-a, 1], [-a, 1], [q(), q(), k]), a - 2, a + 2  # triple root
        yield _times([-a, 1], [-b, 1], [q(), 1]), min(a, b) - 1, max(a, b) + 1  # rational roots
        yield _times([F(-2), 0, 1], [-a, k]), F(-3), F(3)                   # +-sqrt(2) and a
        yield _times([q(), q(), 1], [q(), q(), k]), lo - 4, hi + 4          # in Q(sqrt m), mostly
        yield _times(cubic, [-a, 1]), F(-2), F(2)                           # brackets
        yield _times(cubic, cubic, [-lo, 1]), lo, F(2)                      # double brackets


def test_root_counts_match_isolation():
    # the reference signature counts the distinct roots in (lo, hi) by a
    # Sturm chain; the engine isolates the same number, from rational
    # coefficients and from the integer entry (A at the scale 1/den) alike
    from peanoquad._qpoly import _ints
    from util import reference_count_roots

    def fingerprint(found):
        return [(rt.location.to_json_str(), rt.multiplicity_hint, rt.certified) for rt in found]

    kinds, counts = set(), set()
    for c, lo, hi in _count_cases(random.Random(2501)):
        if not lo < hi:
            continue
        *A, den = _ints(*c)
        want = isolate_roots(Polynomial(c), lo, hi)
        assert reference_count_roots(A, lo, hi) == len(want), (c, lo, hi)
        got = isolate_roots(Polynomial.of_ints(A, [0] * len(A), den, 1), lo, hi)
        assert fingerprint(got) == fingerprint(want), (c, lo, hi)
        counts.add(len(want))
        kinds.update(("rational" if rt.location.is_rational else
                      "sqrt" if rt.location.is_exact else "bracket", rt.multiplicity_hint)
                     for rt in want)
    assert {("rational", 1), ("rational", 2), ("rational", 3), ("sqrt", 1), ("bracket", 1),
            ("bracket", 2)} <= kinds
    assert {0, 1, 2, 3, 4} <= counts


def test_a_count_neither_refines_nor_places_its_roots(monkeypatch):
    # a signature probe asks _isolate_rational for the number of roots alone:
    # as many entries as the full isolation gives, on the cases of the two
    # tests above, with no bracket refined and no square root formed
    import peanoquad.roots as roots

    cases = [(c, lo, hi, F(c[-1])) for c, lo, hi in _descartes_cases(random.Random(4040))]
    for c, lo, hi in _count_cases(random.Random(2501)):
        *A, den = _ints(*c)
        if lo < hi:
            cases.append((A, lo, hi, F(A[-1], den)))
    tol = roots.DEFAULT_ROOT_TOL
    want = [roots._isolate_rational(A, lo, hi, tol, lead) for A, lo, hi, lead in cases]

    def refuse(*args):
        raise AssertionError("a count refines or places a root")

    for name in ("_refine_single", "_extract_square", "_quad"):
        monkeypatch.setattr(roots, name, refuse)
    got = [roots._isolate_rational(A, lo, hi, tol, lead, True) for A, lo, hi, lead in cases]
    assert list(map(len, got)) == list(map(len, want))
    kinds = Counter("bracket" if rt.bracket else "sqrt" if rt.location._sqrt else "rational"
                    for found in want for rt in found)
    assert min(kinds.values()) >= 20 and len(kinds) == 3, kinds


def test_dual_pieces_are_refused():
    # a piece (A + B*eps)/den over Q[eps] is no polynomial over one
    # Q(sqrt m): the engine refuses it, at any degree, rather than reading
    # it as one (its norm A^2 could not settle the sign of A*B at an
    # irrational root of A)
    # the case with irrational roots last: an engine that read it would not return
    for A, B, den in [([1, -1, 0], [1, 1, 4], 6), ([1, 0], [0, 1], 7), ([0, 0, 0], [1, 0, 2], 5),
                      ([-2, 0, 1], [0, 5, 0], 53)]:
        with pytest.raises(ValueError, match="Q\\[eps\\]"):
            isolate_roots(Polynomial.of_ints(A, B, den, 0), F(-3), F(3))


# --------------------------------------------------------------------------
# bracket refinement: Newton steps on bisection's grid

TOLS = (F(1, 10**20), F(1, 10**61), F(1, 10**121))


def _seeded_brackets(monkeypatch):
    """(f, A, B, d) of every bracket that the engine refines, as it hands
    them over: over the seeded polynomials of ``_engine_cases``, and over
    random integer polynomials of degree 3 to 8 on (-4, 4)."""
    from peanoquad import roots

    seen, refine = [], roots._refine_single

    def record(f, A, B, d, tol, mult):
        seen.append((f, A, B, d))
        return refine(f, A, B, d, tol, mult)

    rng = random.Random(4099)
    cases = list(_engine_cases(random.Random(17017)))
    cases += [([F(rng.randint(-9, 9)) for _ in range(deg)] + [F(rng.choice((-2, -1, 1, 3)))],
               F(-4), F(4)) for deg in range(3, 9) for _ in range(4)]
    with monkeypatch.context() as patch:
        patch.setattr(roots, "_refine_single", record)
        for c, lo, hi in cases:
            isolate_roots(Polynomial(c), lo, hi)
    return seen


def _built_brackets():
    """(f, A, B, d) for each exit of the refinement, f squarefree with one
    root in (A/d, B/d): the simplest rational of the first bracket (1), of
    the level-8 cell (1/3) and of the last cell (123457/1000003), dyadic
    grid roots below and above level 8, and sqrt(2) in brackets of every
    width from a unit to one within each tolerance (K = 0 and K <= 8)."""
    sq2 = [-2, 0, 1]  # t**2 - 2, its roots outside (0, 1)
    out = [(_times([-1, 1], sq2), 2, 5, 4), (_times([-1, 3], sq2), 0, 1, 1),
           (_times([-123457, 1000003], sq2), 0, 1, 1), (_times([-5, 16], sq2), 0, 1, 1),
           (_times([-12345, 1 << 20], sq2), 0, 1, 1), (_times([-3, 1], sq2), 3, 10, 7)]
    for k in (0, 62, 70, 200, 404, 410):
        A = math.isqrt(2 << 2 * k)
        out.append((_times([-3, 1], sq2), A, A + 1, 1 << k))
    return [(tuple(f), A, B, d) for f, A, B, d in out]


def _refined_key(root):
    if root.is_exact():
        return "exact", root.location.to_json_str()
    return "bracket", root.location.bounds()


def test_refinement_ends_where_fraction_bisection_ends(monkeypatch):
    from peanoquad.roots import _refine_single
    from util import reference_refine_single

    REFERENCE_EXITS.clear()
    cases = _seeded_brackets(monkeypatch) + _built_brackets()
    assert {len(f) - 1 for f, *_ in cases} >= set(range(3, 9))
    for tol in TOLS:
        for f, A, B, d in cases:
            want = reference_refine_single(list(f), [F(x) for x in f], F(A, d), F(B, d), tol)
            got = _refine_single(f, A, B, d, tol, 1)
            if want[0] == "exact":
                assert _refined_key(got) == ("exact", Scalar(want[1]).to_json_str()), (f, A, B, d)
                assert got.bracket is None
            else:
                assert _refined_key(got) == ("bracket", Scalar.from_interval(*want[1:]).bounds())
                g, P, Q, e = got.bracket
                assert g is f and (F(P, e), F(Q, e)) == want[1:], (f, A, B, d, tol)
    assert {"probe at step 0", "probe at step 8", "final probe", "dyadic midpoint",
            "bracket"} <= {e for e, n in REFERENCE_EXITS.items() if n}


def test_refinement_takes_far_fewer_sign_tests_than_bisection(monkeypatch):
    # 67 halvings take a unit bracket to 1e-20: bisection makes at least 71
    # integer Horner calls for a bracketed root, Newton steps about 28 and
    # more where a nearby root or a small slope slows them.  A root that the
    # simplest rational of the first bracket or of the level-8 cell finds
    # ends there, after 2 and 11 calls
    from peanoquad import roots

    int_horner = roots.int_horner

    def refined(f, A, B, d):  # the root, and the number of integer Horner calls
        calls = []

        def counted(*args):
            calls.append(args)
            return int_horner(*args)

        with monkeypatch.context() as patch:
            patch.setattr(roots, "int_horner", counted)
            got = roots._refine_single(f, A, B, d, roots.DEFAULT_ROOT_TOL, 1)
        return got, len(calls)

    counts = [n for got, n in (refined(*c) for c in _seeded_brackets(monkeypatch))
              if not got.is_exact()]
    assert len(counts) >= 40
    assert sum(counts) / len(counts) <= 35 and max(counts) < 67, counts
    (one, n1), (third, n8) = (refined(*c) for c in _built_brackets()[:2])
    assert (one.location, n1, third.location, n8) == (Scalar(1), 2, Scalar(F(1, 3)), 11)


def test_bracketed_roots_keep_their_exact_cell():
    # every bracket of the exact engine keeps (f, A, B, d): inside the
    # enclosure, no wider than the tolerance, with a sign change of f
    from peanoquad import catalog_names, degree_of_exactness, kernel_l1_norm, make_rule
    from peanoquad._qpoly import int_horner
    from peanoquad.roots import DEFAULT_ROOT_TOL
    from peanoquad.rules import CATALOG

    values = {"x": F(1, 3), "lambda": F(1, 5), "y": F(2, 3), "gamma": F(1, 10), "delta": F(-1, 3)}
    found = []
    for name in catalog_names():
        params = {p.replace("lambda", "lam"): values[p] for p in CATALOG[name].param_names}
        if name == "alomari2":  # x <= lambda <= y
            params.update(x=F(-1, 2), lam=F(0))
        rule = make_rule(name, **params)
        for r in range(degree_of_exactness(rule, k_max=8).degree + 1):
            found += kernel_l1_norm(rule, r).sign_changes
    rng = random.Random(17017)
    for c, lo, hi in _engine_cases(rng):
        found += isolate_roots(Polynomial(c), lo, hi)
    for p, lo, hi in _field_cases(rng):
        found += isolate_roots(p, lo, hi)
    brackets = 0
    for rt in found:
        if rt.is_exact():
            assert rt.bracket is None
            continue
        brackets += 1
        f, A, B, d = rt.bracket
        lo, hi = rt.location.bounds()
        assert lo <= F(A, d) < F(B, d) <= hi and F(B - A, d) <= DEFAULT_ROOT_TOL
        assert int_horner(f, A, d) * int_horner(f, B, d) < 0
    assert brackets >= 40
    for p, lo, hi in _interval_cases(rng):  # brackets from interval data keep none
        assert all(rt.bracket is None for rt in isolate_roots(p, lo, hi))


# --------------------------------------------------------------------------
# windows with an exact irrational end

E3 = sqrt(Scalar(F(1, 3)))  # its double lies below it


def _mirrored(p: Polynomial) -> Polynomial:
    return Polynomial([c * (-1) ** k for k, c in enumerate(p.coeffs)])


def _check_window(p, lo, hi, taus, bracketed=False):
    """isolate_roots(p, lo, hi), and of p(-t) on (-hi, -lo), give one root per
    tau (Scalars, in increasing order), each strictly inside the exact
    window: an exact root equal to tau, or a cell of the exact engine that
    holds tau."""
    for q, a, b, want in ((p, lo, hi, taus), (_mirrored(p), -hi, -lo, [-t for t in taus[::-1]])):
        a, b = as_scalar(a), as_scalar(b)
        got = isolate_roots(q, a, b)
        assert len(got) == len(want), (q.coeffs, a, b, got)
        for rt, tau in zip(got, want):
            assert rt.is_exact() is not bracketed, rt
            if rt.is_exact():
                assert rt.location == tau and a < rt.location < b
            else:
                _, A, B, d = rt.bracket
                assert a < Scalar(F(A, d)) < tau < Scalar(F(B, d)) < b, (rt, a, b)
                lo_l, hi_l = rt.location.bounds()
                assert lo_l <= F(A, d) < F(B, d) <= hi_l


def test_a_window_with_an_exact_irrational_end_holds_exactly_its_roots():
    # r lies between the double of e = sqrt(1/3) and e: inside (0, e), not in (e, 1)
    r = Scalar(F(float(E3)) + F(1, 10**40))
    assert F(float(E3)) < r.as_fraction() and r < E3
    t_r = Polynomial([-r, 1])
    assert [rt.location for rt in isolate_roots(t_r, 0, E3)] == [r]
    assert [rt.location for rt in isolate_roots(Polynomial([r, 1]), -E3, 0)] == [-r]
    assert isolate_roots(t_r, E3, 1) == ()
    _check_window(t_r, 0, E3, [r])
    _check_window(t_r, E3, 1, [])
    # a root at the double the engine starts from, and roots at e itself,
    # which lie outside the open window
    at = Scalar(F(float(E3.interval().mid)))
    _check_window(Polynomial([-at, 1]), 0, E3, [at])
    _check_window(Polynomial([-at, 1]), E3, 1, [])
    for lo, hi in ((0, E3), (E3, 1), (-E3, E3)):
        _check_window(Polynomial([F(-1, 3), 0, 1]), lo, hi, [])
    _check_window(Polynomial([F(-1, 3), 0, 1]), -E3 / 2, 1, [E3])


def test_roots_in_other_fields_and_in_the_ends_field_are_placed_exactly():
    # sqrt(1/3 +- 1e-50) lie 1.5e-50 from e, in another field; e +- 1e-50 in its own
    tiny = F(1, 10**50)
    for c, side in ((F(1, 3) + tiny, 1), (F(1, 3) - tiny, -1)):
        root = sqrt(Scalar(c))
        assert root._sqrt is not None and (root > E3) is (side == 1)
        p = Polynomial([-c, 0, 1])
        _check_window(p, 0, E3, [root] if side < 0 else [])
        _check_window(p, E3, 1, [root] if side > 0 else [])
        q = Polynomial([-(E3 + side * tiny), 1])  # coefficients in Q(sqrt(3))
        _check_window(q, 0, E3, [E3 + side * tiny] if side < 0 else [])
        _check_window(q, E3, 1, [E3 + side * tiny] if side > 0 else [])


def test_a_bracket_across_an_exact_end_keeps_the_side_of_its_root():
    # a cubic whose root tau lies within 1e-59 of e: its cell of width 1e-20
    # holds e too; the sign of the factor at e places tau, and the cell is
    # halved until it lies on tau's side
    lo_e, hi_e = E3.bounds()
    for tau, side in ((lo_e - F(1, 10**70), -1), (hi_e + F(1, 10**70), 1)):
        p = Polynomial([-tau, 1]) * Polynomial([-7, 0, 1])
        (whole,) = isolate_roots(p, 0, 1)
        _, A, B, d = whole.bracket
        assert Scalar(F(A, d)) < E3 < Scalar(F(B, d))  # across e on a rational window
        tau = Scalar(tau)
        _check_window(p, 0, E3, [tau] if side < 0 else [], bracketed=True)
        _check_window(p, E3, 1, [tau] if side > 0 else [], bracketed=True)
