"""Scalar arithmetic: exact rationals, exact Q(sqrt m), validated reals."""

import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import iv
from mpmath.libmp import to_rational

from peanoquad import (
    AmbiguousOrder,
    Scalar,
    composite_integrate,
    get_working_dps,
    kernel_l1_norm,
    make_rule,
    set_working_dps,
    sqrt,
)
from peanoquad import scalars
from peanoquad.scalars import as_scalar


def test_rational_arithmetic_exact():
    a = Scalar(F(1, 3))
    b = Scalar("2/3")
    assert (a + b).as_fraction() == 1
    assert (a * b).as_fraction() == F(2, 9)
    assert (a - b).as_fraction() == F(-1, 3)
    assert (a / b).as_fraction() == F(1, 2)
    assert (Scalar(2) ** -2).as_fraction() == F(1, 4)


def test_lowest_terms_positive_denominator():
    s = Scalar(F(4, -6))
    assert s.as_fraction().numerator == -2
    assert s.as_fraction().denominator == 3


def test_float_input_is_exact_dyadic():
    assert Scalar(0.5).as_fraction() == F(1, 2)
    assert Scalar(0.1).as_fraction() == F(0.1)  # exact binary value, not 1/10


@pytest.mark.parametrize(
    "text,value",
    [
        ("1/3", F(1, 3)),
        ("-7/2", F(-7, 2)),
        ("0.25", F(1, 4)),
        ("1e-3", F(1, 1000)),
        ("42", 42),
    ],
)
def test_parse_rational(text, value):
    assert Scalar.parse(text).as_fraction() == value


def test_parse_sqrt_forms():
    s = Scalar.parse("sqrt(1/3)")
    assert abs(float(s) - 1 / math.sqrt(3)) < 1e-15
    assert Scalar.parse("-sqrt(3)") == -sqrt(Scalar(3))
    assert Scalar.parse("5/2*sqrt(3)") == Scalar(F(5, 2)) * sqrt(Scalar(3))
    assert Scalar.parse("sqrt(1/3)/2") == sqrt(Scalar(F(1, 3))) / 2
    half_plus = Scalar(F(1, 2)) + sqrt(Scalar(3)) / 6
    assert Scalar.parse("1/2+1/6*sqrt(3)") == half_plus
    assert Scalar.parse("1/2+sqrt(3)/6") == half_plus
    assert Scalar.parse("-1/2-sqrt(3)") == -Scalar(F(1, 2)) - sqrt(Scalar(3))
    assert Scalar.parse("1e-3*sqrt(2)") == sqrt(Scalar(2)) / 1000


def test_json_string_round_trip():
    s3 = sqrt(Scalar(3))
    for s in [Scalar(F(22, 7)), Scalar(-3), sqrt(Scalar(F(1, 5))), -sqrt(Scalar(2)) / 3,
              F(1, 2) + s3 / 6, F(1, 2) - s3 / 6, 1 - s3, F(-7, 3) + 5 * s3]:
        assert Scalar.parse(s.to_json_str()) == s
    assert (F(1, 2) - s3 / 6).to_json_str() == "1/2-1/6*sqrt(3)"
    assert (1 - s3).to_json_str() == "1-sqrt(3)"


def test_sqrt_exact_on_perfect_squares():
    assert sqrt(Scalar(F(4, 9))).as_fraction() == F(2, 3)
    assert sqrt(Scalar(49)).as_fraction() == 7
    assert sqrt(Scalar(0)).as_fraction() == 0


def test_sqrt_negative_rejected():
    with pytest.raises(ValueError):
        sqrt(Scalar(-2))


def test_sqrt_tag_powers_are_exact():
    x = sqrt(Scalar(F(1, 5)))
    assert (x * x).as_fraction() == F(1, 5)
    assert (x**6).as_fraction() == F(1, 125)
    odd = x**3
    assert not odd.is_rational
    assert abs(float(odd) - (1 / 5) ** 1.5) < 1e-16


def test_sqrt_tag_mixed_radicands():
    x, y = sqrt(Scalar(3)), sqrt(Scalar(5))
    assert (x * y) == sqrt(Scalar(15))
    assert ((x * y) ** 2).as_fraction() == 15
    assert (Scalar(1) / x) == x / 3  # 1/sqrt(3) == sqrt(3)/3


def test_sqrt_tag_same_radicand_sums():
    x = sqrt(Scalar(2))
    assert (x + x) == 2 * x
    assert (x - x).is_exact_zero()


def test_one_field_under_two_radicands():
    # 5618 = 2 * 53^2: the square of 53 is not pulled out, but sqrt(5618) and
    # sqrt(2) still name one field
    big, two = sqrt(Scalar(5618)), sqrt(Scalar(2))
    assert str(big + two) == "54*sqrt(2)"
    assert big == 53 * two and two != big
    assert (big - 53 * two).is_exact_zero()
    assert two.lt_definite(big) is True


def test_interval_tier_conservative():
    x = sqrt(Scalar(2))
    y = x + 1  # exact in Q(sqrt 2), reported with its enclosure radius
    assert not y.is_rational
    assert 0 < y.radius() < 1e-55
    assert y.contains_zero() is False
    assert (x * x - 2).is_exact_zero()
    assert ((x + 1) * (x - 1) - 1).is_exact_zero()  # closed form in Q(sqrt 2)
    u = Scalar(x.interval())  # same enclosure, as a plain interval
    w = (u + 1) * (u - 1) - 1  # interval arithmetic: an enclosure of 0
    assert not w.is_exact_zero()
    assert w.contains_zero()
    assert w.radius() < 1e-55


def test_sqrt_radius_within_one_ulp():
    # working precision is 60 digits; an enclosure of sqrt(2) must be that tight
    assert sqrt(Scalar(2)).radius() < 1e-57


def test_comparisons():
    x = sqrt(Scalar(F(1, 3)))
    assert Scalar(F(1, 2)) < x < Scalar(F(3, 5))
    assert x.lt_definite(Scalar(1)) is True
    assert Scalar(1).lt_definite(x) is False
    assert x.lt_definite(x) is False  # exact values compare exactly
    y = x + 1
    assert y.lt_definite(y) is False
    assert x.lt_definite(y) is True and y.lt_definite(x) is False
    assert (1 - x).lt_definite(F(1, 2)) is True  # 0.42 < 1/2
    iv = Scalar.from_interval(F(1, 2), F(3, 5))  # identical enclosures overlap
    assert iv.lt_definite(iv) is None
    assert iv.lt_definite(x) is None and x.lt_definite(iv) is None
    assert sorted([Scalar(1), x, Scalar(0)], key=float)[1] is x


def test_overlapping_enclosures_have_no_order():
    # lt_definite answers None; every operator built on < raises instead of
    # comparing float midpoints
    iv = Scalar.from_interval(F(1, 2), F(3, 5))
    x = sqrt(Scalar(F(1, 3)))
    for a, b in ((iv, x), (x, iv), (iv, iv), (iv, F(11, 20))):
        for op in (lambda: a < b, lambda: a > b, lambda: a <= b, lambda: a >= b):
            with pytest.raises(AmbiguousOrder, match="enclosures overlap"):
                op()
    with pytest.raises(AmbiguousOrder):
        sorted([Scalar(1), iv, x])
    assert iv < Scalar(1) and Scalar(0) <= iv  # disjoint enclosures still compare
    assert sorted([Scalar(1), iv, Scalar(0)])[1] is iv


def test_pell_convergent_sign_is_exact_at_low_precision():
    p, q = 1, 1  # convergents p/q of sqrt(2): p^2 - 2 q^2 = +-1
    while q <= 10**11:
        p, q = p + 2 * q, p + q
    dps = get_working_dps()
    set_working_dps(15)
    try:
        d = Scalar(F(p, q)) - sqrt(Scalar(2))  # |d| ~ 1e-23, far below one ulp at 15 digits
        assert d.sign() == p * p - 2 * q * q
        assert Scalar(F(p, q)).lt_definite(sqrt(Scalar(2))) is (d.sign() < 0)
        assert 0 in d.interval()  # the enclosure alone could not tell
    finally:
        set_working_dps(dps)


def test_exact_division_by_conjugate():
    s3 = sqrt(Scalar(3))
    assert Scalar(1) / (2 + s3) == 2 - s3  # (2 + sqrt 3)(2 - sqrt 3) = 1
    y = F(1, 2) + s3 / 6
    inv = 1 / y
    assert inv == Scalar(3) - s3  # (1/2 - sqrt(3)/6) / (1/4 - 3/36)
    assert (y * inv).as_fraction() == 1
    assert ((1 + s3) / (1 - s3)) == -2 - s3
    assert (y**-2 * y**2).as_fraction() == 1


def test_mixed_radicand_sum_falls_back_to_interval():
    s = sqrt(Scalar(3)) + sqrt(Scalar(5))
    assert not s.is_rational
    assert "sqrt" not in s.to_json_str()  # a decimal, not an exact form
    assert 0 < s.radius() < 1e-55
    assert abs(float(s) - (math.sqrt(3) + math.sqrt(5))) < 1e-15
    assert s.lt_definite(Scalar(4)) is True  # 3.968 < 4, by enclosures


def test_sign_and_zero_tests():
    assert Scalar(-2).sign() == -1
    assert Scalar(0).sign() == 0
    assert sqrt(Scalar(2)).sign() == 1
    wide = Scalar.from_interval(F(-1, 10), F(1, 10))
    assert wide.sign() is None
    assert wide.contains_zero()
    assert not wide.zero_within()
    tiny = sqrt(Scalar(2)) - Scalar.parse("sqrt(2)")
    assert tiny.is_exact_zero() or tiny.zero_within()
    # the zero width is 10**-(working dps // 2): 1e-30 at 60 digits, 1e-7 at 15
    small = Scalar.from_interval(F(-1, 10**20), F(1, 10**20))
    assert not small.zero_within()
    set_working_dps(15)
    try:
        assert small.zero_within()
        assert not Scalar.from_interval(F(-1, 10**7), F(1, 10**7)).zero_within()
    finally:
        set_working_dps(60)


def test_decimal_rendering():
    assert Scalar(F(1, 3)).to_decimal(17) == "0.33333333333333333"
    assert Scalar(F(1, 4)).to_decimal(5) == "0.25"
    s = sqrt(Scalar(F(1, 3))).to_decimal(17)
    assert s.startswith("0.57735026918962576")


def _digits(a, b, m, n):
    """n significant digits of a + b*sqrt(m) from a 400-digit mpmath evaluation."""
    with mpmath.workdps(400):
        return mpmath.nstr(mpmath.mpf(a.numerator) / a.denominator
                           + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(m), n)


def test_exact_quadratic_decimals_hold_past_the_working_precision():
    # at 60 working digits the enclosure's midpoint went wrong from about
    # the 60th digit; the digits of an exact a + b*sqrt(m) come from integers
    got = sqrt(Scalar(2)).to_decimal(80)
    assert got == _digits(F(0), F(1), 2, 80)
    assert got.endswith("79737990732478462107")
    v = Scalar(F(5, 3)) - F(2, 3) * sqrt(Scalar(3))
    assert v.to_decimal(75) == _digits(F(5, 3), F(-2, 3), 3, 75)
    # cancellation: a value far below its parts keeps every digit
    tiny = Scalar(F(665857, 470832)) - sqrt(Scalar(2))
    assert tiny.to_decimal(30) == _digits(F(665857, 470832), F(-1), 2, 30)


def test_exact_decimals_do_not_follow_the_working_precision():
    set_working_dps(15)
    try:
        assert sqrt(Scalar(2)).to_decimal(17) == "1.414213562373095"
        assert Scalar(F(1, 3)).to_decimal(40) == "0." + "3" * 40
    finally:
        set_working_dps(60)


def test_oracle_high_precision_eval():
    # spot check against an independent 50-digit computation
    with mpmath.workdps(50):
        ref = (1 - 1 / mpmath.sqrt(3)) ** 4 / 24
        got = (Scalar(1) - sqrt(Scalar(F(1, 3)))) ** 4 / 24
        assert abs(float(got) - float(ref)) < 1e-14


def test_as_scalar_coercions():
    assert as_scalar(3).as_fraction() == 3
    assert as_scalar(F(1, 7)).as_fraction() == F(1, 7)
    assert as_scalar("1/7").as_fraction() == F(1, 7)
    s = Scalar(5)
    assert as_scalar(s) is s


def _lobatto4_composite_nodes():
    """The irrational nodes a + b*sqrt(5) of lobatto4 on 5000 panels of
    [-3/4, 5/3], as composite integration forms them."""
    nodes = []
    composite_integrate(make_rule("lobatto4"), lambda t: nodes.append(t) or 0.0,
                        F(-3, 4), F(5, 3), 5000, 1, 1)
    return [t for t in nodes if not t.is_rational]


@pytest.mark.parametrize("dps", [15, 60])
def test_float_of_quadratic_field_value_is_correctly_rounded(dps):
    nodes = _lobatto4_composite_nodes()
    assert len(nodes) == 10000
    set_working_dps(200)
    try:
        want = []
        for t in nodes:
            lo, hi = t.bounds()  # float() of a Fraction rounds correctly
            assert float(lo) == float(hi)
            want.append(float(lo))
        set_working_dps(dps)
        assert [float(t) for t in nodes] == want
    finally:
        set_working_dps(60)


def test_float_near_a_tie_and_under_cancellation():
    # tie = 1 + 2**-53 lies halfway between two floats; a + sqrt(2) within
    # 1e-40 of it on either side must round away from the tie correctly
    tie = 1 + F(1, 2**53)
    q = F(math.isqrt(2 * 10**80), 10**40)  # sqrt(2) - 1e-40 < q < sqrt(2)
    above = Scalar(tie - q) + sqrt(Scalar(2))
    below = Scalar(tie - q - F(1, 10**40)) + sqrt(Scalar(2))
    assert float(above) == 1 + 2.0**-52 and float(below) == 1.0
    # 99/70 - sqrt(2) ~ 7.2e-5: a and b*sqrt(m) nearly cancel
    gap = Scalar(F(99, 70)) - sqrt(Scalar(2))
    with mpmath.workdps(60):
        assert float(gap) == float(mpmath.mpf(99) / 70 - mpmath.sqrt(2))


def test_zeroth_power_is_exact():
    x = Scalar.from_interval(F(1, 3) - F(1, 10**40), F(1, 3) + F(1, 10**40))
    assert (x**0).is_rational and (x**0).as_fraction() == 1
    assert (sqrt(Scalar(2)) ** 0).as_fraction() == 1


def _tightest(q: F, prec: int) -> tuple[F, F]:
    """The nearest prec-bit binary floats below and above q, as rationals."""
    if q == 0:
        return q, q
    e = abs(q.numerator).bit_length() - q.denominator.bit_length()
    if F(2) ** e > abs(q):
        e -= 1  # now 2^e <= |q| < 2^(e+1)
    unit = F(2) ** (e - prec + 1)
    return math.floor(q / unit) * unit, math.ceil(q / unit) * unit


@pytest.mark.parametrize("dps", [15, 60, 200])
def test_rational_enclosure_is_the_tightest(dps):
    rng = random.Random(dps)
    qs = [F(rng.choice((-1, 1)) * rng.randrange(10**89, 10**90), rng.randrange(10**89, 10**90))
          for _ in range(500)]
    qs += [F(3, 8), F(-5), F(0), F(1, 3), F(2**200 + 1, 2**100)]
    set_working_dps(dps)
    try:
        for q in qs:
            want = _tightest(q, iv.prec)
            assert Scalar(q).radius() == 0.0
            assert Scalar.from_interval(q, q).bounds() == want
            lo, hi = _tightest(q - F(1, 10**70), iv.prec)[0], _tightest(q + F(1, 10**70), iv.prec)[1]
            assert Scalar.from_interval(q - F(1, 10**70), q + F(1, 10**70)).bounds() == (lo, hi)
    finally:
        set_working_dps(60)


def test_rational_enclosure_ends_must_be_ordered():
    with pytest.raises(ValueError, match="out of order"):
        Scalar.from_interval(F(2, 3), F(1, 3))
    assert Scalar.from_interval(F(1, 3), 0.5).bounds()[1] == F(1, 2)


def _two_roundings(lo: F, hi: F):
    """The former enclosure of [lo, hi]: the numerator and denominator of
    each end rounded, then divided."""
    return iv.make_mpf(((iv.mpf(lo.numerator) / iv.mpf(lo.denominator))._mpi_[0],
                        (iv.mpf(hi.numerator) / iv.mpf(hi.denominator))._mpi_[1]))


@pytest.mark.parametrize("name, r", [("gauss_legendre2", 1), ("lobatto4", 1), ("lobatto4", 3),
                                     ("mod3", 1)])
def test_root_brackets_no_wider_than_with_two_roundings(monkeypatch, name, r):
    params = {"x": F(7, 11), "lam": F(5, 9)} if name == "mod3" else {}
    rule = make_rule(name, **params)

    def run():
        rep = kernel_l1_norm(rule, r)
        return [root.location.bounds() for root in rep.sign_changes], rep.l1_norm.bounds()

    roots, m = run()
    monkeypatch.setattr(scalars, "_frac_to_interval", _two_roundings)
    old_roots, old_m = run()
    assert len(roots) == len(old_roots)
    for (lo, hi), (old_lo, old_hi) in zip(roots + [m], old_roots + [old_m]):
        assert old_lo <= lo <= hi <= old_hi


def test_float_of_interval_is_the_correctly_rounded_midpoint():
    rng = random.Random(5)
    for _ in range(400):
        c = F(rng.randrange(1, 10**30), rng.randrange(1, 10**30)) * rng.choice((-1, 1))
        s = Scalar.from_interval(c - F(1, 10**80), c + F(1, 10**80))
        lo, hi = s.bounds()
        assert float(s) == float((lo + hi) / 2)  # float() of a Fraction rounds correctly
    wide = Scalar.from_interval(F(-1, 3), F(2, 3))
    assert float(wide) == float(sum(wide.bounds()) / 2)


def _quad_cases():
    rng = random.Random(11)
    cases = [
        (F(1732050807568877, 10**15), F(-1), 3),  # 1.732050807568877 - sqrt(3) ~ -2.9e-16
        (F(99, 70), F(-1), 2),
        (F(-665857, 470832), F(1), 2),  # a Pell convergent: ~ 1.6e-12
        (F(0), F(10**300), 2),
        (F(17 * 10**307), F(10**306), 2),  # just below the largest float
        (F(0), F(1, 10**300), 3),
        (F(0), F(-1, 10**320), 2),  # subnormal
        (F(1, 10**310), F(-1, 10**310), 5),
        (F(1, 2**1074), F(1, 10**400), 7),
    ]
    for _ in range(60):
        scale = F(10) ** rng.randint(-30, 30)
        cases.append((F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) * scale,
                      F(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6)) * scale,
                      rng.choice((2, 3, 5, 6, 7, 10, 11, 1009))))
    return cases


def _reference_float(a: F, b: F, m: int) -> float:
    """a + b*sqrt(m) enclosed at 400 digits; both ends round to one float."""
    saved = iv.dps
    iv.dps = 400
    try:
        x = iv.mpf(a.numerator) / a.denominator + iv.mpf(b.numerator) / b.denominator * iv.sqrt(m)
        lo, hi = (F(*to_rational(e)) for e in x._mpi_)
    finally:
        iv.dps = saved
    assert float(lo) == float(hi)
    return float(lo)


def test_float_of_quadratic_field_value_matches_a_400_digit_reference():
    cases = _quad_cases()
    values = [Scalar(a) + Scalar(b) * sqrt(Scalar(m)) for a, b, m in cases]
    assert all(v.is_exact and not v.is_rational for v in values)
    want = [_reference_float(a, b, m) for a, b, m in cases]
    for dps in (15, 60, 200):
        set_working_dps(dps)
        try:
            assert [float(v) for v in values] == want
        finally:
            set_working_dps(60)


def test_float_of_quadratic_field_value_overflows():
    for big in (F(10**400), F(-(10**400)), F(2**1024)):
        with pytest.raises(OverflowError):
            float(Scalar(big) + sqrt(Scalar(2)))
    with pytest.raises(OverflowError):
        float(Scalar(10**200) * sqrt(Scalar(10**250 + 1)))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_float_raises_value_error(bad):
    with pytest.raises(ValueError, match="not a finite number"):
        Scalar(bad)
    with pytest.raises(ValueError, match="not a finite number"):
        as_scalar(bad)


#: integers, negatives, values near the smallest subnormal 2**-1074 and near
#: the largest float, and ratios of 400-digit integers
FLOAT_RATIONALS = [
    F(0), F(1), F(-1), F(7), F(-(2**53) - 1), F(1, 3), F(-2, 3),
    F(1, 2**1074), F(-1, 2**1074), F(1, 2**1075), F(3, 2**1076), F(-3, 2**1076), F(1, 2**1076),
    F(5, 2**1075), F(2**52 - 1, 2**1074), F(17 * 10**307), F(-(17 * 10**307)),
    F(2**1024 - 2**971), F(2**1024 - 2**970 - 1),
    F(10**400 + 1, 3 * 10**399 + 7), F(-(7 * 10**399 + 3), 10**400 + 9), F(1, 10**400),
    F(10**400 - 1, 10**399 * 11),
]


@pytest.mark.parametrize("q", FLOAT_RATIONALS)
def test_float_of_a_rational_is_float_of_its_fraction(q):
    assert repr(float(Scalar(q))) == repr(float(q))


@pytest.mark.parametrize("q", [F(10**400), F(-(10**400), 3), F(2**1024 - 2**970),
                               F(10**800 + 1, 10**399 + 1)])
def test_float_of_a_huge_rational_overflows_as_its_fraction_does(q):
    with pytest.raises(OverflowError) as want:
        float(q)
    with pytest.raises(OverflowError) as got:
        float(Scalar(q))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("digits", [0, -1, -17])
def test_decimal_rendering_needs_at_least_one_digit(digits):
    tiny = F(1, 10**30)
    for x in (Scalar(F(1, 3)), sqrt(Scalar(3)), Scalar.from_interval(F(1, 3) - tiny, F(1, 3) + tiny)):
        with pytest.raises(ValueError, match="at least 1 significant digit"):
            x.to_decimal(digits)
    assert Scalar(F(1, 3)).to_decimal(1) == "0.3"


def test_quad_widened_rounds_each_end_once():
    # [v - below, v + above] around v = a + b*sqrt(m): each end outward of
    # its exact value and within one rounding unit of it, so no wider than
    # the enclosure of a and b*sqrt(m) widened; v itself, exact, with no width
    from peanoquad.scalars import _quad, _quad_sign, quad_widened

    rng = random.Random(6007)
    try:
        for dps in (20, 60):
            set_working_dps(dps)
            unit = F(2) ** (1 - iv.prec)
            for _ in range(150):
                a = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
                b = F(rng.choice((-1, 1)) * rng.randint(1, 10**9), rng.randint(1, 10**6))
                m = rng.choice((1, 2, 3, 5, 7, 11, 5618))
                below, above = (rng.choice((0, F(1, 10**40), F(3, 7 * 10**dps))) for _ in "ab")
                got = quad_widened(a, b, m, below, above)
                if not (below or above):
                    assert got.to_json_str() == _quad(a, b, m).to_json_str()
                    continue
                lo, hi = got.bounds()
                v = a + b if m == 1 else None
                if v is not None:
                    assert lo <= v - below and v + above <= hi
                else:
                    assert _quad_sign(a - below - lo, b, m) >= 0 >= _quad_sign(a + above - hi, b, m)
                assert hi - lo <= below + above + (abs(lo) + abs(hi)) * unit
                plo, phi = _quad(a, b, m).bounds()
                wlo, whi = Scalar.from_interval(plo - below, phi + above).bounds()
                assert wlo <= lo and hi <= whi
    finally:
        set_working_dps(60)
