"""Scalar arithmetic: exact rationals, exact Q(sqrt m), validated reals."""

import math
from fractions import Fraction as F

import mpmath
import pytest

from peanoquad import Scalar, get_working_dps, set_working_dps, sqrt
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
