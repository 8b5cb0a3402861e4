"""Conversions into a Scalar: literals read by Scalar.parse, and interval
ends read by Scalar.from_interval."""

import random
import re
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import iv

from peanoquad import Scalar, set_working_dps, sqrt

# --- the former regex parser, kept as a reference for the forms it accepted

_RATIONAL_RE = re.compile(
    r"""^([+-]?\d+)\s*/\s*(\d+)$          # p/q
      | ^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)$   # integer / decimal
    """,
    re.VERBOSE,
)
_RAT = r"(?:\d+\s*/\s*\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"  # unsigned literal
_SQRT_RE = re.compile(
    rf"""^(?:(?P<a>[+-]?{_RAT})\s*(?=[+-]))?     # optional rational term
        \s*(?P<sign>[+-])?\s*
        (?:(?P<coef>{_RAT})\s*\*\s*)?          # optional rational coefficient
        sqrt\(\s*(?P<rad>[^)]+)\s*\)
        (?:\s*/\s*(?P<div>\S+))?$              # optional rational divisor
    """,
    re.VERBOSE,
)


def _regex_fraction(text: str) -> F:
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    if m.group(1) is not None:
        return F(int(m.group(1)), int(m.group(2)))
    return F(m.group(3))


def _regex_parse(text: str) -> Scalar:
    text = text.strip()
    m = _SQRT_RE.match(text)
    if m:
        coef = F(-1 if m.group("sign") == "-" else 1)
        if m.group("coef"):
            coef *= _regex_fraction(m.group("coef"))
        if m.group("div"):
            coef /= _regex_fraction(m.group("div"))
        rad = _regex_fraction(m.group("rad"))
        a = _regex_fraction(m.group("a")) if m.group("a") else 0
        return Scalar(a) + Scalar(coef) * sqrt(Scalar(rad))
    return Scalar(_regex_fraction(text))


# --- a seeded corpus of the forms the regex parser reads


def _space(rng):
    return rng.choice(["", "", "", " ", "  "])


def _digits(rng):
    out = str(rng.choice([0, 1, 2, 3, 7, 12, 100, rng.randrange(10**rng.randint(1, 25))]))
    return "0" + out if rng.random() < 0.05 else out  # leading zeros now and then


def _decimal(rng):
    d, f = _digits(rng), str(rng.randrange(10**rng.randint(1, 8)))
    body = rng.choice([d, f"{d}.{f}", f"{d}.", f".{f}"])
    if rng.random() < 0.3:
        body += rng.choice("eE") + rng.choice(["", "+", "-"]) + str(rng.randint(0, 30))
    return body


def _unsigned(rng):
    """An unsigned rational literal: p/q, an integer or a decimal."""
    if rng.random() < 0.5:
        return f"{_digits(rng)}{_space(rng)}/{_space(rng)}{_digits(rng)}"
    return _decimal(rng)


def _sign(rng):
    return rng.choice(["", "", "+", "-"])


def _literal(rng):
    if rng.random() < 0.3:
        return _sign(rng) + _unsigned(rng)
    s = ""
    if rng.random() < 0.5:
        s += _sign(rng) + _unsigned(rng) + _space(rng)
        s += rng.choice("+-") + _space(rng)
    elif rng.random() < 0.5:
        s += rng.choice("+-") + _space(rng)
    if rng.random() < 0.6:
        s += _unsigned(rng) + _space(rng) + "*" + _space(rng)
    rad = rng.choice([str(rng.choice([2, 3, 5, 6, 7, 8, 12, 50, 1001])), _unsigned(rng)])
    s += f"sqrt({_space(rng)}{rad}{_space(rng)})"
    if rng.random() < 0.4:  # an integer or decimal divisor; see the p/q divisor test
        s += _space(rng) + "/" + _space(rng) + _decimal(rng)
    return _space(rng) + s + _space(rng)


def _leading_zero_integer(text: str) -> bool:
    """A Python integer token with a leading zero ("007", but not "0", "00",
    "0.5" or "01e3")."""
    return re.search(r"(?<![\d.eE])0+[1-9]\d*(?![\d.eE])", text) is not None


def _describe(s: Scalar):
    tier = "rational" if s.is_rational else "sqrt" if s.is_exact else "interval"
    return tier, s.to_json_str(), s.bounds()


def test_parse_agrees_with_the_regex_parser_on_its_forms():
    rng = random.Random(20261018)
    compared = rejected = zero_divisors = 0
    for _ in range(4000):
        text = _literal(rng)
        try:
            want = _regex_parse(text)
        except ZeroDivisionError:
            zero_divisors += 1
            with pytest.raises(ValueError):
                Scalar.parse(text)
            continue
        except ValueError:
            continue  # not a form the regex parser reads (or a negative radicand)
        if _leading_zero_integer(text):
            rejected += 1
            with pytest.raises(ValueError, match="leading zeros"):
                Scalar.parse(text)
            continue
        assert _describe(Scalar.parse(text)) == _describe(want), text
        compared += 1
    assert compared > 3000 and rejected > 10 and zero_divisors > 5


def test_parse_reads_a_divisor_as_python_does():
    # the regex parser read the divisor "3/4" as one rational: sqrt(2)*4/3
    assert _regex_parse("sqrt(2)/3/4") == sqrt(Scalar(2)) * F(4, 3)
    assert Scalar.parse("sqrt(2)/3/4") == sqrt(Scalar(2)) / 12


def test_parse_new_forms():
    phi = (1 + sqrt(Scalar(5))) / 2
    assert Scalar.parse("(1+sqrt(5))/2") == phi
    assert Scalar.parse("sqrt(2)/2+1") == 1 + sqrt(Scalar(2)) / 2
    assert Scalar.parse("sqrt(3) * 2") == 2 * sqrt(Scalar(3))
    assert Scalar.parse("1.5/2").as_fraction() == F(3, 4)
    assert Scalar.parse("0.1").as_fraction() == F(1, 10)  # from the digits, not the float
    mixed = Scalar.parse("sqrt(2)+sqrt(3)")
    assert not mixed.is_exact
    assert mixed.bounds() == (sqrt(Scalar(2)) + sqrt(Scalar(3))).bounds()


@pytest.mark.parametrize("text", ["1/0", "-3/0", "1/(2-2)", "sqrt(2)/0", "sqrt(1/0)",
                                  "1/0+sqrt(2)", "0.5/0.0", "1/(sqrt(2)-sqrt(2))"])
def test_parse_division_by_zero_is_a_value_error(text):
    with pytest.raises(ValueError, match="not a scalar literal"):
        Scalar.parse(text)


@pytest.mark.parametrize("text", ["", "oops", "007", "01", "2**3", "x", "1j", "True", "0x10",
                                  "'1'", "sqrt(2, 3)", "sqrt(x=2)", "exp(1)", "1;2", "x=1",
                                  "(1", "sqrt(-2)", "[1]", "-" * 100000 + "1",
                                  "+".join(["1"] * 100000)])
def test_parse_rejects_other_forms_with_a_value_error(text):
    with pytest.raises(ValueError):
        Scalar.parse(text)


def test_json_string_round_trips_exactly():
    rng = random.Random(7)
    values = []
    for _ in range(300):
        q = F(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
        values.append(Scalar(q))
        for m in (2, 3, 5, 6, 7, 10, 1009, 2**61 - 1):
            b = F(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
            values.append(q + b * sqrt(Scalar(m)))
    values += [Scalar(0), Scalar(-1), sqrt(Scalar(2)), -sqrt(Scalar(2)), 1 - sqrt(Scalar(3))]
    for s in values:
        got = Scalar.parse(s.to_json_str())
        assert got == s and got.to_json_str() == s.to_json_str()


# --- interval ends


@pytest.mark.parametrize("lo, hi", [
    (float("nan"), 1.0), (0.0, float("nan")), (float("inf"), 1.0), (0.0, float("inf")),
    (float("-inf"), 0.0), (1.0, 0.5), (mpmath.mpf(1), mpmath.mpf(0)),
    (mpmath.mpf("nan"), 1), (mpmath.mpf("-inf"), 0), (0, mpmath.mpf("inf")),
    (F(2, 3), F(1, 3)), (1, 0),
])
def test_from_interval_rejects_bad_ends(lo, hi):
    with pytest.raises(ValueError):
        Scalar.from_interval(lo, hi)


@pytest.mark.parametrize("dps", [15, 60, 200])
def test_from_interval_int_and_float_ends_match_mpmath(dps):
    rng = random.Random(dps)
    pairs = []
    for _ in range(200):
        a, b = sorted(rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-300, 300) for _ in range(2))
        pairs.append((a, b))
        i, j = sorted(rng.randint(-10**80, 10**80) >> rng.randint(0, 260) for _ in range(2))
        pairs.append((i, j))
        pairs.append((min(i, a), max(i, a)) if rng.random() < 0.5 else (a, a))
    set_working_dps(dps)
    try:
        for lo, hi in pairs:
            assert Scalar.from_interval(lo, hi).bounds() == Scalar(iv.mpf([lo, hi])).bounds()
    finally:
        set_working_dps(60)


def test_from_interval_reads_mpf_ends_exactly():
    with mpmath.workdps(30):  # about 100 bits, below the working 60 digits
        ends = mpmath.mpf(1) / 3, mpmath.mpf(2) / 3
    exact = tuple(F(*mpmath.libmp.to_rational(e._mpf_)) for e in ends)
    assert Scalar.from_interval(*ends).bounds() == exact
