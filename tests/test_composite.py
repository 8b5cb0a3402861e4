"""Composite integration: values, certificates, panel counts."""

import math
import time
import tracemalloc
from fractions import Fraction as F

import mpmath
import pytest

from peanoquad import (
    BadInterval,
    MissingDerivative,
    OrderExceedsExactness,
    Polynomial,
    Scalar,
    apply_rule,
    as_scalar,
    composite_integrate,
    custom_rule,
    kernel_l1_norm,
    make_rule,
    panels_for_tolerance,
    sqrt,
)
from peanoquad.integrands import NAMED
from peanoquad.scalars import _quad, _quad_round


def reference_composite(rule, f, a, b, n, fprime=None):
    """The panel-by-panel algorithm: map the rule affinely to each panel
    (nodes mid + x*h, weights w*h, derivative weights w*h^2), sum the panels
    left to right."""
    a, b = as_scalar(a), as_scalar(b)
    if fprime is None and rule.deriv_nodes:
        fprime = f.derivative()
    width = b - a
    total = Scalar(0)
    for k in range(n):
        lo, hi = a + width * F(k, n), a + width * F(k + 1, n)
        h, mid = (hi - lo) / 2, (lo + hi) / 2
        terms = [w * h * as_scalar(f(mid + x * h)) for x, w in rule.value_nodes]
        terms += [w * h * h * as_scalar(fprime(mid + y * h)) for y, w in rule.deriv_nodes]
        total = total + sum(terms, Scalar(0))
    return total


REFERENCE_RULES = ("simpson", "radau2", "gauss_legendre2", "lobatto4", "liu_park_gauss")
REFERENCE_INTEGRANDS = {
    "exp": (math.exp, math.exp),
    "cos": (math.cos, lambda t: -math.sin(float(t))),
    "poly": (Polynomial([F(1, 3), -2, F(5, 7), 1, F(-2, 9)]), None),
}


@pytest.mark.parametrize("name", REFERENCE_RULES)
@pytest.mark.parametrize("fname", sorted(REFERENCE_INTEGRANDS))
@pytest.mark.parametrize("n", [1, 7, 64])
@pytest.mark.parametrize("a, b", [(F(-3, 4), F(1, 4)), (0, 1), (-1, F(5, 3))])
def test_value_equals_panel_by_panel_reference(name, fname, n, a, b):
    rule = make_rule(name)
    f, fprime = REFERENCE_INTEGRANDS[fname]
    value = composite_integrate(rule, f, a, b, n, 1, 1, fprime=fprime).value
    assert value.is_exact
    assert value.to_json_str() == reference_composite(rule, f, a, b, n, fprime).to_json_str()


@pytest.mark.parametrize("name", ["simpson", "liu_park_gauss"])
@pytest.mark.parametrize("fname", ["exp", "poly"])
def test_interval_endpoints_no_wider_than_reference(name, fname):
    rule = make_rule(name)
    f, fprime = REFERENCE_INTEGRANDS[fname]
    tiny = F(1, 10**40)
    a = Scalar.from_interval(F(-3, 4) - tiny, F(-3, 4) + tiny)
    b = Scalar.from_interval(F(1, 4) - tiny, F(1, 4) + tiny)
    value = composite_integrate(rule, f, a, b, 100, 1, 1, fprime=fprime).value
    ref = reference_composite(rule, f, a, b, 100, fprime)
    lo, hi = value.bounds()
    ref_lo, ref_hi = ref.bounds()
    assert lo <= (ref_lo + ref_hi) / 2 <= hi
    assert value.radius() <= ref.radius()


def reference_sum_panels(rule, f, a, b, n, fprime=None):
    """The panel loop in plain Scalar arithmetic: panel k's nodes are
    centre + (2k + 1 - n)*h + x*h, and the values at node j of every panel
    form one Scalar sum, added in panel order."""
    a, b = as_scalar(a), as_scalar(b)
    if fprime is None and rule.deriv_nodes:
        fprime = f.derivative()
    h = (b - a) / (2 * n)
    nodes = [(f, x * h, w * h) for x, w in rule.value_nodes]
    nodes += [(fprime, y * h, w * h * h) for y, w in rule.deriv_nodes]
    centre = (a + b) / 2
    sums = [Scalar(0)] * len(nodes)
    for k in range(n):
        mid = centre + (2 * k + 1 - n) * h
        for j, (g, offset, _) in enumerate(nodes):
            sums[j] = sums[j] + as_scalar(g(mid + offset))
    return sum((w * s for (_, _, w), s in zip(nodes, sums)), Scalar(0))


class Recorder:
    """A callable that records the points it is called at."""

    def __init__(self, fn):
        self.fn, self.calls = fn, []

    def __call__(self, t):
        self.calls.append(t)
        return self.fn(t)


class RecordingPolynomial(Polynomial):
    """A Polynomial that records the points it is called at."""

    __slots__ = ("calls",)

    def __init__(self, coeffs):
        super().__init__(coeffs)
        self.calls = []

    def __call__(self, t):
        self.calls.append(t)
        return self.evaluate(t)


def fingerprint(x):
    """Type, tier and value of a Scalar: the exact string, and for an
    interval the exact endpoints of its enclosure too."""
    return type(x), x.is_rational, x.is_exact, x.to_json_str(), None if x.is_exact else x.bounds()


def sum_and_calls(rule, make_f, a, b, n, make_fprime=None, reference=False):
    """The panel sum (or the reference's) with fresh recorders, and the
    fingerprints of the points f and fprime were called at."""
    f = make_f()
    fprime = make_fprime() if make_fprime else None
    if reference:
        value = reference_sum_panels(rule, f, a, b, n, fprime)
    else:
        value = composite_integrate(rule, f, a, b, n, 0, 1, fprime=fprime).value
    calls = [[fingerprint(t) for t in g.calls] for g in (f, fprime) if hasattr(g, "calls")]
    return fingerprint(value), calls


def assert_matches_reference(rule, make_f, a, b, n, make_fprime=None):
    got = sum_and_calls(rule, make_f, a, b, n, make_fprime)
    assert got == sum_and_calls(rule, make_f, a, b, n, make_fprime, reference=True)
    return got


PANEL_RULES = ("simpson", "gauss_legendre2", "lobatto4", "liu_park_gauss")
#: (f, fprime) of float, int and Scalar values
PANEL_INTEGRANDS = {
    "exp": (math.exp, math.exp),
    "cos": (math.cos, lambda t: -math.sin(float(t))),
    "int": (lambda t: math.floor(8 * float(t)), lambda t: 8),
    "scalar": (lambda t: t * t - t / 3, lambda t: 2 * t - Scalar(F(1, 3))),
}


@pytest.mark.parametrize("name", PANEL_RULES)
@pytest.mark.parametrize("fname", sorted(PANEL_INTEGRANDS))
@pytest.mark.parametrize("n", [1, 5, 64])
@pytest.mark.parametrize("ends", ["rational", "sqrt"])
def test_panel_sum_and_nodes_match_the_reference_loop(name, fname, n, ends):
    rule = make_rule(name)
    f, fprime = PANEL_INTEGRANDS[fname]
    s3 = sqrt(Scalar(3))  # an irrational width steps the sqrt(3) parts too
    a, b = (F(-3, 4), F(1, 4)) if ends == "rational" else (s3 / 4 - 1, s3 / 2 + F(1, 3))
    value, calls = assert_matches_reference(rule, lambda: Recorder(f), a, b, n,
                                            lambda: Recorder(fprime))
    assert len(calls[0]) == n * len(rule.value_nodes)
    assert len(calls[1]) == n * len(rule.deriv_nodes)


@pytest.mark.parametrize("name", PANEL_RULES)
@pytest.mark.parametrize("fname", ["exp", "scalar"])
def test_panel_sum_on_interval_endpoints_matches_the_reference_loop(name, fname):
    f, fprime = PANEL_INTEGRANDS[fname]
    tiny = F(1, 10**40)
    a = Scalar.from_interval(F(-3, 4) - tiny, F(-3, 4) + tiny)
    b = Scalar.from_interval(F(1, 4) - tiny, F(1, 4) + tiny)
    value, _ = assert_matches_reference(make_rule(name), lambda: Recorder(f), a, b, 20,
                                        lambda: Recorder(fprime))
    assert not value[2]


SHARING_RULES = ("simpson", "lobatto4", "radau2", "gauss_legendre2", "liu_park_gauss")
_TINY = F(1, 10**40)
SHARING_ENDS = {
    "rational": (F(-3, 4), F(1, 4)),
    "sqrt": (sqrt(Scalar(3)) / 4 - 1, sqrt(Scalar(3)) / 2 + F(1, 3)),
    "interval": (Scalar.from_interval(F(-3, 4) - _TINY, F(-3, 4) + _TINY),
                 Scalar.from_interval(F(1, 4) - _TINY, F(1, 4) + _TINY)),
}


@pytest.mark.parametrize("name", SHARING_RULES)
@pytest.mark.parametrize("fname", ["exp", "scalar"])
@pytest.mark.parametrize("n", [1, 2, 7, 513])
@pytest.mark.parametrize("ends", sorted(SHARING_ENDS))
def test_coinciding_exact_nodes_are_one_scalar(name, fname, n, ends):
    # closed rules share their panel ends, liu_park_gauss its value and
    # derivative nodes; interval and mixed-radicand nodes are never shared
    rule = make_rule(name)
    f, fprime = PANEL_INTEGRANDS[fname]
    made = []

    def recorder(fn):
        def make():
            made.append(Recorder(fn))
            return made[-1]
        return make

    a, b = SHARING_ENDS[ends]
    assert_matches_reference(rule, recorder(f), a, b, n, recorder(fprime))
    f_calls, fprime_calls = made[0].calls, made[1].calls  # composite_integrate's
    points = f_calls + fprime_calls
    exact = all(t.is_exact for t in points)
    # lobatto4's nodes lie in Q(sqrt 5): sqrt(3) ends give interval nodes
    assert exact == (ends == "rational" or ends == "sqrt" and name != "lobatto4")
    distinct = len({id(t) for t in points})  # the recorders keep every point alive
    assert distinct == (len({fingerprint(t) for t in points}) if exact else len(points))
    nv = len(rule.value_nodes)
    if rule.value_nodes[0][0] == -1 and rule.value_nodes[-1][0] == 1:
        for k in range(1, n):
            assert (f_calls[k * nv - 1] is f_calls[k * nv]) == exact
    if rule.deriv_nodes:  # liu_park_gauss: fprime at -x and x, f's nodes 1 and 2
        for k in range(n):
            for i in (0, 1):
                assert (fprime_calls[2 * k + i] is f_calls[nv * k + 1 + i]) == exact


def named_and_wrapped(fname):
    """The library's named (f, f') and the same functions as user callables."""
    f, fprime = NAMED[fname]
    return (f, fprime), (lambda t: f(t), lambda t: fprime(t))


@pytest.mark.parametrize("name", SHARING_RULES)
@pytest.mark.parametrize("fname", ["exp", "cos"])
@pytest.mark.parametrize("n", [1, 2, 7, 513])
@pytest.mark.parametrize("ends", sorted(SHARING_ENDS))
def test_named_float_integrands_match_the_scalar_lane(name, fname, n, ends):
    # math.exp and math.cos read the nodes' floats from the walk's integers
    # (plain exact ends, rational or with a stepping sqrt(3) part); the
    # wrapped ones get Scalars and read them through Scalar.__float__
    rule = make_rule(name)
    a, b = SHARING_ENDS[ends]
    got, want = (composite_integrate(rule, f, a, b, n, 0, 1, fprime=fprime).value
                 for f, fprime in named_and_wrapped(fname))
    assert fingerprint(got) == fingerprint(want)


@pytest.mark.parametrize("n", [1, 7, 4097])
@pytest.mark.parametrize("ends", sorted(SHARING_ENDS))
def test_a_closed_rule_with_unequal_end_weights_takes_each_end_sum(ends, n):
    # S_lo leaves out the last panel end and S_hi the first: with the end
    # weights of a symmetric rule a swap of the two would not show; at
    # n = 4097 the walks span two chunks of the exact float sum
    rule = custom_rule("closed", [(-1, F(1, 3)), (F(1, 3), 1), (1, F(2, 3))])
    a, b = SHARING_ENDS[ends]
    got, want = (composite_integrate(rule, f, a, b, n, 0, 1).value
                 for f, _ in named_and_wrapped("exp"))
    assert fingerprint(got) == fingerprint(want)


@pytest.mark.parametrize("fname", ["sin", "runge"])
@pytest.mark.parametrize("name", ["gauss_legendre2", "liu_park_gauss"])
def test_the_other_named_integrands_match_the_scalar_lane(fname, name):
    for a, b in [(F(-3, 4), F(1, 4)), SHARING_ENDS["sqrt"]]:
        got, want = (composite_integrate(make_rule(name), f, a, b, 33, 0, 1, fprime=fp).value
                     for f, fp in named_and_wrapped(fname))
        assert fingerprint(got) == fingerprint(want)


@pytest.mark.parametrize("name", SHARING_RULES)
@pytest.mark.parametrize("ends", ["rational", "sqrt"])
def test_a_named_integrand_reads_each_distinct_node_once_as_a_float(monkeypatch, name, ends):
    import peanoquad.rules as rules

    g = Recorder(math.exp)
    monkeypatch.setattr(rules, "FLOAT_INTEGRANDS", (g,))
    rule = make_rule(name)
    a, b = SHARING_ENDS[ends]
    got = composite_integrate(rule, g, a, b, 9, 0, 1, fprime=g).value
    want = composite_integrate(rule, math.exp, a, b, 9, 0, 1, fprime=math.exp).value
    assert fingerprint(got) == fingerprint(want)
    # lobatto4's Q(sqrt 5) nodes at sqrt(3) ends are intervals: the Scalar lane
    plain = ends == "rational" or name != "lobatto4"
    assert all(type(t) is float for t in g.calls) == plain
    if plain:
        assert len(g.calls) == len(set(g.calls))
        nodes = {x.to_json_str() for x, _ in rule.value_nodes + rule.deriv_nodes}
        shared = all(any(x == e for x, _ in rule.value_nodes) for e in (-1, 1))
        assert len(g.calls) == 9 * (len(nodes) - shared) + shared  # panel ends: n + 1


@pytest.mark.parametrize("b0, a0", [(1, 2**53 + 3 - 2**64), (-1, 2**64 - 2**53 - 3)])
def test_node_floats_round_past_a_bracket_that_straddles_a_tie(monkeypatch, b0, a0):
    # sqrt(2**128 - 1) = 2**64 - 2**-65 - ...: node k, a0 + k*2**20 + b0*sqrt(m),
    # lies within 2**-64 of the tie 2**53 + 3 (+ k*2**20), so the walk's one
    # bracket rounds two ways and _quad_round settles the node
    import peanoquad.rules as rules

    m, settled = 2**128 - 1, []
    monkeypatch.setattr(rules, "_quad_round", lambda *args: settled.append(args) or
                        _quad_round(*args))
    got = list(rules._node_floats(a0, 2**20, b0, 0, 1, m, 3))
    assert got == [float(_quad(F(a0 + k * 2**20), F(b0), m)) for k in range(3)]
    assert got[0] == b0 * (2**53 + 2) and settled


@pytest.mark.parametrize("name", ["simpson", "gauss_legendre2"])
@pytest.mark.parametrize("a, b", [(700, 720), (F(10) ** 400, F(10) ** 400 + 1)])
def test_an_overflowing_node_raises_in_both_lanes(name, a, b):
    # math.exp overflows past 709.78; a node beyond the float range cannot
    # be converted at all
    for f in (math.exp, lambda t: math.exp(t)):
        with pytest.raises(OverflowError):
            composite_integrate(make_rule(name), f, a, b, 7, 0, 1)


@pytest.mark.parametrize("lane", ["named", "scalar"])
def test_simpson_panel_walk_holds_no_node_list(lane):
    # the panel ends are stepped, never listed, and the two ends of a panel
    # read one walk in lockstep, so the memory peak stays small at any n
    rule = make_rule("simpson")
    f = math.exp if lane == "named" else lambda t: math.exp(t)
    kernel_l1_norm(rule, 3)  # the rule keeps its kernel: built outside the trace
    tracemalloc.start()
    try:
        composite_integrate(rule, f, 0, 1, 100_000, 3, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_polynomial_with_an_interval_coefficient_takes_the_loop():
    tiny = F(1, 10**40)
    coeffs = [F(1, 3), Scalar.from_interval(-2 - tiny, -2 + tiny), F(5, 7)]
    rule = make_rule("gauss_legendre2")
    _, calls = assert_matches_reference(rule, lambda: RecordingPolynomial(coeffs), 0, 1, 40)
    assert len(calls[0]) == 40 * 2


def test_polynomial_over_another_field_takes_the_loop():
    # sqrt(2) coefficients at Q(sqrt 3) nodes: the values are intervals
    coeffs = [sqrt(Scalar(2)), 1, F(1, 5)]
    value, calls = assert_matches_reference(make_rule("gauss_legendre2"),
                                            lambda: RecordingPolynomial(coeffs), 0, 1, 30)
    assert not value[2] and len(calls[0]) == 30 * 2


QUARTIC = [F(1, 3), -2, F(5, 7), 1, F(-2, 9)]


@pytest.mark.parametrize("name", ["simpson", "radau2", "gauss_legendre2", "lobatto4"])
@pytest.mark.parametrize("n", [1, 5, 6, 513])  # 1, d + 1, d + 2, many
@pytest.mark.parametrize("coeffs", [QUARTIC, [sqrt(Scalar(3)), F(1, 2), -sqrt(Scalar(3)), 0, 1]])
def test_exact_polynomial_closed_form_matches_the_reference_loop(name, n, coeffs):
    rule = make_rule(name)
    got, calls = sum_and_calls(rule, lambda: RecordingPolynomial(coeffs), F(-1, 3), F(7, 5), n)
    want, want_calls = sum_and_calls(rule, lambda: RecordingPolynomial(coeffs), F(-1, 3),
                                     F(7, 5), n, reference=True)
    assert got == want
    # lobatto4's nodes lie in Q(sqrt 5): sqrt(3) coefficients give intervals
    assert got[2] == (name != "lobatto4" or coeffs is QUARTIC)
    if n <= 5 or not got[2]:  # the loop: the same calls
        assert calls == want_calls
    else:  # deg + 1 values per node, all at nodes the loop visits
        assert len(calls[0]) == 5 * len(rule.value_nodes)
        assert set(calls[0]) <= set(want_calls[0])


@pytest.mark.parametrize("name", ["simpson", "gauss_legendre2", "lobatto4", "liu_park_gauss"])
@pytest.mark.parametrize("n", [6, 7, 513])
@pytest.mark.parametrize("ends", ["rational", "sqrt"])
@pytest.mark.parametrize("coeffs", [QUARTIC, [sqrt(Scalar(3)), F(1, 2), -sqrt(Scalar(3)), 0, 1],
                                    []])
def test_exact_polynomial_closed_form_in_integers_matches_the_reference_loop(name, n, ends,
                                                                             coeffs):
    p = Polynomial(coeffs)  # a plain Polynomial: its values come from the walk's integers
    a, b = SHARING_ENDS[ends]
    got = composite_integrate(make_rule(name), p, a, b, n, 0, 1).value
    assert fingerprint(got) == fingerprint(reference_sum_panels(make_rule(name), p, a, b, n))


@pytest.mark.parametrize("rule", [make_rule("liu_park_gauss"),
                                  make_rule("q44", lam=F(1, 3), gamma=F(1, 7), delta=F(-1, 5),
                                            x=F(1, 2))])
@pytest.mark.parametrize("n", [2, 100])
def test_derivative_node_rule_with_a_polynomial(rule, n):
    p = Polynomial(QUARTIC)
    want = reference_sum_panels(rule, p, F(-3, 4), F(1, 4), n)
    assert want.is_exact
    for fprime in (None, p.derivative()):
        got = composite_integrate(rule, p, F(-3, 4), F(1, 4), n, 0, 1, fprime=fprime).value
        assert got.to_json_str() == want.to_json_str()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["simpson", "gauss_legendre2"])
def test_non_finite_values_raise_as_the_reference_does(bad, name):
    rule = make_rule(name)

    def f(t):  # finite except at the last node
        return bad if float(t) > 0.95 else 1.0

    with pytest.raises(Exception) as want:
        reference_sum_panels(rule, f, 0, 1, 7)
    assert want.type is ValueError  # Scalar(v) rejects NaN and ±inf alike
    with pytest.raises(want.type):
        composite_integrate(rule, f, 0, 1, 7, 0, 1)


def test_missing_derivative_raises_before_evaluating_f():
    calls = []

    def f(t):
        calls.append(t)
        return math.exp(float(t))

    with pytest.raises(MissingDerivative):
        composite_integrate(make_rule("liu_park_gauss"), f, 0, 1, 5, 3, 1)
    assert calls == []


def test_simpson_on_quartic_certificate_is_tight():
    # e_4 is extremal for the Simpson kernel: error equals the certificate
    res = composite_integrate(make_rule("simpson"), Polynomial([0, 0, 0, 0, 1]),
                              -1, 1, 1, 3, 24)
    assert res.value.as_fraction() == F(2, 3)
    assert res.certificate.as_fraction() == F(4, 15)
    true_integral = F(2, 5)
    assert abs(true_integral - res.value.as_fraction()) == res.certificate.as_fraction()


def test_certificate_formula_and_monotonicity():
    rule = make_rule("simpson")
    f = Polynomial([0, 0, 0, 0, 1])
    prev = None
    for n in (1, 2, 4, 8):
        res = composite_integrate(rule, f, 0, 1, n, 3, 24)
        h = F(1, 2 * n)
        assert res.certificate.as_fraction() == n * F(1, 90) * h**5 * 24
        if prev is not None:
            assert res.certificate.as_fraction() < prev
        prev = res.certificate.as_fraction()


def test_doubling_panels_scales_certificate_exactly():
    rule = make_rule("gauss_legendre2")
    for r in (0, 1, 2, 3):
        c1 = composite_integrate(rule, math.exp, 0, 1, 3, r, math.e).certificate
        c2 = composite_integrate(rule, math.exp, 0, 1, 6, r, math.e).certificate
        ratio = float(c1) / float(c2)
        assert abs(ratio - 2 ** (r + 1)) < 1e-9


def test_exact_on_polynomials_within_degree():
    for name, params, d in [
        ("simpson", {}, 3),
        ("radau2", {}, 2),
        ("liu_park_gauss", {}, 3),
    ]:
        rule = make_rule(name, **params)
        p = Polynomial([F(1, 3), -2, F(5, 7), 1][: d + 1])
        res = composite_integrate(rule, p, F(-1, 2), F(9, 4), 3, min(d, 3), 5)
        err = p.definite_integral(F(-1, 2), F(9, 4)) - res.value
        assert err.is_exact_zero() or err.zero_within()
        assert float(res.certificate) >= 0


INTEGRANDS = [
    # (f, fprime, a, b, r, deriv_sup, reference)
    (math.exp, math.exp, 0, 1, 3, math.e, float(mpmath.e - 1)),
    (math.exp, math.exp, -1, 1, 1, math.e, float(mpmath.exp(1) - mpmath.exp(-1))),
    (math.sin, math.cos, 0, 3, 3, 1.0, float(1 - mpmath.cos(3))),
    (math.cos, lambda t: -math.sin(float(t)), 0, 1, 2, 1.0, float(mpmath.sin(1))),
    (lambda t: 1.0 / (2.0 + float(t)), lambda t: -1.0 / (2.0 + float(t)) ** 2,
     -1, 1, 1, 2.0, float(mpmath.log(3))),
    (lambda t: float(t) ** 6, lambda t: 6.0 * float(t) ** 5, -1, 1, 3, 360.0, 2 / 7),
    (lambda t: math.exp(-float(t) ** 2), lambda t: -2 * float(t) * math.exp(-float(t) ** 2),
     0, 1, 1, 2.0, float(mpmath.sqrt(mpmath.pi) / 2 * mpmath.erf(1))),
    (lambda t: 1.0 / (1.0 + 25.0 * float(t) ** 2),
     lambda t: -50.0 * float(t) / (1.0 + 25.0 * float(t) ** 2) ** 2,
     0, 1, 0, 6.5, float(mpmath.atan(5) / 5)),
    (math.sinh, math.cosh, 0, 1, 3, float(mpmath.cosh(1)), float(mpmath.cosh(1) - 1)),
    (lambda t: float(t) ** 4 - float(t), lambda t: 4 * float(t) ** 3 - 1,
     -1, 1, 3, 24.0, 2 / 5),
]


@pytest.mark.parametrize("case", range(len(INTEGRANDS)))
def test_observed_error_below_certificate(case):
    f, fprime, a, b, r, sup, ref = INTEGRANDS[case]
    for name in ("simpson", "gauss_legendre2", "liu_park_gauss"):
        rule = make_rule(name)
        if r > 3:
            continue
        for n in (1, 3):
            res = composite_integrate(rule, f, a, b, n, r, sup, fprime=fprime)
            assert abs(float(res.value) - ref) <= float(res.certificate) * (1 + 1e-12)


def test_exp_on_unit_interval_panel_progression():
    rule = make_rule("gauss_legendre2")
    ref = float(mpmath.e - 1)
    for n in (1, 2, 4, 8):
        res = composite_integrate(rule, math.exp, 0, 1, n, 3, math.e)
        assert abs(float(res.value) - ref) <= float(res.certificate)


def test_two_panel_trapezoid_equals_midpoint_endpoint_blend():
    # the three-point rule with x = 0 is the two-panel trapezoid composite
    trap = make_rule("gs2", x=1)
    blend = make_rule("mp3", x=0)
    for f in [Polynomial([1, 2, 3, 4]), Polynomial([0, 0, 0, 0, 1])]:
        composite = composite_integrate(trap, f, -1, 1, 2, 1, 1).value
        direct = apply_rule(blend, f)
        assert composite.as_fraction() == direct.as_fraction()


def test_panels_for_tolerance_examples():
    rule = make_rule("simpson")
    # already satisfied at one panel
    assert panels_for_tolerance(rule, 3, 1, -1, 1, F(1, 10)) == 1
    # eps chosen as the two-panel certificate: certificate(n) = 1/(90 n^4)
    assert panels_for_tolerance(rule, 3, 1, -1, 1, F(1, 1440)) == 2
    n = panels_for_tolerance(rule, 3, 1, -1, 1, F(1, 10**6))
    cert = lambda k: F(1, 90 * k**4)
    assert cert(n) <= F(1, 10**6) < cert(n - 1)


@pytest.mark.parametrize("deriv_sup, eps", [
    (1, F(1, 10**120)),
    (1, F(1, 10**300)),
    (1, F(1, 10**400)),
    (F(10**400), F(1, 10**6)),
])
def test_panels_for_tolerance_is_exact_at_any_scale(deriv_sup, eps):
    # simpson on [0, 1]: M_3 = 1/90, h = 1/(2n), certificate(n) = 1/(2880 n^4)
    n = panels_for_tolerance(make_rule("simpson"), 3, deriv_sup, 0, 1, eps)
    cert = lambda k: F(deriv_sup) / (2880 * k**4)
    assert cert(n) <= eps < cert(n - 1)


def test_panels_for_tolerance_tiny_eps_returns_quickly():
    start = time.perf_counter()
    panels_for_tolerance(make_rule("simpson"), 3, 1, 0, 1, F(1, 10**300))
    assert time.perf_counter() - start < 1.0


def test_panels_for_tolerance_zero_deriv_sup():
    assert panels_for_tolerance(make_rule("simpson"), 3, 0, -1, 1, F(1, 10**30)) == 1


def test_panels_for_tolerance_rejects_negative_deriv_sup():
    with pytest.raises(ValueError, match="deriv_sup"):
        panels_for_tolerance(make_rule("simpson"), 3, -5, 0, 1, 1e-9)


STRADDLES_ZERO = Scalar.from_interval(F(-1, 2), F(1))


def test_deriv_sup_straddling_zero_is_rejected():
    # not provably >= 0: the midpoint 1/4 used to let it through, with a
    # certificate whose lower end was negative
    rule = make_rule("simpson")
    with pytest.raises(ValueError, match="deriv_sup"):
        composite_integrate(rule, math.exp, 0, 1, 4, 3, STRADDLES_ZERO)
    with pytest.raises(ValueError, match="deriv_sup"):
        panels_for_tolerance(rule, 3, STRADDLES_ZERO, 0, 1, 1e-9)
    assert composite_integrate(rule, math.exp, 0, 1, 4, 3,
                               Scalar.from_interval(F(0), F(1))).certificate.sign() is None


def test_panels_for_tolerance_needs_a_certificate_provably_below_eps():
    rule = make_rule("simpson")
    exact = panels_for_tolerance(rule, 3, 1, 0, 1, F(1, 10**6))
    # a certificate that overlaps eps is not provably below it: one more panel
    m_r = kernel_l1_norm(rule, 3).l1_norm
    eps = m_r * (F(1, 2 * exact)) ** 5 * exact
    wide = Scalar.from_interval(F(1) - F(1, 10**30), F(1) + F(1, 10**30))
    assert panels_for_tolerance(rule, 3, 1, 0, 1, eps) == exact
    assert panels_for_tolerance(rule, 3, wide, 0, 1, eps) == exact + 1


def test_composite_validation():
    rule = make_rule("simpson")
    with pytest.raises(ValueError, match="deriv_sup"):
        composite_integrate(rule, math.exp, 0, 1, 4, 3, -5)
    with pytest.raises(BadInterval):
        composite_integrate(rule, math.exp, 1, 0, 1, 3, 1)
    with pytest.raises(ValueError):
        composite_integrate(rule, math.exp, 0, 1, 0, 3, 1)
    with pytest.raises(OrderExceedsExactness):
        composite_integrate(rule, math.exp, 0, 1, 1, 4, 1)
    with pytest.raises(ValueError):
        panels_for_tolerance(rule, 3, 1, -1, 1, 0)


def test_result_metadata():
    res = composite_integrate(make_rule("simpson"), math.exp, 0, 2, 4, 3, math.exp(2))
    assert res.panels == 4
    assert res.rule_name == "simpson"
    assert res.order_used == 3
    assert float(res.deriv_sup_asserted) == math.exp(2)


def test_certificate_matches_error_bound_additivity():
    # n-panel certificate equals n times the per-panel bound
    rule = make_rule("simpson")
    n = 5
    res = composite_integrate(rule, math.exp, 0, 1, n, 3, 1)
    m3 = kernel_l1_norm(rule, 3).l1_norm
    per_panel = m3 * Scalar(F(1, 10)) ** 5  # h = (b-a)/(2n) = 1/10
    assert abs(float(res.certificate) - n * float(per_panel)) < 1e-18


def test_infinite_derivative_bound_raises_value_error():
    with pytest.raises(ValueError, match="not a finite number"):
        composite_integrate(make_rule("simpson"), math.exp, 0, 1, 4, 3, deriv_sup=math.inf)
