"""Exact x-derivatives of M_r from one kernel pass at a dual-number node.

``_Dual(x, 1)`` carries d/dx through the family builder, the kernel and its
L1 norm.  The derivatives are compared with ``==`` to those of the closed-form
bound functions of acceptance criterion 4, and the value part with a plain
``kernel_l1_norm`` by its exact string.
"""

from fractions import Fraction as F

import pytest

from peanoquad import Polynomial, Scalar, family, kernel_l1_norm, make_rule, sqrt
from peanoquad.bounds import _bound_fn
from peanoquad.rules import CATALOG
from peanoquad.scalars import _Dual


def dual_m(name, r, x, **fixed):
    """(M_r(x), dM_r/dx) of a catalog family, from one dual kernel pass
    (the left-hand derivative at the upper end of the domain)."""
    return _bound_fn(family(name, **fixed), r)[2](x)


def P(*coeffs):
    return Polynomial(list(coeffs))


def quotient_slope(num: Polynomial, den: Polynomial, x) -> Scalar:
    """d/dx of num(x)/den(x), exactly."""
    return (num.derivative()(x) * den(x) - num(x) * den.derivative()(x)) / den(x) ** 2


ONE = P(1)
# closed forms of acceptance criterion 4 as num/den polynomials in x, with
# their rational points; a branch point at an end of a list is on both branches
RATIONAL_BRANCHES = [
    ("ostrowski", 0, {}, P(1, 0, 1), ONE, [F(-3, 4), F(-1, 4), F(0), F(2, 5), F(9, 10)]),
    ("mp3", 0, {}, P(1, 0, 1), P(2), [F(-1, 2), F(-1, 5), F(0), F(1, 4), F(3, 5)]),
    ("mp3", 1, {}, P(1, 0, 3), P(6), [F(-1, 2), F(-1, 5), F(0), F(1, 4), F(3, 5)]),
    ("mod3_opt", 0, {}, P(5, 0, -1, 0, 3, 0, 9), P(1, 0, -1) ** 2 * 9,
     [F(0), F(1, 10), F(1, 5), F(1, 4), F(3, 10)]),
    ("mod3_opt", 1, {}, P(1, 0, -3) * P(1, 0, 3) ** 2 * 8, P(1, 0, -1) ** 3 * 81,
     [F(0), F(1, 10), F(1, 5), F(1, 4), F(3, 10)]),
    ("mod3_opt", 2, {}, P(1, -4, 22, -60, 49, 8), P(1, -1) ** 4 * 36,
     [F(0), F(1, 10), F(1, 5), F(1, 4), F(3, 10)]),
    ("mod3_opt", 0, {}, P(2, 3, 3) ** 2, P(1, 1) ** 2 * 9, [F(2, 5), F(1, 2), F(2, 3), F(4, 5)]),
    ("mod3_opt", 1, {}, P(1, 3) ** 3 * 4, P(1, 1) ** 3 * 81, [F(2, 5), F(1, 2), F(2, 3), F(4, 5)]),
    ("mod3_opt", 2, {}, P(0, 2), P(9), [F(2, 5), F(1, 2), F(2, 3), F(4, 5)]),
    ("gs2", 0, {}, P(1, -2, 2), ONE, [F(1, 10), F(3, 10), F(1, 2), F(7, 10), F(1)]),
    ("gs2", 1, {}, P(F(1, 3), 0, -1), ONE, [F(1, 10), F(1, 5), F(3, 10), F(2, 5), F(1, 2)]),
    ("franjic", 0, {}, P(1, -1) ** 2, ONE, [F(-3, 4), F(-1, 2), F(-1, 4), F(-1, 10), F(0)]),
    ("franjic", 1, {}, P(1, -3), P(3), [F(-3, 4), F(-1, 2), F(-1, 4), F(-1, 10), F(0)]),
    ("franjic", 0, {}, P(1, 0, 1) ** 2, P(1, 1) ** 2, [F(1, 5), F(1, 3), F(1, 2), F(7, 10), F(1)]),
    ("franjic", 1, {}, P(1, 0, -6, 24, -3), P(1, 1) ** 3 * 3,
     [F(1, 5), F(1, 3), F(1, 2), F(7, 10), F(1)]),
    ("liu_park", 0, {}, P(F(1, 2), -1, 2), ONE, [F(1, 10), F(1, 5), F(1, 4), F(3, 10), F(2, 5)]),
    ("liu_park", 0, {}, P(0, 1), ONE, [F(1, 2), F(3, 5), F(7, 10), F(4, 5), F(9, 10)]),
    ("liu_park", 1, {}, P(1, 0, -3, 4), P(6), [F(1, 10), F(3, 10), F(1, 2), F(7, 10), F(9, 10)]),
]
for _lam, _x in [(F(1, 4), F(1, 5)), (F(1, 3), F(1, 8)), (F(1, 2), F(1, 10)),
                 (F(2, 5), F(-1, 4)), (F(1, 10), F(1, 2))]:
    RATIONAL_BRANCHES.append(("dcr", 0, {"lam": _lam}, P(_lam**2 + (1 - _lam) ** 2, 0, 1), ONE, [_x]))
_L = F(1, 5)
RATIONAL_BRANCHES += [
    ("alomari4", 0, {"lam": _L}, P(_L**2 + (1 - _L) ** 2, -2 * (1 - _L), 2), ONE,
     [F(1, 10), F(1, 4), F(2, 5), F(3, 5), F(7, 10)]),
    ("alomari4", 0, {"lam": _L}, P(2 * _L - 1, 2 * (1 - _L)), ONE,
     [F(81, 100), F(17, 20), F(9, 10), F(19, 20), F(99, 100)]),
    ("alomari4", 1, {"lam": _L}, P(F(58, 375), 0, F(-4, 5)), ONE,
     [F(1, 10), F(1, 5), F(1, 4), F(3, 10), F(3, 8)]),
    ("alomari4", 1, {"lam": _L}, P(F(-2, 15), 0, F(12, 15)), ONE,
     [F(3, 5), F(7, 10), F(4, 5), F(9, 10), F(19, 20)]),
]
for _lam, _x in [(F(1, 2), F(1, 5)), (F(1, 2), F(3, 5)), (F(3, 5), F(2, 5)),
                 (F(3, 4), F(1, 2)), (F(9, 10), F(4, 5))]:
    RATIONAL_BRANCHES.append(
        ("alomari4", 1, {"lam": _lam}, P(_lam - F(1, 3), 0, 1 - _lam), ONE, [_x]))


@pytest.mark.parametrize("name,r,fixed,num,den,points", RATIONAL_BRANCHES)
def test_derivative_equals_closed_form_slope(name, r, fixed, num, den, points):
    for x in points:
        value, slope = dual_m(name, r, x, **fixed)
        assert value == num(x) / den(x), (name, r, x)
        assert slope == quotient_slope(num, den, x), (name, r, x, slope)


@pytest.mark.parametrize("x", [F(3, 5), F(7, 10), F(3, 4), F(4, 5), F(1)])
def test_symmetric_two_point_m1_outer_slope_in_quadratic_field(x):
    # M_1 = (4 (2x-1)^(3/2) + 1 - 3x^2)/3, so M_1' = 4 sqrt(2x-1) - 2x
    _, slope = dual_m("gs2", 1, x)
    assert slope == 4 * sqrt(Scalar(2 * x - 1)) - 2 * x
    assert slope.is_exact


def test_symmetric_two_point_m1_slope_at_three_fifths():
    _, slope = dual_m("gs2", 1, F(3, 5))
    assert slope.to_json_str() == "-6/5+4/5*sqrt(5)"


@pytest.mark.parametrize("x", [F(2, 5), F(9, 20), F(1, 2), F(11, 20), F(23, 40)])
def test_four_point_m1_middle_slope_in_quadratic_field(x):
    # M_1 = 2 (29 - 150 x^2 + 10 sqrt(5) (8x-3)^(3/2))/375 at lambda = 1/5
    _, slope = dual_m("alomari4", 1, x, lam=F(1, 5))
    assert slope == (240 * sqrt(Scalar(5 * (8 * x - 3))) - 600 * x) / 375
    if x == F(1, 2):
        assert slope.to_json_str() == "-4/5+16/25*sqrt(5)"


FAMILIES = [
    ("ostrowski", {}), ("mp3", {}), ("mod3", {"lam": F(1, 2)}), ("mod3_opt", {}),
    ("dcr", {"lam": F(1, 4)}), ("gs2", {}), ("franjic", {}), ("alomari4", {"lam": F(1, 5)}),
    ("liu_park", {}), ("dragomir_sofo", {}),
    ("q44", {"lam": F(1, 5), "gamma": F(1, 30), "delta": F(1, 10)}),
]


def test_families_cover_the_catalog():
    scannable = {n for n, e in CATALOG.items() if "x" in e.param_names and n != "alomari2"}
    assert {n for n, _ in FAMILIES} == scannable


@pytest.mark.parametrize("name,fixed", FAMILIES)
def test_value_part_is_the_plain_constant(name, fixed):
    fam = family(name, **fixed)
    for r in range(fam.generic_degree + 1):
        slope = _bound_fn(fam, r)[2]
        for x in fam.domain.grid(9):
            plain = kernel_l1_norm(fam.build(Scalar(x)), r).l1_norm
            assert slope(x)[0].to_json_str() == plain.to_json_str(), (name, r, x)


@pytest.mark.parametrize("name,fixed,r,x,want", [
    ("ostrowski", {}, 0, F(-1), F(-2)), ("ostrowski", {}, 0, F(1), F(2)),
    ("liu_park", {}, 0, F(0), F(-1)), ("liu_park", {}, 0, F(1), F(1)),
    ("alomari4", {"lam": F(1, 5)}, 0, F(0), F(-8, 5)),
    ("alomari4", {"lam": F(1, 5)}, 0, F(1), F(8, 5)),
    ("alomari4", {"lam": F(1, 5)}, 1, F(1), F(8, 5)),
    ("dragomir_sofo", {}, 0, F(-1), F(-1)), ("dragomir_sofo", {}, 1, F(1), F(1)),
])
def test_one_sided_slope_where_nodes_meet(name, fixed, r, x, want):
    # at a closed end of the domain nodes meet each other or an end of
    # [-1, 1]; they part inside the domain, and the slope is the one-sided one
    _, slope = dual_m(name, r, x, **fixed)
    assert slope == want
    fam = family(name, **fixed)
    h = F(1, 10**9) if x == fam.domain.lo else F(-1, 10**9)
    m = [kernel_l1_norm(fam.build(Scalar(t)), r).l1_norm for t in (x, x + h)]
    assert abs(float((m[1] - m[0]) / h) - float(want)) < 1e-6


def test_zero_weight_keeps_its_derivative():
    # mod3, lambda = 3/5, x = 2/3: the weight 1 - lambda(1 + x) at node 1 is
    # exactly 0 with derivative -lambda; dropping that node would give 8/15
    # and 46/25
    lam, x = F(3, 5), F(2, 3)
    rule = make_rule("mod3", x=_Dual(Scalar(x), 1), lam=lam)
    node, weight = rule.value_nodes[-1]
    assert node == Scalar(1)
    assert _Dual.parts(weight) == (Scalar(0), Scalar(F(-3, 5)))
    h = F(1, 10**8)
    for r, want in ((0, F(52, 75)), (1, F(92, 125))):
        _, slope = dual_m("mod3", r, x, lam=lam)
        assert slope == want
        ahead = kernel_l1_norm(make_rule("mod3", x=x + h, lam=lam), r).l1_norm
        behind = kernel_l1_norm(make_rule("mod3", x=x - h, lam=lam), r).l1_norm
        assert abs(float((ahead - behind) / (2 * h)) - float(want)) < 1e-6


def test_zero_tests_keep_a_moving_zero():
    eps = _Dual(Scalar(0), 1)  # value 0, derivative 1
    assert not eps.is_exact_zero()
    assert Polynomial([1, eps]).degree == 1
    assert _Dual.parts((Polynomial([eps]) * Polynomial([2, 3])).coeffs[1])[1] == Scalar(3)
    assert _Dual.parts(Scalar(0) + eps) == (Scalar(0), Scalar(1))
    assert _Dual.parts(eps * 5) == (Scalar(0), Scalar(5))
    ival = Scalar.from_interval(F(1, 3), F(1, 2))
    assert _Dual.parts(ival + eps)[1] == Scalar(1)
    assert _Dual.parts(eps * ival)[1] == ival
    assert _Dual.parts(eps * 0) == (Scalar(0), Scalar(0))


def test_dual_arithmetic_rules():
    x = _Dual(Scalar(F(2, 3)), 1)
    assert _Dual.parts(x * x - 3 * x) == (Scalar(F(-14, 9)), Scalar(F(-5, 3)))
    assert _Dual.parts(1 / x) == (Scalar(F(3, 2)), Scalar(F(-9, 4)))
    assert _Dual.parts(x**3) == (Scalar(F(8, 27)), Scalar(F(4, 3)))
    assert _Dual.parts(x**-1) == _Dual.parts(1 / x)
    assert _Dual.parts(abs(-x)) == (Scalar(F(2, 3)), Scalar(1))
    assert _Dual.parts(Scalar(1) - x) == (Scalar(F(1, 3)), Scalar(-1))
    # order reads eps as a positive infinitesimal: x is 2/3 + eps
    assert Scalar(0) < x <= Scalar(1) and x > F(1, 2)
    assert x > Scalar(F(2, 3)) and x != Scalar(F(2, 3)) and x == _Dual(Scalar(F(2, 3)), 1)
    assert (-x).lt_definite(Scalar(F(-2, 3))) and Scalar(F(2, 3)).lt_definite(x)
    assert sorted([x, Scalar(F(2, 3)), -x + F(4, 3)])[1] == Scalar(F(2, 3))
    assert float(x) == 2 / 3
    # |v + d*eps| at v = 0 has the sign of d; at an undecided sign the
    # derivative encloses both one-sided slopes
    assert _Dual.parts(abs(_Dual(Scalar(0), -2))) == (Scalar(0), Scalar(2))
    _, corner = _Dual.parts(abs(_Dual(Scalar.from_interval(F(-1, 10**40), F(1, 10**40)), 2)))
    assert corner.sign() is None
    assert corner.bounds() == (F(-2), F(2))


def test_rational_fast_lane_keeps_the_derivative():
    import operator

    a, x, v = Scalar(F(1, 3)), _Dual(F(1, 2), 1), Scalar(F(1, 2))
    for op, d_ax, d_xa in [(operator.add, 1, 1), (operator.sub, -1, 1),
                           (operator.mul, F(1, 3), F(1, 3)), (operator.truediv, F(-4, 3), 3)]:
        assert _Dual.parts(op(a, x)) == (op(a, v), Scalar(d_ax))
        assert _Dual.parts(op(x, a)) == (op(v, a), Scalar(d_xa))
    assert _Dual.parts(-x) == (-v, Scalar(-1))
    assert v.lt_definite(x) is True and x.lt_definite(v) is False
    assert v != x and x != v


@pytest.mark.parametrize("n", [1, 5])
def test_panel_sum_at_a_dual_end_keeps_the_derivative(n):
    # Simpson is exact on t^2, so the sum over [0, b] is b^3/3 with d/db = b^2;
    # n = 5 panels would take the closed form for plain data
    from peanoquad import composite_integrate
    from peanoquad.rules import apply_rule

    rule, p, b = make_rule("simpson"), Polynomial([0, 0, 1]), _Dual(1, 1)
    got = apply_rule(rule, p, 0, b) if n == 1 else composite_integrate(rule, p, 0, b, n, 0, 1).value
    value, slope = _Dual.parts(got)
    assert value.to_json_str() == "1/3" and slope.to_json_str() == "1"
