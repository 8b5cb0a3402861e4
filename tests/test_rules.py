"""Rule catalog, node conventions, rules applied on [a, b], serialization."""

import json
from fractions import Fraction as F

import pytest

from peanoquad import (
    AmbiguousOrder,
    BadInterval,
    MissingDerivative,
    ParamOutOfDomain,
    Polynomial,
    Scalar,
    UnknownRule,
    apply_rule,
    catalog_names,
    custom_rule,
    family,
    make_rule,
    rule_from_json,
    rule_from_json_dict,
    rule_to_json,
    sqrt,
)

ALL_FIXED = [
    make_rule("ostrowski", x=F(1, 4)),
    make_rule("mp3", x=F(2, 5)),
    make_rule("mod3", x=F(1, 2), lam=F(1, 4)),
    make_rule("mod3_opt", x=F(1, 5)),
    make_rule("simpson"),
    make_rule("dcr", lam=F(1, 3), x=F(1, 5)),
    make_rule("gs2", x=F(2, 3)),
    make_rule("gauss_legendre2"),
    make_rule("franjic", x=F(3, 5)),
    make_rule("radau2"),
    make_rule("alomari2", lam=F(1, 4), x=F(-1, 2), y=F(1, 2)),
    make_rule("alomari4", lam=F(1, 5), x=F(2, 3)),
    make_rule("lobatto4"),
    make_rule("liu_park", x=F(1, 2)),
    make_rule("liu_park_gauss"),
    make_rule("dragomir_sofo", x=F(2, 5)),
    make_rule("q44", lam=F(1, 3), gamma=F(1, 10), delta=F(-1, 20), x=F(1, 2)),
]


def test_simpson_nodes():
    s = make_rule("simpson")
    assert [(x.as_fraction(), w.as_fraction()) for x, w in s.value_nodes] == [
        (F(-1), F(1, 3)),
        (F(0), F(4, 3)),
        (F(1), F(1, 3)),
    ]
    assert s.deriv_nodes == ()


def test_mod3_lambda_zero_is_trapezoid():
    r = make_rule("mod3", x=F(1, 7), lam=0)
    assert [(x.as_fraction(), w.as_fraction()) for x, w in r.value_nodes] == [
        (F(-1), F(1)),
        (F(1), F(1)),
    ]


def test_liu_park_derivative_weights():
    r = make_rule("liu_park", x=F(1, 2))
    assert [(y.as_fraction(), w.as_fraction()) for y, w in r.deriv_nodes] == [
        (F(-1, 2), F(1, 4)),
        (F(1, 2), F(-1, 4)),
    ]


def test_gauss_legendre2_is_gs2_at_sqrt_third():
    gl = make_rule("gauss_legendre2")
    node = gl.value_nodes[1][0]
    assert node == sqrt(Scalar(F(1, 3)))
    assert gl.value_nodes[1][1].as_fraction() == 1


@pytest.mark.parametrize("rule", ALL_FIXED, ids=lambda r: r.name)
def test_weight_sums_to_two(rule):
    total = rule.weight_sum()
    assert total.is_rational and total.as_fraction() == 2


@pytest.mark.parametrize(
    "name,params",
    [
        ("gs2", {"x": F(2, 5)}),
        ("simpson", {}),
        ("alomari4", {"lam": F(1, 5), "x": F(2, 3)}),
        ("liu_park", {"x": F(1, 2)}),
        ("gauss_legendre2", {}),
        ("lobatto4", {}),
        ("liu_park_gauss", {}),
        ("q44", {"lam": F(1, 3), "gamma": F(1, 10), "delta": F(-1, 20), "x": F(1, 2)}),
    ],
)
def test_symmetric_rules_mirror(name, params):
    rule = make_rule(name, **params)
    vals = [(x, w) for x, w in rule.value_nodes]
    for (x, w), (xr, wr) in zip(vals, reversed(vals)):
        assert (x + xr).is_exact_zero() or (x + xr).zero_within()
        assert (w - wr).is_exact_zero() or (w - wr).zero_within()
    ders = [(y, w) for y, w in rule.deriv_nodes]
    for (y, w), (yr, wr) in zip(ders, reversed(ders)):
        assert (y + yr).is_exact_zero() or (y + yr).zero_within()
        assert (w + wr).is_exact_zero() or (w + wr).zero_within()


def test_admissibility_errors():
    with pytest.raises(ParamOutOfDomain):
        make_rule("dcr", lam=1, x=0)  # empty node window at lambda = 1
    with pytest.raises(ParamOutOfDomain):
        make_rule("dcr", lam=F(1, 2), x=F(9, 10))
    with pytest.raises(ParamOutOfDomain):
        make_rule("alomari2", lam=F(1, 4), x=F(1, 2), y=F(-1, 2))
    with pytest.raises(ParamOutOfDomain):
        make_rule("ostrowski", x=2)
    with pytest.raises(ParamOutOfDomain):
        make_rule("q44", lam=F(3, 2), gamma=0, delta=0, x=F(1, 2))


def test_unknown_rule_and_params():
    with pytest.raises(UnknownRule):
        make_rule("not_a_rule")
    with pytest.raises(UnknownRule):
        make_rule("simpson", x=1)
    with pytest.raises(UnknownRule):
        make_rule("gs2")  # missing x
    with pytest.raises(UnknownRule):
        family("simpson")  # fixed rule, no free node


def test_apply_simpson_exact_on_quadratic():
    s = make_rule("simpson")
    assert apply_rule(s, Polynomial([0, 0, 1])).as_fraction() == F(2, 3)


def test_apply_liu_park_gauss_odd_function():
    val = apply_rule(make_rule("liu_park_gauss"), Polynomial([0, 0, 0, 1]))
    assert val.zero_within() or val.is_exact_zero()


def test_apply_radau2_on_cubic():
    # direct evaluation: (1/2)(-1) + (3/2)(1/27) = -4/9
    val = apply_rule(make_rule("radau2"), Polynomial([0, 0, 0, 1]))
    assert val.as_fraction() == F(-4, 9)


def test_apply_requires_derivative_for_birkhoff_rules():
    lp = make_rule("liu_park", x=F(1, 2))
    with pytest.raises(MissingDerivative):
        apply_rule(lp, lambda t: float(t) ** 2)
    # polynomials derive themselves
    assert apply_rule(lp, Polynomial([0, 0, 1])).as_fraction() == F(3, 4)


def applied_nodes(rule, a, b):
    """The (node, weight) pairs apply_rule uses on [a, b], for f and for
    fprime: the points a recording f and fprime are called at, each weighted
    by the rule's value on the indicator of that point."""
    seen = {"f": [], "fprime": []}
    apply_rule(rule, lambda t: seen["f"].append(t) or 0, a, b,
               lambda t: seen["fprime"].append(t) or 0)

    def weight(kind, x):
        hit, miss = (lambda t: 1 if t == x else 0), (lambda t: 0)
        f, fprime = (hit, miss) if kind == "f" else (miss, hit)
        return apply_rule(rule, f, a, b, fprime)

    return {kind: [(x.as_fraction(), weight(kind, x).as_fraction()) for x in pts]
            for kind, pts in seen.items()}


def test_map_ostrowski_zero_is_midpoint_rule():
    got = applied_nodes(make_rule("ostrowski", x=0), 2, 5)
    assert got == {"f": [(F(7, 2), F(3))], "fprime": []}


def test_map_simpson_to_shifted_interval_is_identity_scaling():
    got = applied_nodes(make_rule("simpson"), 0, 2)
    assert got["f"] == [(F(0), F(1, 3)), (F(1), F(4, 3)), (F(2), F(1, 3))]


def test_map_scales_derivative_weights_quadratically():
    lp = make_rule("liu_park", x=F(1, 2))
    got = applied_nodes(lp, 0, 1)  # h = 1/2
    assert got["f"] == [(F(0), F(1, 4)), (F(1, 4), F(1, 4)), (F(3, 4), F(1, 4)), (F(1), F(1, 4))]
    assert got["fprime"] == [(F(1, 4), F(1, 16)), (F(3, 4), F(-1, 16))]


def test_map_bad_interval():
    with pytest.raises(BadInterval):
        apply_rule(make_rule("simpson"), lambda t: 0, 1, 1)


def test_mapped_rule_integrates_polynomials_exactly():
    s = make_rule("simpson")  # degree 3
    p = Polynomial([1, -2, F(3, 7), 5])
    a, b = F(-1, 3), F(7, 4)
    assert apply_rule(s, p, a, b) == p.definite_integral(a, b)


@pytest.mark.parametrize("name", ["gauss_legendre2", "liu_park_gauss"])
def test_apply_on_interval_endpoints_equals_mapped_rule_sum(name):
    # the mapped rule's midpoint is (a + b)/2; apply_rule keeps that enclosure
    rule = make_rule(name)
    p = Polynomial([F(1, 3), -2, F(5, 7), 1])
    tiny = F(1, 10**40)
    a = Scalar.from_interval(F(-3, 4) - tiny, F(-3, 4) + tiny)
    b = Scalar.from_interval(F(1, 4) - tiny, F(1, 4) + tiny)
    h, mid = (b - a) / 2, (a + b) / 2
    terms = [w * h * p(mid + x * h) for x, w in rule.value_nodes]
    terms += [w * h * h * p.derivative()(mid + y * h) for y, w in rule.deriv_nodes]
    assert apply_rule(rule, p, a, b).bounds() == sum(terms, Scalar(0)).bounds()


def test_json_round_trip_rational_bit_exact():
    r = make_rule("mod3", x=F(5, 17), lam=F(3, 11))
    r2 = rule_from_json(rule_to_json(r))
    assert r2.name == r.name
    assert all(a == b and wa == wb for (a, wa), (b, wb) in zip(r2.value_nodes, r.value_nodes))
    assert r2.params["x"].as_fraction() == F(5, 17)
    assert r2.params["lambda"].as_fraction() == F(3, 11)


def test_json_round_trip_sqrt_nodes():
    r = make_rule("gauss_legendre2")
    r2 = rule_from_json(rule_to_json(r))
    assert all(a == b for (a, _), (b, _) in zip(r2.value_nodes, r.value_nodes))
    data = json.loads(rule_to_json(r))
    assert data["value_nodes"][1][0] == "1/3*sqrt(3)"


def test_json_round_trip_quadratic_field_weights():
    r = make_rule("mod3", x="sqrt(1/3)", lam=F(1, 2))
    data = json.loads(rule_to_json(r))
    assert [w for _, w in data["value_nodes"]] == ["1/2+1/6*sqrt(3)", "1", "1/2-1/6*sqrt(3)"]
    r2 = rule_from_json(rule_to_json(r))
    assert r2.value_nodes == r.value_nodes  # every node and weight equal exactly
    assert rule_to_json(r2) == rule_to_json(r)


@pytest.mark.parametrize("rule", ALL_FIXED, ids=lambda r: r.name)
def test_json_round_trip_every_catalog_rule_bit_exact(rule):
    r2 = rule_from_json(rule_to_json(rule))
    assert (r2.value_nodes, r2.deriv_nodes, r2.params) == (rule.value_nodes, rule.deriv_nodes,
                                                           rule.params)
    assert rule_to_json(r2) == rule_to_json(rule)


def test_json_import_rejects_nodes_outside_the_interval():
    with pytest.raises(ParamOutOfDomain):
        rule_from_json_dict({"name": "bad", "value_nodes": [["2", "1"]], "deriv_nodes": []})
    with pytest.raises(ParamOutOfDomain):
        rule_from_json_dict({"name": "bad", "value_nodes": [["0", "2"]],
                             "deriv_nodes": [["-3/2", "1"]]})


def test_json_import_normalizes_nodes():
    # unsorted nodes sort, coincident ones merge, exact-zero weights drop
    rule = rule_from_json_dict({
        "name": "n",
        "value_nodes": [["1/2", "1"], ["-1/2", "1/2"], ["1/2", "1/2"], ["0", "0"]],
        "deriv_nodes": [["1/3", "1"], ["-1/3", "0"]],
    })
    assert [(x.as_fraction(), w.as_fraction()) for x, w in rule.value_nodes] == [
        (F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2))]
    assert [(y.as_fraction(), w.as_fraction()) for y, w in rule.deriv_nodes] == [(F(1, 3), F(1))]


def test_nodes_closer_than_a_float_sort_exactly():
    # the two nodes have the same float; they are ordered by exact comparison
    near = F(1, 3) + F(1, 10**30)
    rule = custom_rule("t", [(near, 1), (F(1, 3), 1)])
    assert [x.as_fraction() for x, _ in rule.value_nodes] == [F(1, 3), near]


def _narrow(q, radius=F(1, 10**30)):
    return Scalar.from_interval(q - radius, q + radius)


def test_parameter_straddling_a_domain_end_has_no_order():
    with pytest.raises(AmbiguousOrder):
        make_rule("gs2", x=_narrow(F(0)))


def test_overlapping_interval_nodes_raise_and_identical_ones_merge():
    with pytest.raises(AmbiguousOrder):
        custom_rule("t", [(_narrow(F(1, 3)), 1), (F(1, 3), 1)])
    with pytest.raises(AmbiguousOrder):
        custom_rule("t", [(_narrow(F(1, 3)), 1), (_narrow(F(1, 3), F(1, 10**40)), 1)])
    x = _narrow(F(1, 3))
    rule = custom_rule("t", [(x, F(1, 2)), (-1, 1), (x, F(1, 2))])
    assert len(rule.value_nodes) == 2 and rule.value_nodes[1][0] is x
    assert rule.value_nodes[1][1].as_fraction() == 1


def test_json_round_trip_keeps_interval_data():
    x = _narrow(F(1, 3), F(1, 10**40))
    w = _narrow(F(1))
    rule = custom_rule("i", [(-x, w), (x, 1)], [(x, F(1, 7))], params={"x": x})
    data = json.loads(rule_to_json(rule))
    assert data["value_nodes"][1][0] == [str(e) for e in x.bounds()]
    r2 = rule_from_json(rule_to_json(rule))
    for (a, wa), (b, wb) in zip(rule.value_nodes + rule.deriv_nodes,
                                r2.value_nodes + r2.deriv_nodes):
        assert a.bounds() == b.bounds() and wa.bounds() == wb.bounds()
        assert a.is_exact == b.is_exact and wa.is_exact == wb.is_exact
    assert not r2.value_nodes[1][0].is_exact and r2.value_nodes[0][1].bounds() == w.bounds()
    assert r2.params["x"].bounds() == x.bounds() and not r2.params["x"].is_exact
    assert rule_to_json(r2) == rule_to_json(rule)


def test_catalog_listing_is_deterministic():
    names = catalog_names()
    assert names == catalog_names()
    assert "simpson" in names and "q44" in names and "lobatto4" in names


def test_family_domains():
    fam = family("gs2")
    assert str(fam.domain) == "(0, 1]"
    assert fam.generic_degree == 1
    with pytest.raises(ParamOutOfDomain):
        fam.build(0)
    fam = family("dcr", lam=F(1, 3))
    assert fam.domain.lo == F(-1, 2) and fam.domain.hi == F(1, 2)
    with pytest.raises(ParamOutOfDomain):
        family("dcr", lam=F(9, 10))  # empty node window


@pytest.mark.parametrize(
    "name,fixed",
    [
        ("gs2", {}),
        ("mod3", {"lam": F(1, 3)}),
        ("dcr", {"lam": F(1, 5)}),
        ("alomari4", {"lam": F(1, 6)}),
        ("liu_park", {}),
        # given out of catalog order; params must still follow the catalog
        ("q44", {"delta": F(-1, 4), "lam": F(1, 2), "gamma": F(1, 10)}),
    ],
)
def test_family_build_matches_make_rule(name, fixed):
    fam = family(name, **fixed)
    for x in (F(1, 3), sqrt(Scalar(F(1, 5)))):
        built, made = fam.build(x), make_rule(name, x=x, **fixed)
        assert rule_to_json(built) == rule_to_json(made)
        assert list(built.params.items()) == list(made.params.items())


def test_merged_degenerate_rules():
    # alomari4 at x = 1 collapses onto the trapezoid
    r = make_rule("alomari4", lam=F(1, 6), x=1)
    assert [(x.as_fraction(), w.as_fraction()) for x, w in r.value_nodes] == [
        (F(-1), F(1)),
        (F(1), F(1)),
    ]
    # liu_park at x = 0 drops its zero derivative weights
    r = make_rule("liu_park", x=0)
    assert r.deriv_nodes == ()
    assert [(x.as_fraction(), w.as_fraction()) for x, w in r.value_nodes] == [
        (F(-1), F(1, 2)),
        (F(0), F(1)),
        (F(1), F(1, 2)),
    ]
    # dragomir_sofo at x = 0 has no derivative term either
    assert make_rule("dragomir_sofo", x=0).deriv_nodes == ()
