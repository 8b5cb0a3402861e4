"""How tools/same_outputs.py classifies the outputs that differ, on small
synthetic dumps."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "same_outputs", Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def _scalar(text, tier="interval", bounds=None):
    return {"scalar": text, "tier": tier, "bounds": bounds or [text, text]}


def _interval(lo, hi):
    return _scalar(f"[{lo}, {hi}]", "interval", [lo, hi])


def test_each_kind_of_change_is_counted_once():
    old = {
        "op/same": {"value": _interval("1/3", "2/3"), "n": 4},
        "op/exact": [_scalar("1/90", "rational"), _scalar("1/2+1/3*sqrt(2)", "sqrt")],
        "op/tier": _scalar("1/7", "rational"),
        "op/narrower": {"values": [_interval("0", "1"), _interval("2", "4")]},
        "op/moved": _interval("0", "1"),
        "op/wider": _interval("1/4", "1/2"),
        "op/disjoint": _interval("0", "1/10"),
        "op/cli": [0, "M = 0.25\n", {"out.json": "{}"}],
    }
    new = {
        "op/same": {"value": _interval("1/3", "2/3"), "n": 4},
        "op/exact": [_scalar("1/91", "rational"), _scalar("1/2+1/3*sqrt(3)", "sqrt")],
        "op/tier": _interval("1/8", "1/6"),
        "op/narrower": {"values": [_interval("1/2", "1"), _interval("2", "3")]},
        "op/moved": _interval("1/2", "3/2"),
        "op/wider": _interval("0", "1"),
        "op/disjoint": _interval("1/5", "3/10"),
        "op/cli": [0, "M = 0.26\n", {"out.json": "{}"}],
    }
    counts = same_outputs.classify(old, new)
    assert counts == {"exact or tier changed": 3, "narrower": 2, "moved": 1, "wider": 1,
                      "disjoint": 1, "other": 1}
    assert same_outputs.classify(old, old) == {}


def test_an_enclosure_that_shrinks_to_a_point_inside_is_narrower_and_one_outside_disjoint():
    old = _interval("0", "1")
    assert same_outputs.classify(old, _interval("1/2", "1/2")) == {"narrower": 1}
    assert same_outputs.classify(old, _interval("1", "1")) == {"narrower": 1}  # the ends touch
    assert same_outputs.classify(old, _interval("2", "2")) == {"disjoint": 1}


def test_missing_ops_and_changed_shapes_count_as_other():
    old = {"a": [_interval("0", "1")], "b": 1}
    new = {"a": [_interval("0", "1"), _interval("0", "1")], "c": 1}
    assert same_outputs.classify(old, new) == {"other": 3}


def test_the_summary_keeps_its_leading_counts():
    counts = same_outputs.classify({"x": _interval("0", "1")}, {"x": _interval("0", "1/2")})
    line = same_outputs.summary(1, 826, 0, 4, counts)
    assert line.startswith("1 of 826 ops differ, 0 of 4 demos differ; ")
    assert line.endswith("Scalars: 0 exact or tier changed, 1 narrower, 0 moved, 0 wider, "
                         "0 disjoint; 0 other values differ")


def test_the_direct_calls_have_their_own_summary_line():
    counts = same_outputs.classify({"x": _interval("0", "1")}, {"x": _interval("0", "2")})
    assert same_outputs.direct_summary(1, 291, counts) == (
        "1 of 291 direct calls differ; Scalars: 0 exact or tier changed, 0 narrower, 0 moved, "
        "1 wider, 0 disjoint; 0 other values differ")


def test_the_direct_calls_cover_each_parameter_free_rule_at_each_precision():
    import peanoquad as pq

    out = same_outputs.direct_outputs(pq)
    assert pq.get_working_dps() == 60
    free = ["simpson", "gauss_legendre2", "radau2", "lobatto4", "liu_park_gauss"]
    for dps in same_outputs.DIRECT_DPS:
        for label in free + ["gs2@1/2+-1e-40", "gs2@sqrt(1/3)+-1e-50", "interval_simpson",
                             "interval_double_node"]:
            report = out[f"direct/dps{dps}/{label}/exactness"]
            for r in range(report["degree"] + 1):
                assert "m" in out[f"direct/dps{dps}/{label}/M{r}"]
                assert len(out[f"direct/dps{dps}/{label}/identity{r}/1"]) == 2
    assert out["direct/dps20/lobatto4/M1"]["m"]["tier"] == "interval"
    # the scans, minimizers and root windows, once, at LANE_DPS
    lanes = sorted(key for key in out
                   if not key.startswith(("direct/dps", "direct/r0/", "direct/composite/")))
    assert lanes == sorted([f"direct/alomari4@{lam}/{call}{r}" for lam in ("sqrt(1/20)", "1/5+-1e-40")
                            for call in ("scan", "minimize") for r in (0, 1)]
                           + ["direct/window(0,e)", "direct/window(-e,0)", "direct/window(e,1)",
                              "direct/interval-window(0,e)", "direct/interval-window(e,1)"]
                           + [f"direct/roots/{label}" for label in (
                               "53t(t2-6t+3)(t-5)2(-1,1)", "53t(t2-6t+3)(t-5)2(0,1)",
                               "t3-6t2+3t(-1,1)", "(10t2-10t+3)(t+5)(0,1)")])
    assert not any("raised" in out[key] for key in lanes if isinstance(out[key], dict))
    assert out["direct/alomari4@1/5+-1e-40/minimize0"]["x"]["scalar"] == "2/5"
    assert len(out["direct/alomari4@sqrt(1/20)/scan1"]["grid"]) == 9
    # the r = 0 bound functions of the families the tests scan, each at its
    # closed domain ends and switch points, and one narrow-window scan
    from util import SCAN_FAMILIES

    assert [(name, fixed) for name, fixed, _ in same_outputs.R0_FAMILIES] == SCAN_FAMILIES
    points = {key: out[key] for key in out if key.startswith("direct/r0/") and "scan" not in key}
    assert len(points) == 15 and sum(map(len, points.values())) == 81
    assert points["direct/r0/liu_park"]["1/2"]["signature"] == [0, 1, 0]
    assert points["direct/r0/ostrowski"]["-1"]["value"]["scalar"] == "2"
    assert out["direct/r0/liu_park/scan[49/100,51/100]"]["branch_points"][0]["scalar"] == "1/2"
    # composite sums of math.exp at sqrt(3) and interval ends, and at liu_park_gauss's double nodes
    composite = {key: out[key] for key in out if key.startswith("direct/composite/")}
    assert len(composite) == 22 and not any("raised" in v for v in composite.values())
    assert composite["direct/composite/gauss_legendre2@sqrt3/n7"]["value"]["tier"] == "sqrt"
    assert composite["direct/composite/simpson@interval/n1"]["value"]["tier"] == "interval"
    assert len(out) == 346
    assert out == same_outputs.direct_outputs(pq)
