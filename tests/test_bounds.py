"""Bound functions vs closed forms, minimizers, box bound, partition bound."""

import csv
import dataclasses
import json
import random
from fractions import Fraction as F

import mpmath
import pytest

from peanoquad import (
    AmbiguousOrder,
    BadInterval,
    BoxDomain,
    InvalidPartition,
    OrderExceedsExactness,
    ParamOutOfDomain,
    PointOutsideBox,
    Scalar,
    alomari4_min_m0,
    bound_scan,
    composite_partition_bound,
    error_bound,
    export_scan_csv,
    export_scan_json,
    family,
    kernel_l1_norm,
    make_rule,
    minimize_bound,
    multidim_ostrowski_bound,
    sqrt,
)
from util import assert_scalar_equals


def m_of(name, r, x=None, **fixed):
    params = dict(fixed)
    if x is not None:
        params["x"] = x
    return kernel_l1_norm(make_rule(name, **params), r).l1_norm


def mpf_(q):
    return mpmath.mpf(q.numerator) / q.denominator


# ---------------------------------------------------------------------------
# closed-form bound functions, exact rational points on every branch


@pytest.mark.parametrize("x", [F(-3, 4), F(-1, 4), F(0), F(2, 5), F(9, 10)])
def test_one_point_rule_bound(x):
    assert m_of("ostrowski", 0, x).as_fraction() == 1 + x * x


@pytest.mark.parametrize("x", [F(-1, 2), F(-1, 5), F(0), F(1, 4), F(3, 5)])
def test_three_point_fixed_end_bounds(x):
    assert m_of("mp3", 0, x).as_fraction() == F(1, 2) * (1 + x * x)
    assert m_of("mp3", 1, x).as_fraction() == F(1, 6) * (1 + 3 * x * x)


def _mod3_m0(x):
    if x < F(1, 3):
        return (9 * x**6 + 3 * x**4 - x**2 + 5) / (9 * (1 - x**2) ** 2)
    return (3 * x**2 + 3 * x + 2) ** 2 / (9 * (1 + x) ** 2)


def _mod3_m1(x):
    if x < F(1, 3):
        return 8 * (1 - 3 * x**2) * (3 * x**2 + 1) ** 2 / (81 * (1 - x**2) ** 3)
    return 4 * (3 * x + 1) ** 3 / (81 * (1 + x) ** 3)


def _mod3_m2(x):
    if x < F(1, 3):
        return (8 * x**5 + 49 * x**4 - 60 * x**3 + 22 * x**2 - 4 * x + 1) / (36 * (1 - x) ** 4)
    return 2 * x / 9


@pytest.mark.parametrize(
    "x", [F(0), F(1, 10), F(1, 5), F(1, 4), F(3, 10),      # inner branch
          F(1, 3), F(2, 5), F(1, 2), F(2, 3), F(4, 5)]     # outer branch
)
def test_optimal_three_point_bounds_both_branches(x):
    assert m_of("mod3_opt", 0, x).as_fraction() == _mod3_m0(x)
    assert m_of("mod3_opt", 1, x).as_fraction() == _mod3_m1(x)
    assert m_of("mod3_opt", 2, x).as_fraction() == _mod3_m2(x)


@pytest.mark.parametrize("x", [F(1, 10), F(1, 5), F(3, 10), F(2, 5), F(1, 2)])
def test_mod3_opt_bounds_even_in_x(x):
    for r in range(3):
        assert m_of("mod3_opt", r, x).as_fraction() == m_of("mod3_opt", r, -x).as_fraction()


@pytest.mark.parametrize(
    "lam,x",
    [(F(1, 4), F(1, 5)), (F(1, 3), F(1, 8)), (F(1, 2), F(1, 10)),
     (F(2, 5), F(-1, 4)), (F(1, 10), F(1, 2))],
)
def test_endpoint_interior_blend_bound(lam, x):
    want = lam**2 + (1 - lam) ** 2 + x**2
    assert m_of("dcr", 0, x, lam=lam).as_fraction() == want


@pytest.mark.parametrize("x", [F(1, 10), F(3, 10), F(1, 2), F(7, 10), F(1)])
def test_symmetric_two_point_m0(x):
    assert m_of("gs2", 0, x).as_fraction() == 1 - 2 * x + 2 * x**2


@pytest.mark.parametrize("x", [F(1, 10), F(1, 5), F(3, 10), F(2, 5), F(1, 2)])
def test_symmetric_two_point_m1_inner_branch(x):
    assert m_of("gs2", 1, x).as_fraction() == F(1, 3) - x**2


@pytest.mark.parametrize("x", [F(3, 5), F(7, 10), F(3, 4), F(4, 5), F(1)])
def test_symmetric_two_point_m1_outer_branch(x):
    got = m_of("gs2", 1, x)
    want = (4 * mpf_(2 * x - 1) ** mpmath.mpf("1.5") + 1 - 3 * mpf_(x) ** 2) / 3
    assert abs(float(got) - float(want)) <= 1e-12


@pytest.mark.parametrize("x", [F(-3, 4), F(-1, 2), F(-1, 4), F(-1, 10), F(0)])
def test_fixed_endpoint_rule_bounds_left_branch(x):
    assert m_of("franjic", 0, x).as_fraction() == (1 - x) ** 2
    assert m_of("franjic", 1, x).as_fraction() == F(1, 3) * (1 - 3 * x)


@pytest.mark.parametrize("x", [F(1, 5), F(1, 3), F(1, 2), F(7, 10), F(1)])
def test_fixed_endpoint_rule_bounds_right_branch(x):
    assert m_of("franjic", 0, x).as_fraction() == (1 + x**2) ** 2 / (1 + x) ** 2
    want = (1 - 6 * x**2 + 24 * x**3 - 3 * x**4) / (3 * (x + 1) ** 3)
    assert m_of("franjic", 1, x).as_fraction() == want


@pytest.mark.parametrize("x", [F(1, 10), F(1, 4), F(2, 5), F(3, 5), F(7, 10)])
def test_four_point_symmetric_m0_inner(x):
    lam = F(1, 5)
    want = lam**2 + x**2 + (1 - lam - x) ** 2
    assert m_of("alomari4", 0, x, lam=lam).as_fraction() == want


@pytest.mark.parametrize("x", [F(81, 100), F(17, 20), F(9, 10), F(19, 20), F(99, 100)])
def test_four_point_symmetric_m0_outer(x):
    lam = F(1, 5)
    want = 2 * x * (1 - lam) + 2 * lam - 1
    assert m_of("alomari4", 0, x, lam=lam).as_fraction() == want


@pytest.mark.parametrize(
    "lam,x",
    [(F(1, 2), F(1, 5)), (F(1, 2), F(3, 5)), (F(3, 5), F(2, 5)),
     (F(3, 4), F(1, 2)), (F(9, 10), F(4, 5))],
)
def test_four_point_symmetric_m1_large_lambda(lam, x):
    want = (1 - lam) * x**2 + lam - F(1, 3)
    assert m_of("alomari4", 1, x, lam=lam).as_fraction() == want


@pytest.mark.parametrize("x", [F(1, 10), F(1, 5), F(1, 4), F(3, 10), F(3, 8)])
def test_four_point_symmetric_m1_fifth_branch1(x):
    assert m_of("alomari4", 1, x, lam=F(1, 5)).as_fraction() == F(58, 375) - F(4, 5) * x**2


@pytest.mark.parametrize("x", [F(2, 5), F(9, 20), F(1, 2), F(11, 20), F(23, 40)])
def test_four_point_symmetric_m1_fifth_branch2(x):
    got = m_of("alomari4", 1, x, lam=F(1, 5))
    want = 2 * (29 - 150 * mpf_(x) ** 2
                + 10 * mpmath.sqrt(5) * mpf_(8 * x - 3) ** mpmath.mpf("1.5")) / 375
    assert abs(float(got) - float(want)) <= 1e-12


@pytest.mark.parametrize("x", [F(3, 5), F(7, 10), F(4, 5), F(9, 10), F(19, 20)])
def test_four_point_symmetric_m1_fifth_branch3(x):
    assert m_of("alomari4", 1, x, lam=F(1, 5)).as_fraction() == F(2, 15) * (6 * x**2 - 1)


@pytest.mark.parametrize("x", [F(1, 10), F(1, 5), F(1, 4), F(3, 10), F(2, 5)])
def test_double_node_m0_inner(x):
    assert m_of("liu_park", 0, x).as_fraction() == F(1, 2) - x + 2 * x**2


@pytest.mark.parametrize("x", [F(1, 2), F(3, 5), F(7, 10), F(4, 5), F(9, 10)])
def test_double_node_m0_outer(x):
    assert m_of("liu_park", 0, x).as_fraction() == x


@pytest.mark.parametrize("x", [F(1, 10), F(3, 10), F(1, 2), F(7, 10), F(9, 10)])
def test_double_node_m1(x):
    assert m_of("liu_park", 1, x).as_fraction() == F(1, 6) * (1 - 3 * x**2 + 4 * x**3)


# ---------------------------------------------------------------------------
# minimizers


def test_symmetric_two_point_minimizers():
    res = minimize_bound(family("gs2"), 0)
    assert not res.multimodal_suspected
    assert abs(float(res.x) - 0.5) <= 1e-9
    assert_scalar_equals(res.value, Scalar(F(1, 2)), tol=1e-12)

    res = minimize_bound(family("gs2"), 1)
    x_star = 4 - 2 * mpmath.sqrt(3)
    v_star = 7 - 4 * mpmath.sqrt(3)
    assert abs(float(res.x) - float(x_star)) <= 1e-9
    assert abs(float(res.value) - float(v_star)) <= 1e-12


def test_fixed_endpoint_minimizers():
    res = minimize_bound(family("franjic"), 0)
    assert abs(float(res.x) - float(mpmath.sqrt(2) - 1)) <= 1e-9
    assert abs(float(res.value) - float(12 - 8 * mpmath.sqrt(2))) <= 1e-12

    res = minimize_bound(family("franjic"), 1)
    x_star = 2 * mpmath.sqrt(2) - 1 - 2 * mpmath.sqrt(2 - mpmath.sqrt(2))
    v_star = mpmath.mpf(4) / 3 * (5 - 3 * mpmath.sqrt(2) - 2 * mpmath.sqrt(10 - 7 * mpmath.sqrt(2)))
    assert abs(float(v_star) - 0.164412) < 1e-6  # sanity on the reference itself
    assert abs(float(res.x) - float(x_star)) <= 1e-9
    assert abs(float(res.value) - float(v_star)) <= 1e-9


def test_double_node_minimizers():
    res = minimize_bound(family("liu_park"), 0)
    assert abs(float(res.x) - 0.25) <= 1e-9
    assert_scalar_equals(res.value, Scalar(F(3, 8)), tol=1e-12)

    res = minimize_bound(family("liu_park"), 1)
    assert abs(float(res.x) - 0.5) <= 1e-9
    assert_scalar_equals(res.value, Scalar(F(1, 8)), tol=1e-12)


@pytest.mark.parametrize("lam", [F(1, 6), F(1, 3), F(1, 2)])
def test_four_point_symmetric_m0_closed_form_minimum(lam):
    x_star, value = alomari4_min_m0(lam)
    assert x_star.as_fraction() == (1 - lam) / 2
    assert value.as_fraction() == (3 * lam**2 - 2 * lam + 1) / 2
    numeric = minimize_bound(family("alomari4", lam=lam), 0)
    assert abs(float(numeric.value - value)) <= 1e-12


def test_four_point_m0_minimum_is_smallest_at_third():
    _, value = alomari4_min_m0(F(1, 3))
    assert value.as_fraction() == F(1, 3)
    # substitution at lambda = 1/5: ((1-1/5)/2, (3/25 - 2/5 + 1)/2) = (2/5, 9/25)
    x_star, value = alomari4_min_m0(F(1, 5))
    assert (x_star.as_fraction(), value.as_fraction()) == (F(2, 5), F(9, 25))
    numeric = minimize_bound(family("alomari4", lam=F(1, 5)), 0)
    assert abs(float(numeric.value - value)) <= 1e-12


def test_alomari4_min_m0_domain():
    with pytest.raises(ParamOutOfDomain):
        alomari4_min_m0(0)
    with pytest.raises(ParamOutOfDomain):
        alomari4_min_m0(1)


def test_minimum_is_locally_minimal():
    for fam, r in [(family("gs2"), 1), (family("liu_park"), 0), (family("franjic"), 1)]:
        res = minimize_bound(fam, r)
        assert not res.multimodal_suspected
        eps = F(1, 10**6)
        xf = res.x.as_fraction()
        for probe in (xf - eps, xf + eps):
            if fam.domain.contains(probe):
                probe_val = kernel_l1_norm(fam.build(Scalar(probe)), r).l1_norm
                assert float(probe_val) >= float(res.value) - 1e-11


CRITERION_5_CASES = [("gs2", 0), ("gs2", 1), ("franjic", 0), ("franjic", 1),
                     ("liu_park", 0), ("liu_park", 1)]
# kernel_l1_norm calls made after the grid and the branch-point bisection,
# summed over CRITERION_5_CASES, by the golden-section search this search
# replaced (counted the same way)
GOLDEN_SECTION_CALLS = 735


def test_minimizer_search_needs_few_kernel_passes(monkeypatch):
    import peanoquad.bounds as bounds

    searching, calls = [False], [0]
    kernel, search = bounds.kernel_l1_norm, bounds._slope_min

    def counted(*args, **kwargs):
        calls[0] += searching[0]
        return kernel(*args, **kwargs)

    def flagged(*args):
        searching[0] = True
        return search(*args)

    monkeypatch.setattr(bounds, "kernel_l1_norm", counted)
    monkeypatch.setattr(bounds, "_slope_min", flagged)
    for name, r in CRITERION_5_CASES:
        searching[0] = False
        minimize_bound(family(name), r)
    assert 4 * calls[0] <= GOLDEN_SECTION_CALLS, calls[0]


def test_tolerance_is_compared_exactly():
    # float(1e-400) is 0: the tolerance must stay an exact rational
    tiny = F(1, 10**400)
    res = minimize_bound(family("gs2"), 0, tol=tiny)
    assert res.x == Scalar(F(1, 2)) and res.value == Scalar(F(1, 2))
    # M_1' is exact in Q(sqrt(2x-1)), so the sign-change bracket shrinks
    # below 1e-400 around 4 - 2 sqrt(3)
    res = minimize_bound(family("gs2"), 1, tol=tiny)
    assert res.x.is_rational and not res.multimodal_suspected
    assert abs(res.x - (4 - 2 * sqrt(Scalar(3)))).lt_definite(Scalar(tiny))
    for bad in (0, F(-1, 10**12)):
        with pytest.raises(ValueError, match="tol must be positive"):
            minimize_bound(family("gs2"), 0, tol=bad)
        with pytest.raises(ValueError, match="refine_tol must be positive"):
            bound_scan(family("gs2"), 0, grid_size=5, refine_tol=bad)


# ---------------------------------------------------------------------------
# scans: branch points and export


def test_scan_finds_branch_points_of_three_point_family():
    fam = family("mod3_opt")
    for r in (0, 1, 2):
        scan = bound_scan(fam, r, grid_size=41, lo=F(1, 100), hi=F(4, 5))
        assert any(abs(float(b) - 1 / 3) < 1e-6 for b in scan.branch_points), r
        assert Scalar(F(1, 3)) in scan.branch_points, r


def test_scan_finds_branch_points_of_fifth_lambda_family():
    scan = bound_scan(family("alomari4", lam=F(1, 5)), 1,
                      grid_size=41, lo=F(1, 100), hi=F(9, 10))
    kinks = [float(b) for b in scan.branch_points]
    assert any(abs(b - 0.375) < 1e-6 for b in kinks)
    assert any(abs(b - 0.6) < 1e-6 for b in kinks)
    assert Scalar(F(3, 8)) in scan.branch_points
    assert Scalar(F(3, 5)) in scan.branch_points


def test_scan_invariants_and_minimizer():
    scan = bound_scan(family("gs2"), 1, grid_size=41)
    assert all(float(v) >= 0 for v in scan.values)
    x, v = scan.minimizer
    assert float(v) <= min(float(val) for val in scan.values)
    assert abs(float(x) - float(4 - 2 * mpmath.sqrt(3))) < 1e-9
    assert len(scan.grid) == 41


def test_scan_smooth_bound_reports_only_edge_degeneracies():
    # the one-point rule bound 1 + x^2 is smooth; the only structure changes
    # are the node colliding with an interval end at x = +-1
    scan = bound_scan(family("ostrowski"), 0, grid_size=21)
    assert all(abs(abs(float(b)) - 1.0) < 1e-6 for b in scan.branch_points)
    assert scan.branch_points == (Scalar(-1), Scalar(1))
    assert abs(float(scan.minimizer[0])) < 1e-9
    assert float(scan.minimizer[1]) == 1.0


def test_scan_rejects_too_high_order():
    with pytest.raises(OrderExceedsExactness):
        bound_scan(family("gs2"), 2, grid_size=11)


def test_scan_window_validation():
    with pytest.raises(ParamOutOfDomain):
        bound_scan(family("gs2"), 0, grid_size=11, lo=F(2), hi=F(3))


def test_scan_export(tmp_path):
    scan = bound_scan(family("alomari4", lam=F(1, 5)), 1,
                      grid_size=21, lo=F(1, 100), hi=F(9, 10))
    csv_path = tmp_path / "scan.csv"
    json_path = tmp_path / "scan.json"
    export_scan_csv(scan, csv_path)
    export_scan_json(scan, json_path)
    rows = list(csv.reader(open(csv_path)))
    assert rows[0] == ["x", "M1", "branch_id"]
    assert len(rows) == 22
    branch_ids = [int(r[2]) for r in rows[1:]]
    assert branch_ids == sorted(branch_ids)
    assert branch_ids[-1] == len(scan.branch_points)
    data = json.loads(json_path.read_text())
    assert data["family"] == "alomari4(lambda=1/5)"
    assert len(data["branch_points"]) == len(scan.branch_points)


def _bisect_locate(sig, a, b, tol):
    """Reference branch-point search: bisect every change down to a bracket
    no wider than tol and return its midpoint."""
    sig_a = sig(a)
    while b - a > tol:
        m = (a + b) / 2
        if sig(m) == sig_a:
            a = m
        else:
            b = m
    return (a + b) / 2


# every family with a free node x; the parameters of the others are those
# the family_scan benchmark pins with seeds 1 and 5
SCAN_FAMILIES = [
    ("ostrowski", {}), ("mp3", {}), ("mod3_opt", {}), ("gs2", {}), ("franjic", {}),
    ("liu_park", {}), ("dragomir_sofo", {}),
    ("mod3", {"lam": F(9, 19)}), ("mod3", {"lam": F(7, 17)}),
    ("dcr", {"lam": F(2, 7)}), ("dcr", {"lam": F(17, 60)}),
    ("alomari4", {"lam": F(9, 43)}), ("alomari4", {"lam": F(3, 16)}),
    ("q44", {"lam": F(1, 5), "gamma": F(1, 32), "delta": F(5, 53)}),
    ("q44", {"lam": F(13, 53), "gamma": F(2, 57), "delta": F(3, 25)}),
]


@pytest.mark.parametrize("name,fixed", SCAN_FAMILIES)
def test_branch_points_agree_with_the_bisection_reference(name, fixed, monkeypatch):
    import peanoquad.bounds as bounds

    fam = family(name, **fixed)
    for r in range(fam.generic_degree + 1):
        got = bound_scan(fam, r, grid_size=33)
        with monkeypatch.context() as m:
            m.setattr(bounds, "_locate_signature_change", _bisect_locate)
            ref = bound_scan(fam, r, grid_size=33)
        assert len(got.branch_points) == len(ref.branch_points), (name, r)
        for k, k_ref in zip(got.branch_points, ref.branch_points):
            assert abs(k.as_fraction() - k_ref.as_fraction()) <= F(1, 10**9), (name, r)
        assert [v.to_json_str() for v in got.values] == [v.to_json_str() for v in ref.values]
        assert ([v.to_json_str() for v in got.minimizer]
                == [v.to_json_str() for v in ref.minimizer]), (name, r)
        assert got.multimodal_suspected == ref.multimodal_suspected


def test_branch_points_on_grid_points_are_exact():
    def points(name, r, **kw):
        return bound_scan(family(name), r, grid_size=33, **kw).branch_points

    assert points("liu_park", 0) == (Scalar(0), Scalar(F(1, 2)), Scalar(1))
    assert points("ostrowski", 0) == (Scalar(-1), Scalar(1))
    assert Scalar(F(1, 2)) in points("gs2", 1)
    # x = 0 is seen from both neighbouring cells and reported once
    assert points("dragomir_sofo", 1) == (Scalar(-1), Scalar(0), Scalar(1))
    assert points("mod3_opt", 2) == (Scalar(F(-1, 3)), Scalar(0), Scalar(F(1, 3)))


# kernel passes of the branch-point search over the scans below on 33
# points, counted the same way, when every change was bisected to 1e-9: 693
# in 27 searches, 641 of them for the 25 changes on a grid point
GRID_POINT_SCANS = [("ostrowski", 0), ("gs2", 0), ("gs2", 1), ("franjic", 0), ("franjic", 1),
                    ("liu_park", 0), ("liu_park", 1), ("dragomir_sofo", 0),
                    ("dragomir_sofo", 1), ("mod3_opt", 2)]


def test_grid_point_branch_points_need_few_kernel_passes(monkeypatch):
    import peanoquad.bounds as bounds

    calls = [0]
    kernel, locate = bounds.kernel_l1_norm, bounds._locate_signature_change
    on_grid, passes = [], []

    def counted(*args, **kwargs):
        calls[0] += 1
        return kernel(*args, **kwargs)

    def located(sig, a, b, tol):
        before = calls[0]
        k = locate(sig, a, b, tol)
        passes.append(calls[0] - before)
        on_grid.append(k in (a, b))
        return k

    monkeypatch.setattr(bounds, "kernel_l1_norm", counted)
    monkeypatch.setattr(bounds, "_locate_signature_change", located)
    for name, r in GRID_POINT_SCANS:
        bound_scan(family(name), r, grid_size=33)
    assert sum(on_grid) >= 20
    assert all(n <= 2 for n, hit in zip(passes, on_grid) if hit), passes
    assert 5 * sum(passes) <= 693, sum(passes)


def test_narrow_scan_window_is_never_probed_outside_a_cell(monkeypatch):
    import peanoquad.bounds as bounds

    locate = bounds._locate_signature_change
    probes = []

    def located(sig, a, b, tol):
        def watched(x):
            probes.append((a, x, b))
            return sig(x)

        return locate(watched, a, b, tol)

    monkeypatch.setattr(bounds, "_locate_signature_change", located)
    # liu_park r = 0 switches branch at 1/2, inside a window of width 1e-9
    lo, hi = F(1, 2) - F(3, 10**10), F(1, 2) + F(7, 10**10)
    scan = bound_scan(family("liu_park"), 0, grid_size=5, lo=lo, hi=hi)
    assert probes and all(a <= x <= b for a, x, b in probes)
    [k] = scan.branch_points
    assert lo < k.as_fraction() < hi
    assert abs(k.as_fraction() - F(1, 2)) <= F(1, 10**9)


def test_scan_csv_branch_ids_are_exact(tmp_path):
    # branch points 0, 1/2 and 1 sit on the grid: a grid point's id counts
    # the branch points strictly below it
    scan = bound_scan(family("liu_park"), 0, grid_size=33)
    path = tmp_path / "scan.csv"
    export_scan_csv(scan, path)
    ids = [int(row[2]) for row in list(csv.reader(open(path)))[1:]]
    assert ids == [0] + [1] * 16 + [2] * 16
    # a branch point a float cannot tell from the grid point 1/2
    tiny = F(1, 10**30)
    moved = dataclasses.replace(scan, branch_points=(Scalar(F(1, 2) - tiny),))
    export_scan_csv(moved, path)
    ids = [int(row[2]) for row in list(csv.reader(open(path)))[1:]]
    assert ids == [0] * 16 + [1] * 17


# ---------------------------------------------------------------------------
# error_bound scaling, box bound, partition bound


def test_error_bound_examples():
    assert error_bound(make_rule("simpson"), 3, 1).as_fraction() == F(1, 90)
    assert error_bound(make_rule("ostrowski", x=F(1, 2)), 0, 1).as_fraction() == F(5, 4)
    assert error_bound(make_rule("gs2", x=F(1, 2)), 1, 0).as_fraction() == 0


def test_error_bound_scaling_on_half_interval():
    # Simpson mapped to [0, 1]: h = 1/2, bound (1/90) h^5
    got = error_bound(make_rule("simpson"), 3, 1, 0, 1)
    assert got.as_fraction() == F(1, 90) * F(1, 32)


def test_error_bound_bad_interval():
    with pytest.raises(BadInterval):
        error_bound(make_rule("simpson"), 3, 1, 1, 0)


def test_error_bound_rejects_negative_deriv_sup():
    with pytest.raises(ValueError, match="deriv_sup"):
        error_bound(make_rule("simpson"), 3, -5, 0, 1)


def test_error_bound_rejects_deriv_sup_straddling_zero():
    with pytest.raises(ValueError, match="deriv_sup"):
        error_bound(make_rule("simpson"), 3, Scalar.from_interval(F(-1, 2), F(1)), 0, 1)


def test_box_rejects_a_derivative_bound_not_provably_positive():
    with pytest.raises(AmbiguousOrder):
        BoxDomain.of([(0, 1)], [Scalar.from_interval(F(-1, 2), F(1))])


def test_multidim_bound_examples():
    box = BoxDomain.of([(-1, 1)], [1])
    assert multidim_ostrowski_bound(box, [0]).as_fraction() == F(1, 2)
    box2 = BoxDomain.of([(0, 1), (0, 1)], [1, 1])
    assert multidim_ostrowski_bound(box2, [0, 0]).as_fraction() == 1
    with pytest.raises(PointOutsideBox):
        multidim_ostrowski_bound(box2, [2, 0])


def test_multidim_reduces_to_one_point_rule_bound():
    rng = random.Random(777)
    for _ in range(20):
        a = F(rng.randint(-20, 0), rng.randint(1, 7))
        b = a + F(rng.randint(1, 30), rng.randint(1, 7))
        m = F(rng.randint(1, 9), rng.randint(1, 9))
        x = a + (b - a) * F(rng.randint(0, 16), 16)
        u = (2 * x - a - b) / (b - a)  # canonical coordinate of x
        box = BoxDomain.of([(a, b)], [m])
        lhs = multidim_ostrowski_bound(box, [x])
        rhs = error_bound(make_rule("ostrowski", x=u), 0, m, a, b) / Scalar(b - a)
        assert lhs.as_fraction() == rhs.as_fraction()


def test_partition_bound_examples():
    # uniform n panels with midpoints: (M/2) n 2 (1/2n)^2 = 1/(4n)
    for n in (1, 2, 5, 8):
        parts = [F(k, n) for k in range(n + 1)]
        mids = [F(2 * k + 1, 2 * n) for k in range(n)]
        assert composite_partition_bound(parts, mids, 1).as_fraction() == F(1, 4 * n)
    assert composite_partition_bound([0, 1], [0], 1).as_fraction() == F(1, 2)
    assert composite_partition_bound([0, 1], [F(1, 2)], 1).as_fraction() == F(1, 4)


def test_partition_bound_validation():
    with pytest.raises(InvalidPartition):
        composite_partition_bound([0, F(1, 2)], [F(1, 4)], 1)
    with pytest.raises(InvalidPartition):
        composite_partition_bound([0, F(1, 2), F(1, 2), 1], [0, F(1, 2), 1], 1)
    with pytest.raises(InvalidPartition):
        composite_partition_bound([0, F(1, 2), 1], [F(3, 4), F(3, 4)], 1)


def test_gauss_node_family_value_matches_fixed_rule():
    # scanning families across their special nodes stays consistent
    got = m_of("gs2", 1, F(577, 1000))  # near 1/sqrt(3), still degree 1
    assert got.is_rational or float(got) > 0
    fixed = kernel_l1_norm(make_rule("gauss_legendre2"), 1).l1_norm
    want = (4 * (2 / mpmath.sqrt(3) - 1) ** mpmath.mpf("1.5") + 1 - 3 / mpmath.mpf(3)) / 3
    assert abs(float(fixed) - float(want)) <= 1e-12
