"""Bound functions vs closed forms, minimizers, box bound, partition bound."""

import csv
import dataclasses
import json
import random
from collections import Counter
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
from peanoquad._qpoly import abs_integral
from peanoquad.polynomials import Polynomial
from peanoquad.scalars import _Dual, _dual, _quad
from util import SCAN_FAMILIES, assert_scalar_equals, reference_signature


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
    kernel, form_sum, search = bounds._kernel_l1, bounds.l1_sum, bounds._slope_min

    def counted(*args):  # the sum of a kernel pass on a built rule
        calls[0] += searching[0]
        return kernel(*args)

    def counted_form_sum(*args):  # an integer pass is counted as a kernel pass
        calls[0] += searching[0]
        return form_sum(*args)

    def flagged(*args):
        searching[0] = True
        return search(*args)

    monkeypatch.setattr(bounds, "_kernel_l1", counted)
    monkeypatch.setattr(bounds, "l1_sum", counted_form_sum)
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


@pytest.mark.parametrize("grid_size", [3, 4])
def test_zero_slope_domain_end_is_searched(grid_size):
    # M_1 = (1 - 3x^2 + 4x^3)/6 has M_1'(0) = 0 at its local maximum x = 0
    scan = bound_scan(family("liu_park"), 1, grid_size=grid_size)
    x, v = scan.minimizer
    assert (x.as_fraction(), v.as_fraction()) == (F(1, 2), F(1, 8))
    assert not scan.multimodal_suspected


def _poly_slope(*coeffs):
    """slope(x) = (M(x), M'(x)) for M with these rational coefficients, lowest first."""
    def slope(x):
        m = sum(c * x**k for k, c in enumerate(coeffs))
        dm = sum(k * c * x ** (k - 1) for k, c in enumerate(coeffs) if k)
        return Scalar(m), Scalar(dm)

    return slope


@pytest.mark.parametrize("coeffs,want", [
    ((0, 0, F(-1, 6), F(1, 3)), (F(1, 3), F(-1, 162))),  # M' = x(x - 1/3): zero at a, interior min
    ((0, 0, 1), (F(0), F(0))),  # M' = 2x: zero at a, the minimum
    ((0, F(-1, 3), F(2, 3), F(-1, 3)), (F(1, 3), F(-4, 81))),  # M' = (x - 1/3)(1 - x): zero at b
    ((0, 0, F(-1, 2), F(1, 3)), (F(1), F(-1, 6))),  # M' = x(x - 1): zero at both ends
])
def test_slope_min_searches_from_zero_slope_ends(coeffs, want):
    from peanoquad.bounds import _slope_min

    tol = F(1, 10**12)
    x, v = _slope_min(_poly_slope(*coeffs), F(0), F(1), tol)
    assert abs(x - want[0]) <= tol
    assert v == _poly_slope(*coeffs)(x)[0]
    assert abs(v.as_fraction() - want[1]) <= tol


@pytest.mark.parametrize("x,flagged", [(F(1, 2) + F(1, 10**12), False), (F(9, 10), True)])
def test_multimodal_flag_is_for_a_grid_minimizer_away_from_the_search(x, flagged, monkeypatch):
    import peanoquad.bounds as bounds

    # gs2 M_0 = 2(x - 1/2)^2 + 1/2 has its minimizer 1/2 on the grid: a
    # search result 1e-12 away is next to it, 9/10 is not
    fam = family("gs2")
    fn = bounds._bound_fn(fam, 0)[0]
    monkeypatch.setattr(bounds, "_slope_min", lambda slope, a, b, tol: (x, fn(x)))
    scan = bound_scan(fam, 0, grid_size=11)
    assert [s.as_fraction() for s in scan.minimizer] == [F(1, 2), F(1, 2)]
    assert scan.multimodal_suspected is flagged


def test_minimize_bound_flags_a_lower_probe(monkeypatch):
    import peanoquad.bounds as bounds

    fam, scan = family("gs2"), bounds.bound_scan
    point = Scalar(F(3, 5)), bounds._bound_fn(fam, 0)[0](F(3, 5))
    monkeypatch.setattr(bounds, "bound_scan",
                        lambda *a, **k: dataclasses.replace(scan(*a, **k), minimizer=point))
    res = minimize_bound(fam, 0)
    assert (res.x, res.value) == point and res.multimodal_suspected


def test_scan_window_ends_are_exact_rationals():
    fam = family("gs2")
    assert bound_scan(fam, 0, grid_size=5, lo=0.1).grid[0].as_fraction() == F(0.1)
    for end in (sqrt(Scalar(2)) / 4, Scalar.from_interval(F(1, 5), F(1, 4))):
        with pytest.raises(ValueError):
            bound_scan(fam, 0, grid_size=5, lo=end)
        with pytest.raises(ValueError):
            bound_scan(fam, 0, grid_size=5, hi=1 - end)


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


@pytest.mark.parametrize("name,fixed", SCAN_FAMILIES)
def test_signature_probes_match_the_full_pass_reference(name, fixed):
    # a probe counts each root in the piece it was isolated in, and forms no
    # L1 sum; the reference counts the roots of a full pass by piece_index.
    # M_r(x) asked after a probe at the same x is the full pass's value
    from peanoquad.bounds import _bound_fn

    fam = family(name, **fixed)
    for r in range(fam.generic_degree + 1):
        kinks = [k.as_fraction() for k in bound_scan(fam, r, grid_size=33).branch_points]
        fn, sig, _ = _bound_fn(fam, r)
        for x in fam.domain.grid(33) + kinks:
            rule = fam.build(Scalar(x))
            assert sig(x) == reference_signature(rule, r), (name, r, x)
            want = kernel_l1_norm(rule, r).l1_norm
            got = fn(x)
            assert (got.to_json_str(), got.bounds()) == (want.to_json_str(), want.bounds())


def test_branch_points_on_grid_points_are_exact():
    def points(name, r, **kw):
        return bound_scan(family(name), r, grid_size=33, **kw).branch_points

    assert points("liu_park", 0) == (Scalar(0), Scalar(F(1, 2)), Scalar(1))
    assert points("ostrowski", 0) == (Scalar(-1), Scalar(1))
    assert Scalar(F(1, 2)) in points("gs2", 1)
    # x = 0 is seen from both neighbouring cells and reported once
    assert points("dragomir_sofo", 1) == (Scalar(-1), Scalar(0), Scalar(1))
    assert points("mod3_opt", 2) == (Scalar(F(-1, 3)), Scalar(0), Scalar(F(1, 3)))


# signature probes of the branch-point search over the scans below on 33
# points, counted the same way, when every change was bisected to 1e-9: 693
# in 27 searches, 641 of them for the 25 changes within 1e-9 of a grid point
GRID_POINT_SCANS = [("ostrowski", 0), ("gs2", 0), ("gs2", 1), ("franjic", 0), ("franjic", 1),
                    ("liu_park", 0), ("liu_park", 1), ("dragomir_sofo", 0),
                    ("dragomir_sofo", 1), ("mod3_opt", 2)]


def test_grid_point_branch_points_need_few_signature_probes(monkeypatch):
    # a change beside a grid point is found by one or two probes one tol
    # inside the cell's ends, with no bisection; probes are the distinct x
    # other than the two ends that each search asks the signature of
    import peanoquad.bounds as bounds

    locate = bounds._locate_signature_change
    on_grid, probes = [], []

    def located(sig, a, b, tol):
        asked = set()

        def watched(x):
            asked.add(x)
            return sig(x)

        k = locate(watched, a, b, tol)
        probes.append(len(asked - {a, b}))
        on_grid.append(k in (a, b))
        return k

    monkeypatch.setattr(bounds, "_locate_signature_change", located)
    for name, r in GRID_POINT_SCANS:
        bound_scan(family(name), r, grid_size=33)
    assert sum(on_grid) >= 20
    assert all(1 <= n <= 2 for n, hit in zip(probes, on_grid) if hit), probes
    assert 5 * sum(probes) <= 693, sum(probes)


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


def test_grid_point_branch_point_is_exact_beside_a_second_change():
    # on 3 points the cell [1/2, 1] holds gs2's switch at 1/2 and its node
    # collision at 1; the end probe still returns the switch exactly
    assert bound_scan(family("gs2"), 1, grid_size=3).branch_points == (Scalar(F(1, 2)),)
    for grid in (5, 33, 101):
        assert bound_scan(family("gs2"), 1, grid_size=grid).branch_points == (
            Scalar(F(1, 2)), Scalar(1))


def test_scan_rejects_a_negative_order():
    for call in (lambda: bound_scan(family("gs2"), -1), lambda: minimize_bound(family("gs2"), -1),
                 lambda: bound_scan(family("alomari4", lam=F(1, 5)), -3, grid_size=5)):
        with pytest.raises(ValueError, match="kernel order must be nonnegative"):
            call()


def test_probes_at_covered_points_build_no_rule_or_kernel(monkeypatch):
    # a probe at a point the fitted form covers isolates the roots of the
    # form's pieces: no rule and no kernel is built, and each piece has the
    # roots the full-pass reference counts in it
    import peanoquad.bounds as bounds
    from peanoquad.rules import RuleFamily

    def built(*args):
        raise AssertionError("a probe built a rule or a kernel")

    for name, fixed in SCAN_FAMILIES:
        fam = family(name, **fixed)
        for r in range(fam.generic_degree + 1):
            grid = fam.domain.grid(9)
            want = [reference_signature(fam.build(Scalar(x)), r) for x in grid]
            _, sig, _ = bounds._bound_fn(fam, r)
            with monkeypatch.context() as m:
                m.setattr(RuleFamily, "build", built)
                m.setattr(bounds, "build_kernel", built)
                assert [sig(x) for x in grid] == want, (name, r)


# ---------------------------------------------------------------------------
# scan points in one integer pass over the form's kernel pieces

# every scan family, and two the pass hands to the kernel pass: mod3 at
# lambda = 2/3, whose order condition is no identity in x at r >= 2, and
# alomari4 at an irrational lambda, which has no fitted form
PASS_FAMILIES = SCAN_FAMILIES + [("mod3", {"lam": F(2, 3)}),
                                 ("alomari4", {"lam": sqrt(Scalar(F(1, 20)))})]


def _fingerprint(v):
    return type(v), v.to_json_str(), v.is_rational, v.is_exact, v.bounds()


def _pass_lanes(monkeypatch):
    """Wrap the integer pass's sum (bounds.l1_sum) and the sum of a kernel
    pass on a built rule (bounds._kernel_l1); count what each scan point took."""
    import peanoquad.bounds as bounds

    lanes = Counter()
    form_sum, kernel = bounds.l1_sum, bounds._kernel_l1

    def counted_form_sum(pieces, ends, roots):
        out = form_sum(pieces, ends, roots)
        dual = any(q for _, q in ends) or pieces[0][3] == 0
        lanes["zero-length pieces"] += sum(p0 == p1 for (p0, _), (p1, _) in zip(ends, ends[1:]))
        lanes[("dual" if dual else "value",
               "interval" if not all(v.is_exact for v in _Dual.parts(out))
               else "sqrt" if any(v._sqrt for v in _Dual.parts(out)) else "Q")] += 1
        return out

    def counted_kernel(*args):
        lanes["kernel pass"] += 1
        return kernel(*args)

    monkeypatch.setattr(bounds, "l1_sum", counted_form_sum)
    monkeypatch.setattr(bounds, "_kernel_l1", counted_kernel)
    return lanes


@pytest.mark.parametrize("name,fixed", PASS_FAMILIES)
def test_scan_points_equal_the_kernel_pass_reference(name, fixed, monkeypatch):
    # M_r(x), the signature (probed first, after a value and after a slope) and (M_r, M_r')
    # of the integer pass equal those of kernel passes on built rules, by
    # to_json_str, tier, enclosure and type, at every order on the family
    # points: both closed domain ends (the slope seeded -1 at the upper one),
    # and x = 0 and 1, where nodes meet
    from peanoquad._forms import form_of
    from peanoquad.bounds import _bound_fn
    from util import family_points, reference_bound_fn

    fam = family(name, **fixed)
    lanes = _pass_lanes(monkeypatch)
    # Simpson's rule, mod3 at x = 0 for lambda = 2/3, is exact on degree 3
    # there alone: its kernels of order 2 and 3 take the kernel pass
    extra = [(2, F(0)), (3, F(0))] if fixed.get("lam") == F(2, 3) else []
    points = [(r, x) for r in range(fam.generic_degree + 1) for x in family_points(fam)] + extra
    for r in sorted({r for r, _ in points}):
        fn, sig, slope = _bound_fn(fam, r)
        _, probe, _ = _bound_fn(fam, r)
        want_fn, want_sig, want_slope = reference_bound_fn(fam, r)
        _, want_probe, _ = reference_bound_fn(fam, r)
        for x in (x for k, x in points if k == r):
            where = (name, r, x)
            assert probe(x) == want_probe(x), where
            assert _fingerprint(fn(x)) == _fingerprint(want_fn(x)), where
            assert sig(x) == want_sig(x), where
            assert list(map(_fingerprint, slope(x))) == list(map(_fingerprint, want_slope(x))), where
            assert sig(x) == want_sig(x), where  # a slope pass leaves the signature alone
    passes = sum(lanes[kind, lane] for kind in ("value", "dual") for lane in ("Q", "sqrt", "interval"))
    if form_of(fam) is None:  # the builder's rules, by kernel passes
        assert passes == 0 and lanes["kernel pass"] == 2 * len(points)
    else:  # every point the form covers, those with a bracketed root or two radicands too
        assert passes == 2 * (len(points) - len(extra)), lanes
        assert lanes["kernel pass"] == 2 * len(extra), lanes
    if name == "q44":  # the sum goes on in Scalar arithmetic, equal to the kernel pass
        assert lanes["value", "interval"] >= 1 and lanes["dual", "interval"] >= 1, lanes


@pytest.mark.parametrize("r,kinks", [(0, [0, F(4, 5), 1]), (1, [0, F(3, 8), F(3, 5), 1])])
def test_an_interval_parameter_scans_as_its_midpoint(r, kinks, monkeypatch):
    # alomari4 at lambda = 1/5 +- 1e-40 has no fitted form: every value,
    # probe and slope builds the rule and runs the kernel pass, on intervals
    # and dual numbers.  Its branch points and minimizer are those at
    # lambda = 1/5, and each grid value encloses the value there
    tiny = F(1, 10**40)
    fam = family("alomari4", lam=Scalar.from_interval(F(1, 5) - tiny, F(1, 5) + tiny))
    exact = family("alomari4", lam=F(1, 5))
    want = bound_scan(exact, r, grid_size=9)
    lanes = _pass_lanes(monkeypatch)
    got = bound_scan(fam, r, grid_size=9)
    assert lanes["kernel pass"] > 0 and set(lanes) == {"kernel pass"}, lanes
    assert got.branch_points == want.branch_points == tuple(map(Scalar, kinks))
    assert got.minimizer[0] == want.minimizer[0] == Scalar(F(2, 5))
    for v, w in zip(got.values, want.values):
        (lo, hi), (wlo, whi) = v.bounds(), w.bounds()
        assert not v.is_exact and lo <= wlo and whi <= hi, (v, w)
    assert minimize_bound(fam, r).x == minimize_bound(exact, r).x == Scalar(F(2, 5))


def test_the_integer_pass_covers_roots_in_q_sqrt_m_and_dual_pieces(monkeypatch):
    # r = 1 kernels of gs2, alomari4 and q44 have quadratic irrational roots:
    # their value and slope passes sum over Q(sqrt m) and Q(sqrt m)[eps]; the
    # nodes +-x meet the ends +-1 at x = 1 (gs2, alomari4) and each other at
    # x = 0 (alomari4), and part with x: pieces of zero length, whose only
    # part is their eps part
    from peanoquad.bounds import _bound_fn
    from util import family_points

    lanes = _pass_lanes(monkeypatch)
    for name, fixed in (("gs2", {}), ("alomari4", {"lam": F(9, 43)}),
                        ("q44", {"lam": F(1, 5), "gamma": F(1, 32), "delta": F(5, 53)})):
        fam = family(name, **fixed)
        fn, _, slope = _bound_fn(fam, 1)
        for x in family_points(fam):
            fn(x), slope(x)
    assert lanes[("value", "sqrt")] >= 10 and lanes[("dual", "sqrt")] >= 10
    assert lanes["zero-length pieces"] >= 1
    assert lanes[("value", "Q")] + lanes[("dual", "Q")] > lanes["kernel pass"]


def _reference_abs_sum(A, B, den, cuts, m):
    """The sum of |F(c_(k+1)) - F(c_k)| in Scalar and _Dual arithmetic."""
    F_ = Polynomial.of_ints(A, B or [0] * len(A), den, 0).antiderivative()
    points = [Scalar(c) if type(c) is not tuple
              else _dual(Scalar(c[0]), Scalar(c[1])) if k in (0, len(cuts) - 1)
              else _quad(c[0], c[1], m) for k, c in enumerate(cuts)]
    total = Scalar(0)
    for s, t in zip(points, points[1:]):
        total = total + abs(F_(t) - F_(s))
    return _Dual.parts(total)


def test_abs_integral_sums_over_q_sqrt_m_and_q_eps():
    # against Scalar and _Dual arithmetic: the eps parts at the ends, quadratic
    # irrational cuts inside, and differences whose value part is 0, where the
    # eps part gives the sign (a piece of zero length, and a cut met twice)
    rng = random.Random(28)
    seen = Counter()
    for _ in range(400):
        n = rng.randint(1, 5)
        A = [rng.randint(-9, 9) for _ in range(n)] + [rng.choice([-3, -1, 1, 2])]
        B = rng.choice([(), [rng.randint(-9, 9) for _ in range(n + 1)]])
        den, m = rng.randint(1, 12), rng.choice([1, 2, 3, 7])
        ends = sorted(F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(2))
        if rng.random() < 0.1:
            ends[1] = ends[0]
        cuts = [(end, F(rng.randint(-5, 5), rng.randint(1, 4))) if B and rng.random() < 0.7
                else end for end in ends]
        inside = []
        for _ in range(rng.randint(0, 2)):
            if m > 1 and rng.random() < 0.6:
                inside.append((F(rng.randint(-9, 9), rng.randint(1, 5)), F(rng.randint(1, 3), rng.randint(1, 5))))
            else:
                inside.append(F(rng.randint(-12, 12), rng.randint(1, 6)))
        if rng.random() < 0.2 and inside:
            inside.append(inside[-1])
        cuts[1:1] = inside
        a, b, c, e = abs_integral(A, B, den, 0, cuts, m)
        got = (_quad(a, b, m), _quad(c, e, m))
        want = _reference_abs_sum(A, list(B), den, cuts, m)
        assert [v.to_json_str() for v in got] == [v.to_json_str() for v in want], (A, B, den, cuts, m)
        seen["sqrt"] += bool(got[0]._sqrt or got[1]._sqrt)
        seen["eps"] += bool(c or e)
        seen["zero-length"] += cuts[0] != cuts[-1] and type(cuts[0]) is tuple and ends[0] == ends[1]
    assert seen["sqrt"] >= 40 and seen["eps"] >= 100 and seen["zero-length"] >= 5, seen


def test_abs_integral_sums_pieces_over_q_sqrt_m():
    # a piece (A + B*sqrt(m))/den, with ends and roots rational or in Q(sqrt m),
    # against the Scalar sum, and the sum of each Q(sqrt m) kernel of a rule
    rng = random.Random(2828)
    seen = Counter()
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.choice([2, 3, 7])
        A = [rng.randint(-9, 9) for _ in range(n)] + [rng.choice([-3, -1, 1, 2])]
        B = rng.choice([(), [rng.randint(-9, 9) for _ in range(n + 1)]])
        cuts = sorted({F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(rng.randint(2, 4))})
        cuts = [(c, F(rng.randint(-3, 3), rng.randint(1, 5))) if rng.random() < 0.5 else c
                for c in cuts]
        den = rng.randint(1, 12)
        a, b, c, e = abs_integral(A, B, den, m, cuts, m)
        F_ = Polynomial.of_ints(A, B or [0] * len(A), den, m).antiderivative()
        points = [_quad(x[0], x[1], m) if type(x) is tuple else Scalar(x) for x in cuts]
        want = Scalar(0)
        for x, y in zip(points, points[1:]):
            want = want + abs(F_(y) - F_(x))
        assert (c, e) == (0, 0) and _quad(a, b, m).to_json_str() == want.to_json_str(), (A, B, cuts)
        seen["sqrt"] += bool(b)
    assert seen["sqrt"] >= 150, seen
