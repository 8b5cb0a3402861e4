"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is fixed here, straight from the contract this library is
built against.  Exact assertions use the rational path; validated (interval)
results are compared against independently computed high-precision references.
"""

import math
import random
from fractions import Fraction as F

import mpmath

from peanoquad import (
    BoxDomain,
    Polynomial,
    Scalar,
    alomari4_min_m0,
    bound_scan,
    build_kernel,
    composite_integrate,
    degree_of_exactness,
    error_bound,
    family,
    kernel_l1_norm,
    make_rule,
    minimize_bound,
    multidim_ostrowski_bound,
    remainder_on_monomial,
    verify_peano_identity,
)
from util import random_rational_rule, scalar_is_zero


def _report(criterion: str, detail: str = ""):
    print(f"PASS {criterion}" + (f": {detail}" if detail else ""))


def _mpf(q: F):
    return mpmath.mpf(q.numerator) / q.denominator


# ---------------------------------------------------------------------------


def test_criterion_1_golden_constants_exact_path():
    """Simpson constants M_0..M_3, exact rationals."""
    rule = make_rule("simpson")
    expected = {0: F(5, 9), 1: F(8, 81), 2: F(1, 36), 3: F(1, 90)}
    for r, want in expected.items():
        got = kernel_l1_norm(rule, r).l1_norm
        assert got.is_rational, f"M_{r} not exact"
        assert got.as_fraction() == want, f"M_{r} = {got.as_fraction()} != {want}"
    _report("criterion 1", "simpson M_0..M_3 = 5/9, 8/81, 1/36, 1/90 exactly")


def test_criterion_2_golden_constants_irrational_path():
    """Validated constants for the sqrt-node rules, tolerance 1e-12."""
    tol = 1e-12
    with mpmath.workdps(40):
        s3, s5 = mpmath.sqrt(3), mpmath.sqrt(5)
        cases = [
            ("gauss_legendre2", 2, (9 - 4 * s3) / 108),
            ("gauss_legendre2", 3, mpmath.mpf(1) / 135),
            ("liu_park_gauss", 2, (9 - 4 * s3) / 108),
            ("liu_park_gauss", 3, mpmath.mpf(1) / 90),
            ("lobatto4", 0, (101 - 30 * s5) / 90),
            ("lobatto4", 1, (1 + 12 * mpmath.sqrt(3 * (17 * s5 - 38))) / 81),
            ("lobatto4", 2, (45 - 16 * s5) / 1440),
            ("lobatto4", 3, mpmath.mpf("1.132646548e-3")),
            ("lobatto4", 4, 1 / (1800 * s5)),
            ("lobatto4", 5, mpmath.mpf(2) / 23625),
        ]
        for name, r, ref in cases:
            rep = kernel_l1_norm(make_rule(name), r)
            err = abs(float(rep.l1_norm) - float(ref))
            assert err <= tol, f"{name} M_{r}: |{float(rep.l1_norm)} - {float(ref)}| = {err}"
            assert rep.radius < 1e-13, f"{name} M_{r} radius {rep.radius}"
    # reported decimal anchors
    assert abs(float(kernel_l1_norm(make_rule("lobatto4"), 0).l1_norm) - 0.376866) < 1e-6
    assert abs(float(kernel_l1_norm(make_rule("lobatto4"), 1).l1_norm) - 0.04177718) < 1e-8
    _report("criterion 2", "sqrt-node constants within 1e-12, radii below 1e-13")


def test_criterion_3_degrees_of_exactness():
    cases = [
        (make_rule("ostrowski", x=F(1, 4)), 0),
        (make_rule("ostrowski", x=0), 1),
        (make_rule("mp3", x=F(2, 5)), 1),
        (make_rule("mod3_opt", x=F(1, 4)), 2),
        (make_rule("simpson"), 3),
        (make_rule("dcr", lam=F(1, 4), x=F(1, 5)), 0),
        (make_rule("gs2", x=F(1, 2)), 1),
        (make_rule("gauss_legendre2"), 3),
        (make_rule("franjic", x=F(1, 3)), 2),
        (make_rule("alomari4", lam=F(1, 6), x="sqrt(1/5)"), 5),
        (make_rule("liu_park", x=F(1, 2)), 1),
        (make_rule("liu_park_gauss"), 3),
    ]
    for rule, want in cases:
        got = degree_of_exactness(rule).degree
        assert got == want, f"{rule.name}: degree {got} != {want}"
    r6 = remainder_on_monomial(make_rule("lobatto4"), 6)
    assert r6.is_rational and r6.as_fraction() == F(-32, 525)
    for x in (F(1, 4), F(-2, 5), F(3, 7)):
        r3 = remainder_on_monomial(make_rule("mod3_opt", x=x), 3)
        assert r3.as_fraction() == F(4, 3) * x
    _report("criterion 3", "all stated degrees; R(e_6) = -32/525 and R(e_3) = 4x/3 exact")


def test_criterion_4_bound_function_oracle_equivalence():
    """Closed-form bound functions vs kernel integration, per branch."""

    def check(name, r, x, want, fixed=None, tol=None):
        params = dict(fixed or {})
        params["x"] = x
        got = kernel_l1_norm(make_rule(name, **params), r).l1_norm
        if isinstance(want, F):
            assert got.is_rational and got.as_fraction() == want, (name, r, x)
        else:
            assert abs(float(got) - float(want)) <= (tol or 1e-12), (name, r, x)

    pts_inner = [F(0), F(1, 10), F(1, 5), F(1, 4), F(3, 10)]
    pts_outer = [F(1, 3), F(2, 5), F(1, 2), F(2, 3), F(4, 5)]
    for x in [F(-3, 4), F(-1, 4), F(0), F(2, 5), F(9, 10)]:
        check("ostrowski", 0, x, 1 + x * x)
    for x in [F(-1, 2), F(-1, 5), F(0), F(1, 4), F(3, 5)]:
        check("mp3", 0, x, (1 + x * x) / 2)
        check("mp3", 1, x, (1 + 3 * x * x) / 6)
    for x in pts_inner:
        check("mod3_opt", 0, x, (9 * x**6 + 3 * x**4 - x**2 + 5) / (9 * (1 - x**2) ** 2))
        check("mod3_opt", 1, x, 8 * (1 - 3 * x**2) * (3 * x**2 + 1) ** 2 / (81 * (1 - x**2) ** 3))
        check("mod3_opt", 2, x,
              (8 * x**5 + 49 * x**4 - 60 * x**3 + 22 * x**2 - 4 * x + 1) / (36 * (1 - x) ** 4))
    for x in pts_outer:
        check("mod3_opt", 0, x, (3 * x**2 + 3 * x + 2) ** 2 / (9 * (1 + x) ** 2))
        check("mod3_opt", 1, x, 4 * (3 * x + 1) ** 3 / (81 * (1 + x) ** 3))
        check("mod3_opt", 2, x, 2 * x / 9)
    for lam, x in [(F(1, 4), F(1, 5)), (F(1, 3), F(1, 8)), (F(1, 2), F(1, 10)),
                   (F(2, 5), F(-1, 4)), (F(1, 10), F(1, 2))]:
        check("dcr", 0, x, lam**2 + (1 - lam) ** 2 + x**2, fixed={"lam": lam})
    for x in [F(1, 10), F(3, 10), F(1, 2), F(7, 10), F(1)]:
        check("gs2", 0, x, 1 - 2 * x + 2 * x**2)
    for x in [F(1, 10), F(1, 5), F(3, 10), F(2, 5), F(1, 2)]:
        check("gs2", 1, x, F(1, 3) - x**2)
    with mpmath.workdps(40):
        for x in [F(3, 5), F(7, 10), F(3, 4), F(4, 5), F(1)]:
            check("gs2", 1, x, (4 * _mpf(2 * x - 1) ** mpmath.mpf("1.5") + 1 - 3 * _mpf(x) ** 2) / 3)
    for x in [F(-3, 4), F(-1, 2), F(-1, 4), F(-1, 10), F(0)]:
        check("franjic", 0, x, (1 - x) ** 2)
        check("franjic", 1, x, (1 - 3 * x) / 3)
    for x in [F(1, 5), F(1, 3), F(1, 2), F(7, 10), F(1)]:
        check("franjic", 0, x, (1 + x**2) ** 2 / (1 + x) ** 2)
        check("franjic", 1, x, (1 - 6 * x**2 + 24 * x**3 - 3 * x**4) / (3 * (x + 1) ** 3))
    lam = F(1, 5)
    for x in [F(1, 10), F(1, 4), F(2, 5), F(3, 5), F(7, 10)]:
        check("alomari4", 0, x, lam**2 + x**2 + (1 - lam - x) ** 2, fixed={"lam": lam})
    for x in [F(81, 100), F(17, 20), F(9, 10), F(19, 20), F(99, 100)]:
        check("alomari4", 0, x, 2 * x * (1 - lam) + 2 * lam - 1, fixed={"lam": lam})
    for lam2, x in [(F(1, 2), F(1, 5)), (F(1, 2), F(3, 5)), (F(3, 5), F(2, 5)),
                    (F(3, 4), F(1, 2)), (F(9, 10), F(4, 5))]:
        check("alomari4", 1, x, (1 - lam2) * x**2 + lam2 - F(1, 3), fixed={"lam": lam2})
    for x in [F(1, 10), F(1, 5), F(1, 4), F(3, 10), F(3, 8)]:
        check("alomari4", 1, x, F(58, 375) - F(4, 5) * x**2, fixed={"lam": lam})
    with mpmath.workdps(40):
        for x in [F(2, 5), F(9, 20), F(1, 2), F(11, 20), F(23, 40)]:
            want = 2 * (29 - 150 * _mpf(x) ** 2
                        + 10 * mpmath.sqrt(5) * _mpf(8 * x - 3) ** mpmath.mpf("1.5")) / 375
            check("alomari4", 1, x, want, fixed={"lam": lam})
    for x in [F(3, 5), F(7, 10), F(4, 5), F(9, 10), F(19, 20)]:
        check("alomari4", 1, x, F(2, 15) * (6 * x**2 - 1), fixed={"lam": lam})
    for x in [F(1, 10), F(1, 5), F(1, 4), F(3, 10), F(2, 5)]:
        check("liu_park", 0, x, F(1, 2) - x + 2 * x**2)
    for x in [F(1, 2), F(3, 5), F(7, 10), F(4, 5), F(9, 10)]:
        check("liu_park", 0, x, x)
    for x in [F(1, 10), F(3, 10), F(1, 2), F(7, 10), F(9, 10)]:
        check("liu_park", 1, x, (1 - 3 * x**2 + 4 * x**3) / 6)
    _report("criterion 4", "every closed-form branch matches kernel integration")


def test_criterion_5_minimizers():
    tol_x, tol_v = 1e-9, 1e-9
    with mpmath.workdps(40):
        cases = [
            (minimize_bound(family("gs2"), 0), mpmath.mpf("0.5"), mpmath.mpf("0.5")),
            (minimize_bound(family("gs2"), 1),
             4 - 2 * mpmath.sqrt(3), 7 - 4 * mpmath.sqrt(3)),
            (minimize_bound(family("franjic"), 0),
             mpmath.sqrt(2) - 1, 12 - 8 * mpmath.sqrt(2)),
            (minimize_bound(family("franjic"), 1),
             2 * mpmath.sqrt(2) - 1 - 2 * mpmath.sqrt(2 - mpmath.sqrt(2)),
             mpmath.mpf(4) / 3 * (5 - 3 * mpmath.sqrt(2)
                                  - 2 * mpmath.sqrt(10 - 7 * mpmath.sqrt(2)))),
            (minimize_bound(family("liu_park"), 0), mpmath.mpf("0.25"), mpmath.mpf("0.375")),
            (minimize_bound(family("liu_park"), 1), mpmath.mpf("0.5"), mpmath.mpf("0.125")),
        ]
        assert abs(float(cases[3][2]) - 0.164412) < 5e-7  # printed reference value
        for res, x_ref, v_ref in cases:
            assert not res.multimodal_suspected
            assert abs(float(res.x) - float(x_ref)) <= tol_x
            assert abs(float(res.value) - float(v_ref)) <= tol_v
    for lam in (F(1, 6), F(1, 3), F(1, 2)):
        x_star, value = alomari4_min_m0(lam)
        assert x_star.as_fraction() == (1 - lam) / 2
        assert value.as_fraction() == (3 * lam**2 - 2 * lam + 1) / 2
        numeric = minimize_bound(family("alomari4", lam=lam), 0)
        assert abs(float(numeric.value - value)) <= 1e-12
    _report("criterion 5", "all minimizers within 1e-9")


def test_criterion_6_property_suite():
    rng = random.Random(20260808)
    # remainder identity, exact, on 50 random rational rules
    identity_checks = 0
    for _ in range(50):
        rule = random_rational_rule(rng)
        d = degree_of_exactness(rule, k_max=8).degree
        f = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(d + 4)])
        for r in range(d + 1):
            lhs, rhs = verify_peano_identity(rule, r, f)
            assert lhs.as_fraction() == rhs.as_fraction()
            identity_checks += 1
    assert identity_checks >= 50

    # moment identity on the catalog (order 0 needs a derivative-free rule)
    catalog = [
        make_rule("ostrowski", x=F(1, 4)),
        make_rule("mp3", x=F(2, 5)),
        make_rule("mod3_opt", x=F(1, 5)),
        make_rule("simpson"),
        make_rule("dcr", lam=F(1, 4), x=F(1, 5)),
        make_rule("gs2", x=F(1, 2)),
        make_rule("gauss_legendre2"),
        make_rule("radau2"),
        make_rule("alomari4", lam=F(1, 5), x=F(2, 3)),
        make_rule("lobatto4"),
        make_rule("liu_park", x=F(1, 2)),
        make_rule("liu_park_gauss"),
        make_rule("dragomir_sofo", x=F(2, 5)),
        make_rule("q44", lam=F(1, 3), gamma=F(1, 10), delta=F(-1, 20), x=F(1, 2)),
    ]
    for rule in catalog:
        d = degree_of_exactness(rule, k_max=8).degree
        r_lo = 1 if rule.deriv_nodes else 0
        for r in range(r_lo, min(d, 6) + 1):
            lhs = build_kernel(rule, r).integrate()
            rhs = remainder_on_monomial(rule, r + 1) / math.factorial(r + 1)
            assert scalar_is_zero(lhs - rhs), (rule.name, r)

    # kernel symmetry at 100 points for symmetric rules
    for rule in [make_rule("gs2", x=F(2, 5)), make_rule("simpson"),
                 make_rule("alomari4", lam=F(1, 5), x=F(2, 3)),
                 make_rule("liu_park", x=F(1, 2)), make_rule("liu_park_gauss"),
                 make_rule("lobatto4")]:
        d = degree_of_exactness(rule, k_max=8).degree
        nodes = {float(x) for x, _ in rule.value_nodes}
        nodes.update(float(y) for y, _ in rule.deriv_nodes)
        for r in range(min(d, 5) + 1):
            k = build_kernel(rule, r)
            sign = Scalar((-1) ** (r + 1))
            count = 0
            while count < 100:
                t = F(rng.randint(-999, 999), 1000)
                if float(t) in nodes or float(-t) in nodes:
                    continue
                assert scalar_is_zero(k.evaluate(Scalar(-t)) - sign * k.evaluate(Scalar(t)))
                count += 1

    # evenness of the optimal-three-point bound functions at 10 points
    for x in [F(k, 20) for k in range(1, 11)]:
        for r in range(3):
            left = kernel_l1_norm(make_rule("mod3_opt", x=-x), r).l1_norm
            right = kernel_l1_norm(make_rule("mod3_opt", x=x), r).l1_norm
            assert left.as_fraction() == right.as_fraction()
    _report("criterion 6", "identity, moments, kernel symmetry, bound evenness")


def test_criterion_7_composite_certificate():
    rule = make_rule("simpson")
    deriv_sup = F(27, 10)
    for n in (1, 2, 4, 8):
        res = composite_integrate(rule, math.exp, 0, 1, n, 3, deriv_sup)
        want = n * F(1, 90) * F(1, 2 * n) ** 5 * deriv_sup
        assert abs(float(res.certificate) - float(want)) <= 1e-14
        assert res.certificate.as_fraction() == want  # exact, in fact
        err = abs(float(res.value) - (math.e - 1))
        assert err <= float(res.certificate)
    _report("criterion 7", "certificate formula to 1e-14; observed errors below it")


def test_criterion_8_multidim_reduction():
    rng = random.Random(1234321)
    for _ in range(20):
        a = F(rng.randint(-12, 6), rng.randint(1, 7))
        b = a + F(rng.randint(1, 25), rng.randint(1, 5))
        m = F(rng.randint(1, 9), rng.randint(1, 9))
        x = a + (b - a) * F(rng.randint(0, 24), 24)
        u = (2 * x - a - b) / (b - a)
        lhs = multidim_ostrowski_bound(BoxDomain.of([(a, b)], [m]), [x])
        rhs = error_bound(make_rule("ostrowski", x=u), 0, m, a, b) / Scalar(b - a)
        assert lhs.is_rational and rhs.is_rational
        assert lhs.as_fraction() == rhs.as_fraction()
    _report("criterion 8", "box bound matches the one-point rule bound exactly")


def test_figure_data_branch_structure(tmp_path):
    """Exports carry the published branch structure, checked via branch_points."""
    from peanoquad import export_kernel_csv, export_scan_csv

    for r in (0, 1):
        scan = bound_scan(family("mod3_opt"), r, grid_size=41, lo=F(1, 100), hi=F(4, 5))
        assert any(abs(float(b) - 1 / 3) < 1e-6 for b in scan.branch_points)
    scan = bound_scan(family("alomari4", lam=F(1, 5)), 1,
                      grid_size=41, lo=F(1, 100), hi=F(9, 10))
    kinks = [float(b) for b in scan.branch_points]
    assert any(abs(k - 3 / 8) < 1e-6 for k in kinks)
    assert any(abs(k - 3 / 5) < 1e-6 for k in kinks)
    export_scan_csv(scan, tmp_path / "scan.csv")
    export_kernel_csv(kernel_l1_norm(make_rule("simpson"), 3), tmp_path / "k3.csv", points=201)
    assert (tmp_path / "scan.csv").exists() and (tmp_path / "k3.csv").exists()
    _report("figure data", "branch points at 1/3 (three-point) and 3/8, 3/5 (four-point)")
