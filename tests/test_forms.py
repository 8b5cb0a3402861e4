"""The fitted forms of the family scan: the integer read of the rule at x or
x + d*eps, and the pieces of K_r(t; x) as integer polynomials in x evaluated
there, against the builder's rule and its kernel."""

from fractions import Fraction as F

import pytest

from peanoquad import (OrderExceedsExactness, ParamOutOfDomain, Scalar, bound_scan, build_kernel,
                       family, kernel_l1_norm, make_rule)
from peanoquad._forms import form_of, form_pieces, form_read
from peanoquad.bounds import _bound_fn
from peanoquad.scalars import _Dual

from util import SCAN_FAMILIES, family_points


def _read(fam, x, d=0):
    return form_read(form_of(fam), fam.domain, x, d)


def _rationals(pieces):
    """Integer pieces (A, B, den, m) as rational coefficient lists, with m."""
    return [([F(a, den) for a in A], [F(b, den) for b in B], m) for A, B, den, m in pieces]


def _value_and_slope(values, n=0):
    """Each value's (value, derivative) as Fractions, padded with (0, 0) to n."""
    got = [tuple(c.as_fraction() for c in _Dual.parts(v)) for v in values]
    return got + [(0, 0)] * (n - len(got))


@pytest.mark.parametrize("name,fixed", SCAN_FAMILIES)
def test_form_kernels_equal_the_generic_kernels_of_the_same_scalars(name, fixed):
    # at x the form's pieces are the integer pieces of the builder rule's
    # kernel; at x + d*eps each coefficient and breakpoint has the value and
    # derivative of the Scalar lane's kernel of the builder rule at that _Dual
    fam = family(name, **fixed)
    for x in family_points(fam):
        for d in (0, 1, -1, F(3, 7)):
            read = _read(fam, x, d)
            try:
                rule = fam.build(_Dual(x, d) if d else Scalar(x))
            except ParamOutOfDomain:  # x + d*eps at a closed end, pointing out of the domain
                assert d and x in (fam.domain.lo, fam.domain.hi) and read is None
                continue
            E, keys = read[4], read[6]
            for r in range(fam.generic_degree + 1):
                pieces, kernel = form_pieces(read, r), build_kernel(rule, r)
                assert pieces is not None, (x, d, r)
                where = (x, d, r)
                if not d:
                    assert [F(g, E) for g, _ in keys] == [b.as_fraction() for b in kernel.breakpoints]
                    assert _rationals(pieces) == _rationals(kernel.exact), where
                    continue
                assert [(F(g, E), F(h, E)) for g, h in keys] == _value_and_slope(kernel.breakpoints)
                assert len(pieces) == len(kernel.pieces), where
                for (A, B, den, _), piece in zip(pieces, kernel.pieces):
                    want = _value_and_slope(piece.coeffs, len(A))
                    assert [(F(a, den), F(b, den)) for a, b in zip(A, B)] == want, where


def test_mod3_opt_at_r0_flips_to_a_positive_denominator():
    # D(x) = 3x**2 - 3 < 0 on the domain; at x = 1/3 the weight at 1 is 0
    fam = family("mod3_opt")
    for d in (0, 1):
        read = _read(fam, F(1, 3), d)
        pieces = form_pieces(read, 0)
        assert [F(g, read[4]) for g, _ in read[6]] == [-1, F(1, 3), 1]
        assert all(den > 0 for _, _, den, _ in pieces)
    rule = fam.build(F(1, 3))
    assert _rationals(form_pieces(_read(fam, F(1, 3)), 0)) == _rationals(build_kernel(rule, 0).exact)
    assert _bound_fn(fam, 0)[0](F(1, 3)) == kernel_l1_norm(rule, 0).l1_norm == Scalar(F(25, 36))


def test_mod3_at_two_thirds_falls_back_where_the_identity_in_x_fails():
    fam = family("mod3", lam=F(2, 3))
    read = _read(fam, F(0))  # weights 1/3, 4/3, 1/3: Simpson, degree 3 at this x alone
    assert [form_pieces(read, r) is None for r in range(4)] == [False, False, True, True]
    simpson = fam.build(0)
    assert kernel_l1_norm(simpson, 3).l1_norm == Scalar(F(1, 90))
    assert build_kernel(simpson, 3) == build_kernel(make_rule("simpson"), 3)
    with pytest.raises(OrderExceedsExactness):
        build_kernel(fam.build(F(1, 3)), 2)
    for r in (2, 3):  # above the generic degree 1: refused before any point is valued
        with pytest.raises(OrderExceedsExactness):
            bound_scan(fam, r)


@pytest.mark.parametrize("name,fixed", SCAN_FAMILIES)
def test_the_r0_closed_form_equals_the_kernel_pass_reference(name, fixed):
    # at r = 0 each piece is c_i - t: the value, the signature (probed first,
    # and after a value) and the slope of the closed form equal those of
    # kernel passes on built rules, by ==, at the family points (both closed
    # ends, the slope seeded -1 at the upper one; x = 0 and 1, where nodes
    # meet), on grids of 33 and 101 points and at every branch point, where
    # a c_i meets a breakpoint
    from peanoquad.bounds import _memo
    from util import reference_bound_fn

    fam = family(name, **fixed)
    kinks = {k.as_fraction() for k in bound_scan(fam, 0, grid_size=33).branch_points}
    _memo.cache_clear()  # the scan's passes are in the memo: pass afresh
    fn, sig, slope = _bound_fn(fam, 0)
    want_fn, want_sig, want_slope = reference_bound_fn(fam, 0)
    _, want_probe, _ = reference_bound_fn(fam, 0)
    points = set(family_points(fam)) | set(fam.domain.grid(33)) | set(fam.domain.grid(101)) | kinks
    for x in sorted(points):
        assert sig(x) == want_probe(x), (x, sig(x))
        got, want = fn(x), want_fn(x)
        assert got == want and got.to_json_str() == want.to_json_str(), x
        assert sig(x) == want_sig(x), x
        assert slope(x) == want_slope(x), x


def test_an_r0_scan_of_a_form_takes_no_kernel_pieces_roots_or_sum(monkeypatch):
    # every r = 0 value, probe and slope that a form covers is one form_read and
    # the closed form: a scan and a minimizer of each family, and the family
    # points (a node at -1 carries weight but lies on no piece), call none of
    # the generic pass's steps
    import peanoquad._forms as forms
    import peanoquad.bounds as bounds
    import peanoquad.peano as peano
    import peanoquad.roots as roots
    from peanoquad import minimize_bound

    def refuse(*args):
        raise AssertionError("an r = 0 pass left the closed form")

    for module, name in ((forms, "form_pieces"), (roots, "_isolate_rational"),
                         (bounds, "_isolate_rational"), (peano, "l1_sum"), (bounds, "l1_sum"),
                         (bounds, "build_kernel")):
        monkeypatch.setattr(module, name, refuse)
    bounds._memo.cache_clear()
    for name, fixed in SCAN_FAMILIES:
        fam = family(name, **fixed)
        bound_scan(fam, 0, grid_size=33)
        minimize_bound(fam, 0)
        fn, sig, slope = _bound_fn(fam, 0)
        for x in family_points(fam):
            fn(x), sig(x), slope(x)


def test_the_r0_closed_form_needs_weights_that_sum_to_two():
    # a read whose value-node weights do not sum to 2 (the r = 0 order
    # condition) is left to the generic pass; one that does sums |c_i - t|
    from peanoquad._forms import m0_pass

    E, keys = 4, [(-4, 0), (0, 0), (4, 0)]
    midpoint = [((0, 0), (8, 0))]  # weight 2 at 0: c = -1 on (-1, 0], 1 on (0, 1]
    assert m0_pass((None, 0, 1, 0, E, (midpoint, []), keys, ())) == ((0, 0), Scalar(1))
    assert m0_pass((None, 0, 1, 0, E, ([((0, 0), (4, 0))], []), keys, ())) is None
    assert m0_pass((None, 0, 1, 1, E, ([((0, 0), (8, 1))], []), keys, ())) is None
