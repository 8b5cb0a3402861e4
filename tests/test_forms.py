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
