"""Kernels of family rules read from their fitted forms: the pieces of
K_r(t; x) as integer polynomials in x, evaluated at x or x + d*eps."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from peanoquad import (OrderExceedsExactness, ParamOutOfDomain, QuadRule, Scalar, build_kernel,
                       family, kernel_l1_norm, make_rule)
from peanoquad._forms import form_kernel
from peanoquad.scalars import _Dual

from util import SCAN_FAMILIES, family_points


def _generic(rule):
    """A rule with the same Scalars and no read: the generic kernel lane."""
    return QuadRule(rule.name, rule.value_nodes, rule.deriv_nodes, rule.params)


def _view(v):
    return type(v), [c.to_json_str() for c in _Dual.parts(v)]


def _kernel_view(rule, r):
    """Breakpoints, integer pieces as rationals, and M_r, each value with its derivative."""
    k = build_kernel(rule, r)
    return ([_view(b) for b in k.breakpoints],
            [([F(a, den) for a in A], [F(b, den) for b in B], m) for A, B, den, m in k.exact],
            _view(kernel_l1_norm(rule, r).l1_norm))


@pytest.mark.parametrize("name,fixed", SCAN_FAMILIES)
def test_form_kernels_equal_the_generic_kernels_of_the_same_scalars(name, fixed):
    fam = family(name, **fixed)
    for x in family_points(fam):
        for arg in (Scalar(x), _Dual(x, 1), _Dual(x, -1), _Dual(x, F(3, 7))):
            try:
                rule = fam.build(arg)
            except ParamOutOfDomain:  # x + d*eps at a closed end, pointing out of the domain
                assert type(arg) is _Dual and x in (fam.domain.lo, fam.domain.hi)
                continue
            for r in range(fam.generic_degree + 1):
                assert form_kernel(vars(rule)["_read"], r) is not None
                assert _kernel_view(rule, r) == _kernel_view(_generic(rule), r), (x, arg, r)


def test_mod3_opt_at_r0_flips_to_a_positive_denominator():
    # D(x) = 3x**2 - 3 < 0 on the domain; at x = 1/3 the weight at 1 is 0
    fam = family("mod3_opt")
    for arg in (Scalar(F(1, 3)), _Dual(F(1, 3), 1)):
        rule = fam.build(arg)
        kernel = form_kernel(vars(rule)["_read"], 0)
        assert [b.as_fraction() for b in kernel.breakpoints] == [-1, F(1, 3), 1]
        assert all(den > 0 for _, _, den, _ in kernel.exact)
        assert _kernel_view(rule, 0) == _kernel_view(_generic(rule), 0)
    assert kernel_l1_norm(fam.build(F(1, 3)), 0).l1_norm == Scalar(F(25, 36))


def test_mod3_at_two_thirds_falls_back_where_the_identity_in_x_fails():
    fam = family("mod3", lam=F(2, 3))
    simpson = fam.build(0)  # weights 1/3, 4/3, 1/3: degree 3 at this x alone
    assert [form_kernel(vars(simpson)["_read"], r) is None for r in range(4)] == [
        False, False, True, True]
    assert kernel_l1_norm(simpson, 3).l1_norm == Scalar(F(1, 90))
    assert _kernel_view(simpson, 3) == _kernel_view(make_rule("simpson"), 3)
    with pytest.raises(OrderExceedsExactness):
        build_kernel(fam.build(F(1, 3)), 2)


@pytest.mark.parametrize("read_first", [False, True])
def test_a_form_rule_survives_pickle_deepcopy_and_repr(read_first):
    fam = family("liu_park")
    for x in (Scalar(F(1, 3)), _Dual(F(1, 3), 1)):
        rule = fam.build(x)
        if read_first:
            assert len(rule.deriv_nodes) == 2
        copies = [pickle.loads(pickle.dumps(rule)), copy.deepcopy(rule)]
        for got in copies:
            assert ("value_nodes" in vars(got)) is read_first
            assert vars(got)["_read"][1:] == vars(rule)["_read"][1:]
            assert repr(got) == repr(rule)
            assert _kernel_view(got, 1) == _kernel_view(rule, 1)
