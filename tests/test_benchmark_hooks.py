"""Names that the benchmark in perfbench/ reads from outside the package.

perfbench/run.py watches roots._isolate_rational for its per-operation
deadline and traces rules.apply_rule by name (a traced name that no longer
exists, such as rules.map_rule_to_interval, reads as 0 calls),
and perfbench/tracer.py tells exact from interval scalars by the _frac and
_sqrt slots, and reads the coeffs and evaluate of each polynomial that
isolate_roots gets.  Renaming any of them breaks the benchmark, so pin them.
"""

import inspect
from fractions import Fraction as F

import peanoquad
from peanoquad import Scalar, family, kernel_l1_norm, make_rule, peano, roots, rules, sqrt
from util import reference_build_kernel, unshared


def test_traced_rule_functions_stay_public():
    assert "apply_rule" in peanoquad.__all__
    assert inspect.isfunction(peanoquad.apply_rule)
    assert peanoquad.apply_rule is rules.apply_rule


def test_isolate_rational_is_a_function():
    assert inspect.isfunction(roots._isolate_rational)


def test_scalar_tier_slots():
    assert {"_frac", "_sqrt"} <= set(Scalar.__slots__)
    q, s, v = Scalar(1), sqrt(Scalar(2)) + 1, Scalar.from_interval(0, 1)
    assert q._frac is not None and q._sqrt is None
    assert s._frac is None and s._sqrt is not None
    assert v._frac is None and v._sqrt is None


def test_isolate_roots_gets_each_kernel_piece_with_scalar_coefficients(monkeypatch):
    # an integer kernel piece forms its Scalar coefficients when first read:
    # the tracer's rational-input count and its end signs of a bracket see
    # the same polynomial as the Scalar reference kernel
    seen = []

    def spy(p, lo, hi):
        seen.append((p, lo, hi))
        return roots.isolate_roots(p, lo, hi)

    monkeypatch.setattr(peano, "isolate_roots", spy)
    # unshared rules: a shared one may keep its report, and isolate no piece
    cases = [(unshared(make_rule("lobatto4")), 3), (unshared(make_rule("simpson")), 1),
             (family("q44", lam=F(1, 5), gamma=F(1, 32), delta=F(5, 53)).build(F(1, 64)), 1)]
    for rule, r in cases:
        seen.clear()
        kernel_l1_norm(rule, r)
        want = reference_build_kernel(rule, r).pieces
        assert len(seen) == len(want)
        for (p, lo, hi), q in zip(seen, want):
            assert p.ints is not None
            assert p.coeffs == q.coeffs and all(type(c) is Scalar for c in p.coeffs)
            for t in (lo, (lo + hi) / 2, Scalar(F(1, 7))):
                assert p.evaluate(t) == q.evaluate(t), (rule.name, r)
