"""Names that the benchmark in perfbench/ reads from outside the package.

perfbench/run.py watches roots._isolate_rational for its per-operation
deadline and traces rules.apply_rule by name (a traced name that no longer
exists, such as rules.map_rule_to_interval, reads as 0 calls),
and perfbench/tracer.py tells exact from interval scalars by the _frac and
_sqrt slots.  Renaming any of them breaks the benchmark, so pin them.
"""

import inspect

import peanoquad
from peanoquad import Scalar, roots, rules, sqrt


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
