"""Shared helpers for the test suite."""

import random
from fractions import Fraction as F

from peanoquad import QuadRule, Scalar, custom_rule


def scalar_is_zero(s: Scalar) -> bool:
    return s.is_exact_zero() or s.zero_within()


def assert_scalar_equals(got: Scalar, want, tol=1e-12):
    """Exact equality on the rational path, |diff| <= tol otherwise."""
    want = want if isinstance(want, Scalar) else Scalar(want)
    if got.is_rational and want.is_rational:
        assert got.as_fraction() == want.as_fraction(), (
            f"{got.as_fraction()} != {want.as_fraction()}"
        )
    else:
        diff = abs(float(got - want))
        assert diff <= tol, f"|{float(got)} - {float(want)}| = {diff} > {tol}"


def random_rational_rule(
    rng: random.Random,
    with_derivs: bool = False,
    force_degree_one: bool = False,
) -> QuadRule:
    """Random rule with rational data and weight sum exactly 2 (degree >= 0).

    With `with_derivs` the rule gains random derivative nodes; with
    `force_degree_one` the last derivative weight is adjusted so the
    first-moment remainder vanishes too (degree of exactness >= 1).
    """
    while True:
        n = rng.randint(1, 4)
        xs = sorted({F(rng.randint(-20, 20), 21) for _ in range(n)})
        if not xs:
            continue
        ws = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in xs[:-1]]
        ws.append(2 - sum(ws, F(0)))
        ys, bs = [], []
        if with_derivs:
            m = rng.randint(1, 2)
            ys = sorted({F(rng.randint(-20, 20), 23) for _ in range(m)})
            bs = [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in ys]
            if force_degree_one:
                first_moment = sum(w * x for x, w in zip(xs, ws)) + sum(bs[:-1], F(0))
                bs[-1] = -first_moment
        try:
            rule = custom_rule("random", list(zip(xs, ws)), list(zip(ys, bs)))
        except Exception:
            continue
        if rule.value_nodes:
            return rule
