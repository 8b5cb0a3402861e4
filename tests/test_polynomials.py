"""Polynomial ring operations, evaluation, and antiderivatives."""

import random
from fractions import Fraction as F

import mpmath
import pytest

from peanoquad import Polynomial, Scalar, sqrt


def rand_poly(rng, max_deg=5):
    deg = rng.randint(0, max_deg)
    return Polynomial([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg + 1)])


def test_basic_products():
    one_plus_t = Polynomial([1, 1])
    sq = one_plus_t * one_plus_t
    assert sq == Polynomial([1, 2, 1])
    p = Polynomial([F(1, 2), 3, F(-2, 7)])
    assert (p - p).is_zero
    assert (p - p).degree == -1


def test_simpson_kernel_piece_assembly():
    # (1+t)^3 * (3t-1) / 72 has these exact coefficients
    piece = Polynomial([1, 1]) ** 3 * Polynomial([-1, 3]) * Scalar(F(1, 72))
    assert piece == Polynomial([F(-1, 72), 0, F(1, 12), F(1, 9), F(1, 24)])


def test_eval_examples():
    p = Polynomial([1, 0, 1])  # t^2 + 1
    assert p(F(1, 4)).as_fraction() == F(17, 16)
    assert Polynomial()(F(123, 7)).as_fraction() == 0


def test_eval_at_sqrt_point_matches_high_precision():
    p = Polynomial([1, -1]) ** 4 * Scalar(F(1, 24))  # (1-t)^4 / 24
    got = p(sqrt(Scalar(F(1, 3))))
    with mpmath.workdps(50):
        ref = (1 - 1 / mpmath.sqrt(3)) ** 4 / 24
    assert abs(float(got) - float(ref)) < 1e-14


def test_ring_axioms_at_random_points():
    rng = random.Random(20260808)
    for _ in range(30):
        p, q, r = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        t = F(rng.randint(-50, 50), rng.randint(1, 50))
        assert (p + q)(t) == p(t) + q(t)
        assert (p * q)(t) == p(t) * q(t)
        assert ((p * q) * r)(t) == (p * (q * r))(t)
        assert (p * (q + r))(t) == (p * q)(t) + (p * r)(t)


def test_degree_of_products():
    rng = random.Random(7)
    for _ in range(10):
        p, q = rand_poly(rng), rand_poly(rng)
        if p.is_zero or q.is_zero:
            continue
        assert (p * q).degree == p.degree + q.degree


def test_antiderivative_basics():
    assert Polynomial([1]).antiderivative() == Polynomial([0, 1])       # 1 -> t
    assert Polynomial([0, 0, 3]).antiderivative() == Polynomial([0, 0, 0, 1])  # 3t^2 -> t^3
    rng = random.Random(99)
    for _ in range(10):
        p = rand_poly(rng)
        Fp = p.antiderivative()
        assert Fp.derivative() == p
        assert Fp(0).as_fraction() == 0


def test_simpson_piece_half_integral():
    # the left Simpson kernel piece integrates to -1/180 over [-1, 0]
    piece = Polynomial([1, 1]) ** 3 * Polynomial([-1, 3]) * Scalar(F(1, 72))
    val = piece.definite_integral(-1, 0)
    assert val.as_fraction() == F(-1, 180)
    # independent quadrature oracle
    ref = mpmath.quad(lambda t: (1 + t) ** 3 * (3 * t - 1) / 72, [-1, 0])
    assert abs(float(val) - float(ref)) < 1e-15


@pytest.mark.parametrize("deg", range(9))
def test_antiderivative_matches_numeric_integral(deg):
    rng = random.Random(1000 + deg)
    p = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg + 1)])
    a, b = F(-3, 4), F(5, 8)
    exact = p.definite_integral(a, b)
    ref = mpmath.quad(lambda t: float(p(Scalar(mpmath.mpf(t)))), [float(a), float(b)])
    assert abs(float(exact) - float(ref)) < 1e-12


def test_derivative():
    p = Polynomial([5, 3, 0, 2])  # 5 + 3t + 2t^3
    assert p.derivative() == Polynomial([3, 0, 6])
    assert Polynomial([7]).derivative().is_zero


def test_integer_pieces_over_q_eps_are_refused_where_they_are_made():
    # (A + B*eps)/den is no polynomial over Q(sqrt m): its coefficients would
    # read as a + b*sqrt(0), an exact non-rational Scalar
    with pytest.raises(ValueError, match="Q\\[eps\\]"):
        Polynomial.of_ints([1, 2], [3, 0], 5, 0)
    p = Polynomial.of_ints([1, 2], [3, 0], 5, 2)
    assert p.coeffs == (Scalar(F(1, 5)) + F(3, 5) * sqrt(Scalar(2)), Scalar(F(2, 5)))


def _scalar_horner(p, t):
    """Reference: p(t) by Horner's rule in Scalar arithmetic."""
    acc = Scalar(0)
    for c in reversed(p.coeffs):
        acc = acc * t + c
    return acc


def _spelled(x):
    from peanoquad.scalars import _Dual

    v, d = _Dual.parts(x)
    return [(s.to_json_str(), s.is_rational, s.is_exact, s.bounds()) for s in (v, d)]


def test_evaluate_matches_the_scalar_horner_loop():
    from peanoquad.scalars import _Dual

    rng = random.Random(4711)
    points = [Scalar(F(-7, 3)), Scalar(0), Scalar(F(5, 11)), sqrt(Scalar(F(1, 3))),
              Scalar(F(1, 2)) - sqrt(Scalar(5)),
              Scalar.from_interval(F(1, 3) - F(1, 10**30), F(1, 3) + F(1, 10**30)),
              _Dual(Scalar(F(2, 7)), 1), _Dual(sqrt(Scalar(2)), F(-1, 3))]
    for _ in range(20):
        p = rand_poly(rng)
        dual_coeffs = Polynomial([_Dual(c, F(rng.randint(-3, 3), 5)) if rng.random() < 0.5 else c
                                  for c in p.coeffs])
        for q in (p, dual_coeffs, Polynomial()):
            for t in points:
                assert _spelled(q(t)) == _spelled(_scalar_horner(q, t)), (q, t)
