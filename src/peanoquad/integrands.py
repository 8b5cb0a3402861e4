"""Named integrands with their derivatives: exp, sin, cos, runge 1/(1 + 25t^2)
and poly:c0,c1,...  The float ones read t only through float(), so the panel
sums evaluate them at floats read from exact nodes' integers (``rules._sum_panels``)."""

import math

from .polynomials import Polynomial
from .scalars import Scalar


def cos_prime(t) -> float:
    return -math.sin(float(t))


def runge(t) -> float:
    return 1.0 / (1.0 + 25.0 * float(t) ** 2)


def runge_prime(t) -> float:
    return -50.0 * float(t) / (1.0 + 25.0 * float(t) ** 2) ** 2


NAMED = {"exp": (math.exp, math.exp), "sin": (math.sin, math.cos), "cos": (math.cos, cos_prime),
         "runge": (runge, runge_prime)}
FLOAT_INTEGRANDS = tuple({g: None for pair in NAMED.values() for g in pair})


def named_integrand(spec: str):
    """(f, f') for exp, sin, cos, runge, or poly:c0,c1,... (each c_i read by Scalar.parse)."""
    if spec.startswith("poly:"):
        p = Polynomial(Scalar.parse(c) for c in spec[len("poly:"):].split(","))
        return p, p.derivative()
    if spec not in NAMED:
        raise ValueError(f"unknown function {spec!r}; use exp, sin, cos, runge, or poly:c0,c1,...")
    return NAMED[spec]
