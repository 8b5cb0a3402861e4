"""Monomial remainders and the precise degree of exactness of a rule.

A remainder counts as zero by ``Scalar.zero_within``: exactly zero, or an
interval enclosing zero narrower than 10**-(working dps // 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rules import QuadRule
from .scalars import Scalar

#: A nonzero value this close to its own error radius gets flagged.
AMBIGUITY_FACTOR = 10


@dataclass(frozen=True)
class ExactnessReport:
    """Remainders R(e_0..e_K), the resolved degree, and numeric health flags.

    ``degree`` is -1 when even constants are not integrated exactly.  When
    every tested remainder vanished, ``at_least`` is True and ``degree``
    equals the largest k tested.  ``ambiguous_indices`` lists k where the
    zero/nonzero call was numerically uncomfortable.
    """

    remainders: tuple[Scalar, ...]
    degree: int
    first_nonzero_index: int | None
    at_least: bool
    ambiguous_indices: tuple[int, ...]


def integral_of_monomial(k: int) -> Scalar:
    """Exact value of the integral of t**k over [-1, 1]."""
    return Scalar(Fraction(2, k + 1)) if k % 2 == 0 else Scalar(0)


def remainder_on_monomial(rule: QuadRule, k: int) -> Scalar:
    """R(e_k): integral of t**k minus the rule applied to t**k.

    Exact whenever every node and weight is rational or lies in one field
    Q(sqrt m), so symmetric irrational contributions cancel exactly.
    """
    if k < 0:
        raise ValueError("monomial index must be nonnegative")
    terms = [a * x**k for x, a in rule.value_nodes]
    if k >= 1:
        terms.extend(b * k * y ** (k - 1) for y, b in rule.deriv_nodes)
    return integral_of_monomial(k) - sum(terms, Scalar(0))


def _classify(value: Scalar) -> tuple[str, bool]:
    """('zero'|'nonzero', ambiguous_flag) for a remainder value."""
    if value.is_rational:
        return ("zero" if value.as_fraction() == 0 else "nonzero", False)
    if value.zero_within():
        return "zero", False
    if value.contains_zero():
        # straddles zero but too wide to certify: treat as a nonzero stop,
        # flagged, so callers can raise the working precision
        return "nonzero", True
    ambiguous = abs(float(value)) < AMBIGUITY_FACTOR * value.radius()
    return "nonzero", ambiguous


def degree_of_exactness(rule: QuadRule, k_max: int = 20) -> ExactnessReport:
    """Smallest k with R(e_k) != 0 determines the precise degree k - 1.

    If every remainder up to k_max vanishes the report carries
    ``at_least=True`` and ``degree == k_max``.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    remainders = []
    flags = []
    for k in range(k_max + 1):
        r = remainder_on_monomial(rule, k)
        remainders.append(r)
        kind, ambiguous = _classify(r)
        if ambiguous:
            flags.append(k)
        if kind == "nonzero":
            return ExactnessReport(
                remainders=tuple(remainders),
                degree=k - 1,
                first_nonzero_index=k,
                at_least=False,
                ambiguous_indices=tuple(flags),
            )
    return ExactnessReport(
        remainders=tuple(remainders),
        degree=k_max,
        first_nonzero_index=None,
        at_least=True,
        ambiguous_indices=tuple(flags),
    )

