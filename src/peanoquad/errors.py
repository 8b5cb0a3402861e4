"""Exception types shared across the package."""


class PeanoQuadError(Exception):
    """Base class for all library errors."""


class DegreeTooHigh(PeanoQuadError):
    """Polynomial degree exceeds what the root isolator is willing to handle."""


class UnknownRule(PeanoQuadError):
    """Rule name not in the catalog, or a parameter name the rule does not take."""


class ParamOutOfDomain(PeanoQuadError):
    """Rule parameter outside the admissible domain of its family."""


class AmbiguousOrder(PeanoQuadError):
    """``<`` on overlapping enclosures; ``Scalar.lt_definite`` answers None there."""


class BadInterval(PeanoQuadError):
    """Integration interval with a >= b."""


class MissingDerivative(PeanoQuadError):
    """Rule has derivative nodes but no derivative was supplied."""


class OrderExceedsExactness(PeanoQuadError):
    """Kernel order r exceeds the degree of exactness; the kernel identity fails."""


class PointOutsideBox(PeanoQuadError):
    """Evaluation point outside the closed box domain."""


class InvalidPartition(PeanoQuadError):
    """Partition is not 0 = a_0 < a_1 < ... < a_n = 1, or a tag point leaves its panel."""
