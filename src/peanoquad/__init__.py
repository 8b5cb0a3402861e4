"""Peano-kernel analysis of Birkhoff-type quadrature rules on [-1, 1].

Compute degrees of exactness, build Peano kernels as piecewise polynomials,
evaluate the sharp sup-norm error constants M_r = integral of |K_r|, scan and
minimize bound functions over rule families, and integrate with a-priori
error certificates.
"""

from .bounds import (
    BoundScan,
    BoxDomain,
    MinimizeResult,
    alomari4_min_m0,
    bound_scan,
    composite_partition_bound,
    error_bound,
    export_scan_csv,
    export_scan_json,
    minimize_bound,
    multidim_ostrowski_bound,
)
from .composite import CompositeResult, composite_integrate, panels_for_tolerance
from .errors import (
    AmbiguousOrder,
    BadInterval,
    DegreeTooHigh,
    InvalidPartition,
    MissingDerivative,
    OrderExceedsExactness,
    ParamOutOfDomain,
    PeanoQuadError,
    PointOutsideBox,
    UnknownRule,
)
from .exactness import (
    ExactnessReport,
    degree_of_exactness,
    integral_of_monomial,
    remainder_on_monomial,
)
from .peano import (
    KernelReport,
    PiecewisePolynomial,
    build_kernel,
    export_kernel_csv,
    export_kernel_json,
    kernel_l1_norm,
    verify_peano_identity,
)
from .polynomials import Polynomial
from .roots import Root, isolate_roots
from .rules import (
    QuadRule,
    RuleFamily,
    apply_rule,
    catalog_names,
    custom_rule,
    family,
    make_rule,
    rule_from_json,
    rule_from_json_dict,
    rule_to_json,
    rule_to_json_dict,
)
from .scalars import Scalar, as_scalar, get_working_dps, set_working_dps, sqrt

__version__ = "0.1.0"

__all__ = [
    "AmbiguousOrder",
    "BadInterval",
    "BoundScan",
    "BoxDomain",
    "CompositeResult",
    "DegreeTooHigh",
    "ExactnessReport",
    "InvalidPartition",
    "KernelReport",
    "MinimizeResult",
    "MissingDerivative",
    "OrderExceedsExactness",
    "ParamOutOfDomain",
    "PeanoQuadError",
    "PiecewisePolynomial",
    "PointOutsideBox",
    "Polynomial",
    "QuadRule",
    "Root",
    "RuleFamily",
    "Scalar",
    "UnknownRule",
    "alomari4_min_m0",
    "apply_rule",
    "as_scalar",
    "bound_scan",
    "build_kernel",
    "catalog_names",
    "custom_rule",
    "composite_integrate",
    "composite_partition_bound",
    "degree_of_exactness",
    "error_bound",
    "export_kernel_csv",
    "export_kernel_json",
    "export_scan_csv",
    "export_scan_json",
    "family",
    "get_working_dps",
    "integral_of_monomial",
    "isolate_roots",
    "kernel_l1_norm",
    "make_rule",
    "minimize_bound",
    "multidim_ostrowski_bound",
    "panels_for_tolerance",
    "remainder_on_monomial",
    "rule_from_json",
    "rule_from_json_dict",
    "rule_to_json",
    "rule_to_json_dict",
    "set_working_dps",
    "sqrt",
    "verify_peano_identity",
]
