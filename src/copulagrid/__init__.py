"""Computable finite-dimensional copula measures and their joint laws.

The package covers six connected pieces: one-dimensional marginals and
tensor measures on product grids (:mod:`~copulagrid.measures`), checkerboard
copulas (:mod:`~copulagrid.copulas`), projective families over finite index
subsets with consistency checking (:mod:`~copulagrid.projective`), the
quantile composition of copulas with marginals and its inverse
(:mod:`~copulagrid.sklar`), exact transport metrics with compactness and
continuity probes (:mod:`~copulagrid.topology`), and the extremal structure
of the two-dimensional checkerboard polytope (:mod:`~copulagrid.extremal`).
"""

from .copulas import (
    CheckerboardCopula,
    cdf_eval_copula,
    fit_uniform_margins,
    make_comonotone,
    make_countermonotone,
    make_independence,
    marginalize_copula,
    random_copula,
    to_tensor_measure,
    validate_copula,
)
from .errors import (
    CompatibilityError,
    ConfigurationError,
    CopulaGridError,
    DomainError,
    EvaluationError,
    InternalError,
    ParseError,
    UnsupportedError,
    ValidationError,
)
from .extremal import birkhoff_decompose, maximize_convex, permutation_copula
from .measures import (
    NEG_INF,
    POS_INF,
    Marginal,
    TensorMeasure,
    atomize,
    cdf_eval,
    cdf_eval_tensor,
    marginalize_tensor,
    pushforward_tensor,
    quantile,
)
from .projective import (
    IndexUniverse,
    ProjectiveFamily,
    canonical_subsets,
    check_consistency,
    comonotone_family,
    family_from_copula,
    family_from_joint,
    family_member,
    independence_family,
)
from .sklar import JointMeasure, compose, decompose, discretize_joint, joint_cdf, verify_sklar
from .topology import (
    FddMetricConfig,
    compactness_probe,
    continuity_probe,
    fdd_distance,
    phi,
    phi_inv,
    transport_distance,
    transport_plan,
    w1_one_dim,
)

__version__ = "0.1.0"

__all__ = [
    "CheckerboardCopula",
    "CompatibilityError",
    "ConfigurationError",
    "CopulaGridError",
    "DomainError",
    "EvaluationError",
    "FddMetricConfig",
    "IndexUniverse",
    "InternalError",
    "JointMeasure",
    "Marginal",
    "NEG_INF",
    "POS_INF",
    "ParseError",
    "ProjectiveFamily",
    "TensorMeasure",
    "UnsupportedError",
    "ValidationError",
    "atomize",
    "birkhoff_decompose",
    "canonical_subsets",
    "cdf_eval",
    "cdf_eval_copula",
    "cdf_eval_tensor",
    "check_consistency",
    "comonotone_family",
    "compactness_probe",
    "compose",
    "continuity_probe",
    "decompose",
    "discretize_joint",
    "family_from_copula",
    "family_from_joint",
    "family_member",
    "fdd_distance",
    "fit_uniform_margins",
    "independence_family",
    "joint_cdf",
    "make_comonotone",
    "make_countermonotone",
    "make_independence",
    "marginalize_copula",
    "marginalize_tensor",
    "maximize_convex",
    "permutation_copula",
    "phi",
    "phi_inv",
    "pushforward_tensor",
    "quantile",
    "random_copula",
    "to_tensor_measure",
    "transport_distance",
    "transport_plan",
    "validate_copula",
    "verify_sklar",
    "w1_one_dim",
]
