"""Likelihood ratios over contingency tables with co-dependent features.

Classical estimators (single-feature update, naive product, mean-frequency,
mean-range), an overlap-coefficient posterior that accounts for feature
co-dependence, a state-vector verification path, and a brute-force
enumeration oracle.  The ``qlr`` command line wraps all of it.
"""

from .errors import (
    BadIndex,
    BadShape,
    DegenerateRange,
    InvalidBasis,
    InvalidCell,
    InvalidHbar,
    InvalidOverlap,
    InvalidPriors,
    NonPositiveTotal,
    NotCounts,
    NotPositiveDefinite,
    OverlapUnderflow,
    ParseError,
    QlrError,
    ShapeMismatch,
    Unsupported,
)
from .tables import (
    ContingencyTable,
    CountTable,
    IntegerRange,
    from_counts,
    intersection_range,
    new_table,
)
from .classical import (
    METHODS,
    PosteriorDistribution,
    bayes_posterior,
    mean_frequency_posterior,
    mean_range_posterior,
    naive_posterior,
)
from .checks import CheckResult, ConstraintReport
from .quantum import (
    CoefficientSolution,
    OverlapMatrix,
    hbar_moderated_coefficients,
    moderation_scale,
    overlap_coefficients,
    posterior_2x2,
    posterior_general,
    verify_constraint_suite,
)
from .wavefunction import (
    OrthonormalBasis,
    StateVector,
    cross_path_suite,
    gram_schmidt_basis,
    posterior_independent,
    posterior_via_wavefunction,
    solve_b_coefficients,
)
from .oracle import (
    EnumerationResult,
    HypothesisEnumeration,
    OracleEstimates,
    enumerate_joint_counts,
    enumerate_table,
    oracle_mean_estimators,
)

__version__ = "0.1.0"

__all__ = [
    "QlrError",
    "BadShape",
    "InvalidCell",
    "InvalidPriors",
    "BadIndex",
    "Unsupported",
    "DegenerateRange",
    "ShapeMismatch",
    "InvalidOverlap",
    "OverlapUnderflow",
    "NonPositiveTotal",
    "InvalidHbar",
    "NotPositiveDefinite",
    "InvalidBasis",
    "ParseError",
    "NotCounts",
    "ContingencyTable",
    "CountTable",
    "IntegerRange",
    "new_table",
    "from_counts",
    "intersection_range",
    "METHODS",
    "PosteriorDistribution",
    "bayes_posterior",
    "naive_posterior",
    "mean_frequency_posterior",
    "mean_range_posterior",
    "OverlapMatrix",
    "CoefficientSolution",
    "CheckResult",
    "ConstraintReport",
    "overlap_coefficients",
    "hbar_moderated_coefficients",
    "moderation_scale",
    "posterior_2x2",
    "posterior_general",
    "verify_constraint_suite",
    "OrthonormalBasis",
    "StateVector",
    "gram_schmidt_basis",
    "solve_b_coefficients",
    "posterior_via_wavefunction",
    "posterior_independent",
    "cross_path_suite",
    "EnumerationResult",
    "HypothesisEnumeration",
    "OracleEstimates",
    "enumerate_joint_counts",
    "enumerate_table",
    "oracle_mean_estimators",
    "__version__",
]
