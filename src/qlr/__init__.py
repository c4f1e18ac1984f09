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
    InvalidCell,
    InvalidHbar,
    InvalidOverlap,
    InvalidPriors,
    NotPositiveDefinite,
    OverlapUnderflow,
    ParseError,
    QlrError,
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
from .quantum import (
    CoefficientSolution,
    OverlapMatrix,
    hbar_moderated_coefficients,
    moderation_scale,
    overlap_coefficients,
    posterior_2x2,
    posterior_general,
)
from .wavefunction import (
    cholesky_factors,
    positive_definite,
    posterior_independent,
    posterior_via_wavefunction,
)
from .checks import (
    CheckResult,
    ConstraintReport,
    cross_path_suite,
    verify_constraint_suite,
)
from .analysis import Analysis, analyze
from .oracle import (
    OracleEstimates,
    enumerate_joint_counts,
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
    "InvalidOverlap",
    "OverlapUnderflow",
    "InvalidHbar",
    "NotPositiveDefinite",
    "ParseError",
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
    "positive_definite",
    "cholesky_factors",
    "posterior_via_wavefunction",
    "posterior_independent",
    "cross_path_suite",
    "OracleEstimates",
    "enumerate_joint_counts",
    "oracle_mean_estimators",
    "Analysis",
    "analyze",
    "__version__",
]
