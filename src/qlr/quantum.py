"""Overlap-coefficient posteriors for co-dependent features.

The central idea: encode a contingency table as amplitudes over
hypothesis-feature states, let same-hypothesis feature states overlap with
inner products ``c[a][i][j]``, and read the posterior off the per-hypothesis
amplitude block sums

    P(H_a | all D) ∝ w_a * sum_{i,j} sqrt(x[i,a] * x[j,a]) * c[a][i][j]

where ``w_a`` is the prior weight.  For 2 features x 2 hypotheses the
coefficients are fixed in closed form by symmetry and known-value
constraints; for any other shape the caller supplies them.

:func:`qlr.checks.verify_constraint_suite` re-derives the constraints that
pin the closed form (known-value tables, row/column exchange symmetry,
complementarity) and checks them over randomized inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .classical import PosteriorDistribution
from .errors import (
    InvalidHbar,
    InvalidOverlap,
    NonPositiveTotal,
    OverlapUnderflow,
    ShapeMismatch,
    Unsupported,
)
from .tables import ContingencyTable

# A Gram matrix counts as positive definite when every eigenvalue clears this.
PD_EIGENVALUE_TOL = 1e-12

_SYMMETRY_TOL = 1e-12


def _clears_tolerance(block: list[list[float]]) -> bool:
    """Whether every eigenvalue of the symmetric ``block`` exceeds
    ``PD_EIGENVALUE_TOL``: whether ``block - PD_EIGENVALUE_TOL * I`` has a
    Cholesky factor.

    Reads the lower triangle, as ``eigvalsh`` does, and stops at the first
    pivot that is not ``> 0.0``, which also refuses a block whose entries
    near the float limit make a pivot -inf or NaN.
    """
    lower: list[list[float]] = []
    for i, row in enumerate(block):
        factor_row = []
        for j in range(i):
            earlier = lower[j]
            s = row[j]
            for k in range(j):
                s -= factor_row[k] * earlier[k]
            factor_row.append(s / earlier[j])
        pivot = row[i] - PD_EIGENVALUE_TOL
        for v in factor_row:
            pivot -= v * v
        if not pivot > 0.0:
            return False
        factor_row.append(math.sqrt(pivot))
        lower.append(factor_row)
    return True


@dataclass(frozen=True, eq=False)
class OverlapMatrix:
    """Per-hypothesis symmetric unit-diagonal overlap coefficients.

    ``c`` is a read-only float64 array of shape (n_hypotheses, m_features,
    m_features); ``c[a][i][j]`` is the inner product between the feature-``i``
    and feature-``j`` states of hypothesis ``a``.  0 means independent
    features, 1 coincident.  ``c`` stays an array because both its readers
    are numpy kernels; ``==`` and ``hash`` go by identity.
    """

    c: np.ndarray
    # Filled by the first read of ``positive_definite``; ``replace`` resets it.
    _positive_definite: tuple[bool, ...] | None = field(
        init=False, default=None, repr=False
    )

    def __post_init__(self):
        try:
            c = np.array(self.c, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidOverlap(f"overlap must be an (n, m, m) array of numbers ({exc})") from exc
        if c.ndim != 3 or c.shape[1] != c.shape[2]:
            raise InvalidOverlap(
                f"overlap must be (n, m, m) per-hypothesis square matrices, got {c.shape}"
            )
        # One pass over the entries; a non-finite entry outranks the other
        # two rules wherever it lies, so those are raised after the pass.
        bad_diagonal = bad_symmetry = False
        for block in c.tolist():
            for i, row in enumerate(block):
                for v in row:
                    if not -math.inf < v < math.inf:
                        raise InvalidOverlap("overlap coefficients must be finite")
                if abs(row[i] - 1.0) > _SYMMETRY_TOL:
                    bad_diagonal = True
                for j in range(i):
                    if abs(row[j] - block[j][i]) > _SYMMETRY_TOL:
                        bad_symmetry = True
        if bad_diagonal:
            raise InvalidOverlap("overlap diagonal entries must equal 1")
        if bad_symmetry:
            raise InvalidOverlap("overlap matrices must be symmetric")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        """Number of hypotheses."""
        return self.c.shape[0]

    @property
    def m(self) -> int:
        """Number of features."""
        return self.c.shape[1]

    @property
    def positive_definite(self) -> tuple[bool, ...]:
        """Per hypothesis, whether every eigenvalue of ``c[a]`` clears
        ``PD_EIGENVALUE_TOL``.

        Decided without computing an eigenvalue: ``c[a]`` passes exactly when
        ``c[a] - PD_EIGENVALUE_TOL * I`` has a Cholesky factor, which a
        plain-Python factorisation of each block finds out.  Computed on the
        first read and kept; later reads return the same tuple.
        """
        flags = self._positive_definite
        if flags is None:
            flags = tuple([_clears_tolerance(block) for block in self.c.tolist()])
            object.__setattr__(self, "_positive_definite", flags)
        return flags

    def check_fits(self, table: ContingencyTable) -> None:
        """Require one m x m matrix per hypothesis of ``table``.

        Raises:
            ShapeMismatch: the overlap dimensions disagree with the table.
        """
        if self.c.shape != (table.n, table.m, table.m):
            raise ShapeMismatch(
                f"overlap shape {self.c.shape} does not match "
                f"{(table.n, table.m, table.m)} for a {table.m}x{table.n} table"
            )

    @classmethod
    def coerce(cls, overlap: "OverlapMatrix | Any") -> "OverlapMatrix":
        """``overlap`` itself when it is an OverlapMatrix, else the
        OverlapMatrix built (and validated) from it."""
        return overlap if isinstance(overlap, cls) else cls(overlap)

    @classmethod
    def identity(cls, n_hypotheses: int, m_features: int) -> "OverlapMatrix":
        """All features orthogonal (independent) under every hypothesis."""
        return cls(np.broadcast_to(np.eye(m_features), (n_hypotheses, m_features, m_features)))

    @classmethod
    def from_pair(cls, c1: float, c2: float) -> "OverlapMatrix":
        """2 features x 2 hypotheses overlap with off-diagonals c1, c2."""
        return cls([[[1.0, c1], [c1, 1.0]], [[1.0, c2], [c2, 1.0]]])


@dataclass(frozen=True)
class CoefficientSolution:
    """Closed-form overlap coefficients for a 2x2 table."""

    c1: float
    c2: float

    @property
    def within_unit_interval(self) -> bool:
        """Whether both coefficients lie strictly inside (-1, 1)."""
        return -1.0 < self.c1 < 1.0 and -1.0 < self.c2 < 1.0


def overlap_coefficients(table: ContingencyTable) -> CoefficientSolution:
    """Closed-form overlap coefficients for 2 features x 2 hypotheses.

    With ``x1, y1`` the first hypothesis's two cells and ``x2, y2`` the
    second's:

        c1 = sqrt(x1 * y1) / (2 * x2 * y2)
        c2 = sqrt(x2 * y2) / (2 * x1 * y1)

    This is the unique data-dependent solution compatible with row-exchange
    symmetry, column-exchange duality, and the known-value tables exercised
    by :func:`qlr.checks.verify_constraint_suite`.  The formula can leave
    the unit interval for lopsided tables; ``within_unit_interval`` flags
    that case.

    Raises:
        Unsupported: table shape is not 2x2.
        OverlapUnderflow: a cell product underflows to zero or a coefficient
            is not finite (cell products too small).
    """
    x1, y1, x2, y2 = _cells_2x2(table, "coefficients exist")
    p1, p2 = x1 * y1, x2 * y2
    _check_products(p1, p2)
    c1 = math.sqrt(p1) / (2.0 * x2 * y2)
    c2 = math.sqrt(p2) / (2.0 * x1 * y1)
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise OverlapUnderflow(f"overlap coefficients must be finite, got c1={c1!r}, c2={c2!r}")
    return CoefficientSolution(c1, c2)


def _cells_2x2(table: ContingencyTable, result: str) -> tuple[float, float, float, float]:
    """The closed form's cells ``x1, y1, x2, y2``, hypothesis 1's two then
    hypothesis 2's; raises Unsupported, naming ``result``, unless 2x2."""
    if (table.m, table.n) != (2, 2):
        raise Unsupported(f"closed-form {result} only for 2x2 tables, got {table.m}x{table.n}")
    (x1, x2), (y1, y2) = table.x
    return x1, y1, x2, y2


def _check_products(p1: float, p2: float) -> None:
    """Raises OverlapUnderflow when a column's cell product underflows to 0."""
    if p1 == 0.0 or p2 == 0.0:
        raise OverlapUnderflow(
            f"cell products underflow to zero ({p1!r} and {p2!r}); "
            "the overlap ratio is undefined"
        )


def moderation_scale(hbar: float) -> float:
    """``1 - exp(-hbar)``, the factor ``hbar`` applies to the overlaps; raises
    InvalidHbar unless hbar is finite and >= 0."""
    try:
        h = float(hbar)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidHbar(f"moderation scale must be a finite number, got {hbar!r}") from exc
    if not math.isfinite(h) or h < 0.0:
        raise InvalidHbar(f"moderation scale must be finite and nonnegative, got {hbar!r}")
    return -math.expm1(-h)


def hbar_moderated_coefficients(c1: float, c2: float, hbar: float) -> tuple[float, float]:
    """Scale both overlap coefficients by ``1 - exp(-hbar)``.

    ``hbar = 0`` switches the overlaps off entirely (independent-feature
    limit); large ``hbar`` leaves them untouched.

    Raises:
        InvalidHbar: negative or non-finite moderation scale.
        InvalidOverlap: a coefficient is not a finite number.
    """
    scale = moderation_scale(hbar)
    try:
        c1, c2 = float(c1), float(c2)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidOverlap(f"overlap coefficients must be numbers ({exc})") from exc
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise InvalidOverlap(f"overlap coefficients must be finite, got {c1!r}, {c2!r}")
    return (c1 * scale, c2 * scale)


def _block_sums(table: ContingencyTable, overlap: OverlapMatrix) -> list[float]:
    """Per-hypothesis amplitude block sums
    ``sum_{i,j} sqrt(x[i,a] * x[j,a]) * c[a][i][j]``.

    The diagonal contributes exactly ``sum_i x[i,a]`` (unit diagonal), so it
    is added separately rather than through sqrt products.
    """
    # One row per hypothesis, contiguous, so that each row sum and each
    # quadratic form is the same reduction a single column would get.
    cols = np.array(table.x).T.copy()
    s = np.sqrt(cols)
    off = overlap.c.copy()
    diagonal = np.arange(table.m)
    off[:, diagonal, diagonal] = 0.0
    # Overlaps near the float limit overflow a block to inf or nan, which
    # normalization then rejects with a typed error, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        forms = (s[:, None, :] @ off @ s[:, :, None])[:, 0, 0]
        return (cols.sum(axis=1) + forms).tolist()


def posterior_general(
    table: ContingencyTable, overlap: OverlapMatrix | Any
) -> PosteriorDistribution:
    """Posterior for any table shape under caller-supplied overlaps.

    ``P(H_a) ∝ w_a * sum_{i,j} sqrt(x[i,a] * x[j,a]) * c[a][i][j]`` with
    ``w_a = priors[a] * n``.  Zero off-diagonals reduce this to prior-weighted
    column sums.

    Raises:
        InvalidOverlap: coefficients violate unit-diagonal/symmetry rules.
        ShapeMismatch: overlap dimensions disagree with the table.
        NonPositiveTotal: some hypothesis block sum is not positive.
    """
    overlap = OverlapMatrix.coerce(overlap)
    overlap.check_fits(table)
    blocks = _block_sums(table, overlap)
    for a, block in enumerate(blocks):
        if block <= 0.0:
            raise NonPositiveTotal(
                f"hypothesis {a} block sum {block!r} is not positive; "
                "overlaps are too negative for this table"
            )
    n = table.n
    return PosteriorDistribution.from_weights(
        [p * n * block for p, block in zip(table.priors, blocks)], "quantum"
    )


def posterior_2x2(table: ContingencyTable, hbar: float | None = None) -> PosteriorDistribution:
    """Closed-form posterior for a 2x2 table under the solved coefficients.

    With ``r = x1*y1 / (x2*y2)`` and ``s = 1 - exp(-hbar)`` (``s = 1`` when
    ``hbar`` is omitted) the per-hypothesis blocks collapse to

        block1 = s*r + x1 + y1        block2 = s/r + x2 + y2

    and ``P(H_1) = w1*block1 / (w1*block1 + w2*block2)``.  ``hbar = 0``
    therefore yields the independent-feature (column-sum) reduction, which
    is formed without the ratio.

    Raises:
        Unsupported: table shape is not 2x2.
        InvalidHbar: negative or non-finite moderation scale.
        OverlapUnderflow: a cell product underflows to zero or a weighted
            block is not finite (cell products too small).
    """
    x1, y1, x2, y2 = _cells_2x2(table, "posterior exists")
    scale = 1.0 if hbar is None else moderation_scale(hbar)
    if scale == 0.0:
        block1, block2 = x1 + y1, x2 + y2
    else:
        p1, p2 = x1 * y1, x2 * y2
        _check_products(p1, p2)
        block1 = scale * (p1 / p2) + x1 + y1
        block2 = scale * (p2 / p1) + x2 + y2
    w1 = table.priors[0] * 2.0
    w2 = table.priors[1] * 2.0
    total = w1 * block1 + w2 * block2
    if not math.isfinite(total):
        raise OverlapUnderflow(
            f"prior-weighted block total {total!r} is not finite (blocks {block1!r}, {block2!r})"
        )
    return PosteriorDistribution.from_probabilities(
        (w1 * block1 / total, w2 * block2 / total), "quantum"
    )

