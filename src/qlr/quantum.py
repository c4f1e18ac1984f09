"""Overlap-coefficient posteriors for co-dependent features.

The central idea: encode a contingency table as amplitudes over
hypothesis-feature states, let same-hypothesis feature states overlap with
inner products ``c[a][i][j]``, and read the posterior off the per-hypothesis
amplitude block sums

    P(H_a | all D) ∝ w_a * sum_{i,j} sqrt(x[i,a] * x[j,a]) * c[a][i][j]

where ``w_a`` is the prior weight.  For 2 features x 2 hypotheses the
coefficients are fixed in closed form by symmetry and known-value
constraints; for any other shape the caller supplies them.

``verify_constraint_suite`` re-derives the constraints that pin the closed
form (known-value tables, row/column exchange symmetry, complementarity)
and checks them over randomized inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from .checks import ConstraintReport, accumulators
from .classical import PosteriorDistribution
from .errors import (
    InvalidHbar,
    InvalidOverlap,
    NonPositiveTotal,
    ShapeMismatch,
    Unsupported,
)
from .tables import ContingencyTable, new_table

# A Gram matrix counts as positive definite when every eigenvalue clears this.
PD_EIGENVALUE_TOL = 1e-12

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class OverlapMatrix:
    """Per-hypothesis symmetric unit-diagonal overlap coefficients.

    ``c`` has shape (n_hypotheses, m_features, m_features); ``c[a][i][j]`` is
    the inner product between the feature-``i`` and feature-``j`` states of
    hypothesis ``a``.  0 means independent features, 1 coincident.
    """

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 3 or c.shape[1] != c.shape[2]:
            raise InvalidOverlap(
                f"overlap must be (n, m, m) per-hypothesis square matrices, got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise InvalidOverlap("overlap coefficients must be finite")
        diag = np.diagonal(c, axis1=1, axis2=2)
        if np.any(np.abs(diag - 1.0) > _SYMMETRY_TOL):
            raise InvalidOverlap("overlap diagonal entries must equal 1")
        if np.any(np.abs(c - np.transpose(c, (0, 2, 1))) > _SYMMETRY_TOL):
            raise InvalidOverlap("overlap matrices must be symmetric")
        c = c.copy()
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

    @cached_property
    def positive_definite(self) -> tuple[bool, ...]:
        """Per hypothesis, whether every eigenvalue of ``c[a]`` clears
        ``PD_EIGENVALUE_TOL``; one stacked eigenvalue solve over all ``n``."""
        eigenvalues = np.linalg.eigvalsh(self.c)
        return tuple((eigenvalues > PD_EIGENVALUE_TOL).all(axis=1).tolist())

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
    def identity(cls, n_hypotheses: int, m_features: int) -> "OverlapMatrix":
        """All features orthogonal (independent) under every hypothesis."""
        c = np.broadcast_to(np.eye(m_features), (n_hypotheses, m_features, m_features))
        return cls(np.array(c))

    @classmethod
    def from_pair(cls, c1: float, c2: float) -> "OverlapMatrix":
        """2 features x 2 hypotheses overlap with off-diagonals c1, c2."""
        return cls(
            np.array(
                [[[1.0, c1], [c1, 1.0]], [[1.0, c2], [c2, 1.0]]],
                dtype=float,
            )
        )


@dataclass(frozen=True)
class CoefficientDiagnostics:
    """Sanity flags for a set of overlap coefficients.

    ``values[a]`` lists hypothesis ``a``'s upper-triangle off-diagonal
    coefficients (row-major); ``within_unit_interval`` mirrors that structure
    with a strict ``-1 < c < 1`` flag per value.  ``gram_positive_definite[a]``
    is ``OverlapMatrix.positive_definite[a]``: whether hypothesis ``a``'s full
    coefficient matrix has all eigenvalues above ``PD_EIGENVALUE_TOL``; when
    it does not, the state-vector cross-check is unavailable for that
    hypothesis even though the block-sum posterior itself stays well defined
    for positive tables.
    """

    values: tuple[tuple[float, ...], ...]
    within_unit_interval: tuple[tuple[bool, ...], ...]
    gram_positive_definite: tuple[bool, ...]

    @classmethod
    def from_overlap(cls, overlap: OverlapMatrix) -> "CoefficientDiagnostics":
        iu, ju = np.triu_indices(overlap.m, k=1)
        values = tuple(tuple(float(v) for v in row) for row in overlap.c[:, iu, ju])
        within = tuple(tuple(-1.0 < v < 1.0 for v in row) for row in values)
        return cls(values, within, overlap.positive_definite)

    @property
    def all_within_unit_interval(self) -> bool:
        return all(all(flags) for flags in self.within_unit_interval)


@dataclass(frozen=True)
class CoefficientSolution:
    """Closed-form overlap coefficients for a 2x2 table, with diagnostics
    computed on first access."""

    c1: float
    c2: float

    @cached_property
    def diagnostics(self) -> CoefficientDiagnostics:
        return CoefficientDiagnostics.from_overlap(self.overlap_matrix())

    def overlap_matrix(self) -> OverlapMatrix:
        return OverlapMatrix.from_pair(self.c1, self.c2)


def overlap_coefficients(table: ContingencyTable) -> CoefficientSolution:
    """Closed-form overlap coefficients for 2 features x 2 hypotheses.

    With ``x1, y1`` the first hypothesis's two cells and ``x2, y2`` the
    second's:

        c1 = sqrt(x1 * y1) / (2 * x2 * y2)
        c2 = sqrt(x2 * y2) / (2 * x1 * y1)

    This is the unique data-dependent solution compatible with row-exchange
    symmetry, column-exchange duality, and the known-value tables exercised
    by :func:`verify_constraint_suite`.  The formula can leave the unit
    interval for lopsided tables; the attached diagnostics flag that case.

    Raises:
        Unsupported: table shape is not 2x2.
        InvalidOverlap: a cell product underflows to zero or a coefficient is
            not finite (cell products too small).
    """
    if (table.m, table.n) != (2, 2):
        raise Unsupported(
            f"closed-form coefficients exist only for 2x2 tables, got {table.m}x{table.n}"
        )
    x1, y1 = float(table.x[0, 0]), float(table.x[1, 0])
    x2, y2 = float(table.x[0, 1]), float(table.x[1, 1])
    p1, p2 = x1 * y1, x2 * y2
    _check_products(p1, p2)
    c1 = math.sqrt(p1) / (2.0 * x2 * y2)
    c2 = math.sqrt(p2) / (2.0 * x1 * y1)
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise InvalidOverlap(f"overlap coefficients must be finite, got c1={c1!r}, c2={c2!r}")
    return CoefficientSolution(c1, c2)


def _check_products(p1: float, p2: float) -> None:
    """Raises InvalidOverlap when a column's cell product underflows to 0."""
    if p1 == 0.0 or p2 == 0.0:
        raise InvalidOverlap(
            f"cell products underflow to zero ({p1!r} and {p2!r}); "
            "the overlap ratio is undefined"
        )


def _moderation_scale(hbar: float) -> float:
    """``1 - exp(-hbar)``; raises InvalidHbar unless hbar is finite and >= 0."""
    h = float(hbar)
    if not math.isfinite(h) or h < 0.0:
        raise InvalidHbar(f"moderation scale must be finite and nonnegative, got {hbar!r}")
    return -math.expm1(-h)


def hbar_moderated_coefficients(c1: float, c2: float, hbar: float) -> tuple[float, float]:
    """Scale both overlap coefficients by ``1 - exp(-hbar)``.

    ``hbar = 0`` switches the overlaps off entirely (independent-feature
    limit); large ``hbar`` leaves them untouched.

    Raises:
        InvalidHbar: negative or non-finite moderation scale.
    """
    scale = _moderation_scale(hbar)
    return (c1 * scale, c2 * scale)


def _prior_weights(table: ContingencyTable) -> np.ndarray:
    """Per-hypothesis block weights, normalized so uniform priors give 1."""
    return table.priors * table.n


def _block_sums(table: ContingencyTable, overlap: OverlapMatrix) -> list[float]:
    """Per-hypothesis amplitude block sums
    ``sum_{i,j} sqrt(x[i,a] * x[j,a]) * c[a][i][j]``.

    The diagonal contributes exactly ``sum_i x[i,a]`` (unit diagonal), so it
    is added separately rather than through sqrt products.
    """
    blocks = []
    for a in range(table.n):
        col = table.x[:, a]
        s = np.sqrt(col)
        off = np.array(overlap.c[a])
        np.fill_diagonal(off, 0.0)
        blocks.append(float(col.sum()) + float(s @ off @ s))
    return blocks


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
    if not isinstance(overlap, OverlapMatrix):
        overlap = OverlapMatrix(np.asarray(overlap, dtype=float))
    overlap.check_fits(table)
    blocks = _block_sums(table, overlap)
    for a, block in enumerate(blocks):
        if block <= 0.0:
            raise NonPositiveTotal(
                f"hypothesis {a} block sum {block!r} is not positive; "
                "overlaps are too negative for this table"
            )
    w = _prior_weights(table)
    return PosteriorDistribution.from_weights(
        [float(w[a]) * blocks[a] for a in range(table.n)], "quantum"
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
        InvalidOverlap: a cell product underflows to zero or a block is not
            finite (cell products too small).
    """
    if (table.m, table.n) != (2, 2):
        raise Unsupported(
            f"closed-form posterior exists only for 2x2 tables, got {table.m}x{table.n}"
        )
    scale = 1.0 if hbar is None else _moderation_scale(hbar)
    x1, y1 = float(table.x[0, 0]), float(table.x[1, 0])
    x2, y2 = float(table.x[0, 1]), float(table.x[1, 1])
    if scale == 0.0:
        block1, block2 = x1 + y1, x2 + y2
    else:
        p1, p2 = x1 * y1, x2 * y2
        _check_products(p1, p2)
        block1 = scale * (p1 / p2) + x1 + y1
        block2 = scale * (p2 / p1) + x2 + y2
    if not (math.isfinite(block1) and math.isfinite(block2)):
        raise InvalidOverlap(
            f"overlap blocks must be finite, got {block1!r} and {block2!r}"
        )
    w1 = float(table.priors[0]) * 2.0
    w2 = float(table.priors[1]) * 2.0
    total = w1 * block1 + w2 * block2
    return PosteriorDistribution.from_probabilities(
        (w1 * block1 / total, w2 * block2 / total), "quantum"
    )


def verify_constraint_suite(sample_count: int, seed: int) -> ConstraintReport:
    """Randomized verification of the constraints that pin the closed form.

    Per sample, draws ``m, n`` uniformly from (0, 1] and checks:

    - known-value tables: rows ``(1,1);(m,n)`` and ``(m,n);(1,1)`` must give
      ``P(H_1) = m / (m + n)``; rows ``(n,m);(m,n)``, ``(n,n);(m,m)`` and
      ``(m,m);(m,m)`` must give 1/2 (tolerance 1e-10);
    - row-swap invariance of a random 2x2 table (1e-12);
    - column-swap exchange ``P1 <-> P2`` (exact);
    - complementarity ``P1 + P2 = 1`` (1e-12).

    Returns per-check pass counts and max deviations.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    rng = np.random.default_rng(seed)
    known_tol = 1e-10
    checks = accumulators(
        ("known_top_ones", "rows (1,1);(m,n) give P1 = m/(m+n)", known_tol),
        ("known_bottom_ones", "rows (m,n);(1,1) give P1 = m/(m+n)", known_tol),
        ("known_antisymmetric", "rows (n,m);(m,n) give P1 = 1/2", known_tol),
        ("known_equal_columns", "rows (n,n);(m,m) give P1 = 1/2", known_tol),
        ("known_constant", "rows (m,m);(m,m) give P1 = 1/2", known_tol),
        ("row_swap", "swapping the two feature rows leaves P unchanged", 1e-12),
        ("column_swap", "swapping hypothesis columns exchanges P1 and P2", 0.0),
        ("complementarity", "P1 + P2 = 1", 1e-12),
    )

    def p1(rows) -> float:
        return posterior_2x2(new_table(rows)).probabilities[0]

    for _ in range(sample_count):
        m = 1.0 - rng.random()
        n = 1.0 - rng.random()
        expected = m / (m + n)
        checks["known_top_ones"].record(abs(p1([[1.0, 1.0], [m, n]]) - expected))
        checks["known_bottom_ones"].record(abs(p1([[m, n], [1.0, 1.0]]) - expected))
        checks["known_antisymmetric"].record(abs(p1([[n, m], [m, n]]) - 0.5))
        checks["known_equal_columns"].record(abs(p1([[n, n], [m, m]]) - 0.5))
        checks["known_constant"].record(abs(p1([[m, m], [m, m]]) - 0.5))

        u = 1.0 - rng.random(4)
        rows = [[u[0], u[1]], [u[2], u[3]]]
        base = posterior_2x2(new_table(rows))
        swapped_rows = posterior_2x2(new_table([rows[1], rows[0]]))
        checks["row_swap"].record(
            max(
                abs(base.probabilities[0] - swapped_rows.probabilities[0]),
                abs(base.probabilities[1] - swapped_rows.probabilities[1]),
            )
        )
        swapped_cols = posterior_2x2(new_table([[u[1], u[0]], [u[3], u[2]]]))
        checks["column_swap"].record(
            max(
                abs(swapped_cols.probabilities[0] - base.probabilities[1]),
                abs(swapped_cols.probabilities[1] - base.probabilities[0]),
            )
        )
        checks["complementarity"].record(abs(sum(base.probabilities) - 1.0))

    return ConstraintReport(
        checks=tuple(acc.result() for acc in checks.values()),
        sample_count=sample_count,
        seed=seed,
    )
