"""Overlap-coefficient posteriors for co-dependent features.

The central idea: encode a contingency table as amplitudes over
hypothesis-feature states, let same-hypothesis feature states overlap with
inner products ``c[a][i][j]``, and read the posterior off the per-hypothesis
amplitude block sums

    P(H_a | all D) ∝ w_a * sum_{i,j} sqrt(x[i,a] * x[j,a]) * c[a][i][j]

where ``w_a`` is the prior weight.  For 2 features x 2 hypotheses the
coefficients are fixed in closed form by symmetry and known-value
constraints; for any other shape the caller supplies them.

:func:`qlr.checks.verify_constraint_suite` checks the constraints behind
the closed form (known-value tables, row/column exchange symmetry,
complementarity) over randomized inputs; they pin it only inside the ansatz
of :func:`overlap_coefficients`, since naive-Bayes blocks ``x*y`` and
comonotone blocks ``min(x, y)`` meet them too.

Naive Bayes is a special case of the 2x2 closed form.  With ``x1, y1``
hypothesis 1's cells, ``x2, y2`` hypothesis 2's and ``r = x1*y1 / (x2*y2)``,
the two posteriors agree for every prior exactly on the surface

    x1*y1*(1 - x2 - y2) = x2*y2*(1 - x1 - y1)

Proof: the closed form weighs the priors by ``r + x1 + y1`` and
``1/r + x2 + y2``, naive Bayes by ``x1*y1`` and ``x2*y2``, so they agree
iff ``r + x1 + y1 = r * (1/r + x2 + y2)``, that is ``r*(1 - x2 - y2) =
1 - x1 - y1``; multiply by ``x2*y2``.  Every known-value table of the
constraint suite lies on this surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .classical import PosteriorDistribution
from .errors import (
    BadShape,
    DegenerateRange,
    InvalidHbar,
    InvalidOverlap,
    OverlapUnderflow,
    Unsupported,
)
from .tables import ContingencyTable, non_number_in, numeric_array

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class OverlapMatrix:
    """Per-hypothesis symmetric unit-diagonal overlap coefficients.

    ``c`` holds n >= 1 blocks of m >= 1 rows of m floats, as tuples;
    ``c[a][i][j]`` is the inner product between the feature-``i`` and
    feature-``j`` states of hypothesis ``a``: 0 means independent features,
    1 coincident.  Overlaps compare and hash by value, as tables do.
    """

    c: tuple[tuple[tuple[float, ...], ...], ...]

    def __post_init__(self):
        c = numeric_array(self.c, float, "overlap", InvalidOverlap)
        if c.ndim != 3 or c.shape[1] != c.shape[2] or c.size == 0:
            raise InvalidOverlap(
                f"overlap must be (n, m, m) per-hypothesis square matrices, got {c.shape}"
            )
        # One pass over the entries; a non-finite entry outranks the other
        # two rules wherever it lies, so those are raised after the pass.
        bad_diagonal = bad_symmetry = False
        blocks = tuple([tuple(map(tuple, block)) for block in c.tolist()])
        for block in blocks:
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
        object.__setattr__(self, "c", blocks)

    def check_fits(self, table: ContingencyTable) -> None:
        """Require one m x m matrix per hypothesis of ``table``.

        Raises:
            BadShape: the overlap dimensions disagree with the table.
        """
        shape = (len(self.c), len(self.c[0]), len(self.c[0]))
        if shape != (table.n, table.m, table.m):
            raise BadShape(
                f"overlap shape {shape} does not match "
                f"{(table.n, table.m, table.m)} for a {table.m}x{table.n} table"
            )

    @classmethod
    def coerce(cls, overlap: "OverlapMatrix | Any") -> "OverlapMatrix":
        """``overlap`` itself when it is an OverlapMatrix, else the
        OverlapMatrix built (and validated) from it."""
        return overlap if isinstance(overlap, cls) else cls(overlap)

    @classmethod
    def from_pair(cls, c1: float, c2: float) -> "OverlapMatrix":
        """2 features x 2 hypotheses overlap with off-diagonals c1, c2.

        Two finite floats, the common case, are stored as they are: the
        construction itself gives the unit diagonal and the symmetry.  Any
        other value goes through the constructor's conversion and checks."""
        if type(c1) is type(c2) is float and math.isfinite(c1) and math.isfinite(c2):
            overlap = object.__new__(cls)
            object.__setattr__(overlap, "c", (((1.0, c1), (c1, 1.0)), ((1.0, c2), (c2, 1.0))))
            return overlap
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

    Row-exchange symmetry, column-exchange duality and the known-value
    tables of :func:`qlr.checks.verify_constraint_suite` pin this form only
    inside the ansatz ``c_a = K * p_a**alpha * p_b**beta`` (``p_a`` the cell
    product of hypothesis ``a``, ``b`` the other) with positive blocks.  They
    do not pin the posterior: naive-Bayes blocks ``x*y`` and comonotone
    blocks ``min(x, y)`` pass the same suite.  The formula can leave the unit
    interval for lopsided tables; ``within_unit_interval`` flags that case.

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
    InvalidHbar unless hbar is a finite number >= 0 (a bool, a string or
    None is not one: see :func:`qlr.tables.non_number_in`)."""
    try:
        h = float(hbar)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidHbar(f"moderation scale must be a finite number, got {hbar!r}") from exc
    if non_number_in(hbar) is not None:
        raise InvalidHbar(f"moderation scale must be a finite number, got {hbar!r}")
    if not math.isfinite(h) or h < 0.0:
        raise InvalidHbar(f"moderation scale must be finite and nonnegative, got {hbar!r}")
    return -math.expm1(-h)


def hbar_moderated_coefficients(c1: float, c2: float, hbar: float) -> tuple[float, float]:
    """Scale both overlap coefficients by ``1 - exp(-hbar)``.

    ``hbar = 0`` switches the overlaps off entirely, which leaves the
    prior-weighted column sums, not naive Bayes; large ``hbar`` leaves them
    untouched.

    Raises:
        InvalidHbar: negative or non-finite moderation scale.
        InvalidOverlap: a coefficient is not a finite number (a bool or a
            string is not a number).
    """
    scale = moderation_scale(hbar)
    try:
        pair = float(c1), float(c2)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidOverlap(f"overlap coefficients must be numbers ({exc})") from exc
    found = non_number_in((c1, c2))
    if found is not None:
        raise InvalidOverlap(f"overlap coefficients must be numbers ({found} is not a number)")
    c1, c2 = pair
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise InvalidOverlap(f"overlap coefficients must be finite, got {c1!r}, {c2!r}")
    return (c1 * scale, c2 * scale)


def _block_sums(table: ContingencyTable, overlap: OverlapMatrix) -> list[float]:
    """Per-hypothesis amplitude block sums
    ``sum_{i,j} sqrt(x[i,a] * x[j,a]) * c[a][i][j]``: the column's cells,
    the unit diagonal's terms, then the terms off it, each added in order.
    A block that overflows to inf or nan is left to normalization to refuse.
    """
    blocks = []
    for a, c in enumerate(overlap.c):
        column = [row[a] for row in table.x]
        s = [math.sqrt(v) for v in column]
        total = form = 0.0
        for v in column:
            total += v
        for i, row in enumerate(c):
            for j, cij in enumerate(row):
                if i != j:
                    form += s[i] * cij * s[j]
        blocks.append(total + form)
    return blocks


def posterior_general(
    table: ContingencyTable, overlap: OverlapMatrix | Any
) -> PosteriorDistribution:
    """Posterior for any table shape under caller-supplied overlaps.

    ``P(H_a) ∝ w_a * sum_{i,j} sqrt(x[i,a] * x[j,a]) * c[a][i][j]`` with
    ``w_a = priors[a] * n``.  Zero off-diagonals reduce this to prior-weighted
    column sums.

    Raises:
        BadShape: a ragged overlap, or overlap dimensions that disagree
            with the table.
        InvalidOverlap: coefficients violate unit-diagonal/symmetry rules.
        DegenerateRange: some hypothesis block sum is not positive.
    """
    overlap = OverlapMatrix.coerce(overlap)
    overlap.check_fits(table)
    blocks = _block_sums(table, overlap)
    for a, block in enumerate(blocks):
        if block <= 0.0:
            raise DegenerateRange(
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
    therefore yields zero overlap, the prior-weighted column sums
    ``block1 = x1 + y1``, ``block2 = x2 + y2``, formed without the ratio.
    Naive Bayes is not a limit of ``hbar``: on rows ``(0.3, 0.6); (0.4,
    0.2)`` ``hbar = 0`` gives ``(0.4667, 0.5333)`` where naive Bayes gives
    ``(0.5, 0.5)``.

    Raises:
        Unsupported: table shape is not 2x2.
        InvalidHbar: negative or non-finite moderation scale.
        OverlapUnderflow: a cell product underflows to zero.
        DegenerateRange: the prior-weighted blocks have no finite total
            (cell products too small), as in :func:`posterior_general`.
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
    w1, w2 = table.priors
    return PosteriorDistribution.from_weights([w1 * 2.0 * block1, w2 * 2.0 * block2], "quantum")

