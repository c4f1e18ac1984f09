"""Exception hierarchy shared by all qlr modules.

Every error raised by this package derives from :class:`QlrError`, so callers
can catch the package's failures with a single handler.  Validation failures
additionally derive from the matching builtin (``ValueError`` / ``IndexError``)
so that generic handlers keep working.

The command line's exit status is the ``exit_code`` of two base classes and
no other: :class:`QlrError` gives 2, invalid input, and :class:`Unsupported`
gives 3, valid input that cannot support the request.  So every exit-3
refusal is an ``Unsupported`` and every other refusal exits 2.
"""

from __future__ import annotations


class QlrError(Exception):
    """Base class for all errors raised by this package: invalid input."""

    exit_code = 2


class Unsupported(QlrError, ValueError):
    """Base class for valid input that cannot support the request: the
    estimator does not support this table's shape or counts, or the file
    carries probabilities where counts are needed."""

    exit_code = 3


class BadShape(QlrError, ValueError):
    """Input arrays or labels have inconsistent or unsupported dimensions,
    among them a ragged nesting and a table and overlap that disagree."""


class InvalidCell(QlrError, ValueError):
    """A conditional-probability cell is outside (0, 1] (zeros rejected)."""


class InvalidPriors(QlrError, ValueError):
    """Prior weights are negative or do not sum to 1 within tolerance."""


class InvalidOverlap(QlrError, ValueError):
    """Overlap coefficients violate their invariants (unit diagonal, symmetry,
    finiteness)."""


class InvalidHbar(QlrError, ValueError):
    """The moderation scale must be a finite nonnegative number."""


class ParseError(QlrError, ValueError):
    """An input file could not be parsed, a command-line flag's value is
    refused, or a suite's ``samples`` or ``seed`` is not an integer at or
    above its minimum (1 and 0).

    Attributes:
        line, column: 1-based position of the offending token when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class BadIndex(Unsupported, IndexError):
    """A feature or hypothesis index is not an integer (a bool is not one),
    is out of range, or equals the other where distinct features are
    required."""


class DegenerateRange(Unsupported):
    """Posterior weights have no positive finite total, for instance when an
    intersection-range estimator hits an all-zero denominator or an overlap
    leaves a hypothesis's block sum not positive."""


class OverlapUnderflow(Unsupported):
    """The 2x2 overlap ratio of a valid table does not fit in a float: a
    column's cell product underflows to zero, or a coefficient overflows.
    The table itself is fine, so other estimators still apply.  Blocks
    whose prior-weighted total overflows raise :class:`DegenerateRange`,
    as in every posterior normalisation."""


class NotPositiveDefinite(Unsupported):
    """A per-hypothesis Gram matrix fails the state-vector path's gate: it
    has an eigenvalue at or below ``PD_EIGENVALUE_TOL`` (1e-12), so no
    orthonormal basis exists.  The gate is the one feasibility rule of that
    path; an overlap that clears it always gets a basis.

    Attributes:
        hypothesis: index of the offending hypothesis.
    """

    def __init__(self, hypothesis: int):
        self.hypothesis = hypothesis
        super().__init__(f"Gram matrix for hypothesis {hypothesis} is not positive definite")
