"""Exception hierarchy shared by all qlr modules.

Every error raised by this package derives from :class:`QlrError`, so callers
can catch the package's failures with a single handler.  Validation failures
additionally derive from the matching builtin (``ValueError`` / ``IndexError``)
so that generic handlers keep working.

Each class also carries the command line's exit status as ``exit_code``: 2
for invalid input, 3 for valid input that cannot support the request.  A
subclass inherits its parent's code unless it sets its own.
"""

from __future__ import annotations


class QlrError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class BadShape(QlrError, ValueError):
    """Input arrays have inconsistent or unsupported dimensions."""


class InvalidCell(QlrError, ValueError):
    """A conditional-probability cell is outside (0, 1] (zeros rejected)."""


class InvalidPriors(QlrError, ValueError):
    """Prior weights are negative or do not sum to 1 within tolerance."""


class BadIndex(QlrError, IndexError):
    """A feature or hypothesis index is not an integer (a bool is not one),
    is out of range, or equals the other where distinct features are
    required."""

    exit_code = 3


class Unsupported(QlrError, ValueError):
    """The requested estimator does not support this table's shape or counts."""

    exit_code = 3


class DegenerateRange(QlrError, ValueError):
    """Posterior weights have no positive finite total, for instance when an
    intersection-range estimator hits an all-zero denominator."""

    exit_code = 3


class ShapeMismatch(QlrError, ValueError):
    """Two inputs (e.g. a table and an overlap matrix) disagree in shape."""


class InvalidOverlap(QlrError, ValueError):
    """Overlap coefficients violate their invariants (unit diagonal, symmetry,
    finiteness)."""


class OverlapUnderflow(InvalidOverlap):
    """The 2x2 overlap ratio of a valid table does not fit in a float: a
    column's cell product underflows to zero, or a coefficient or
    prior-weighted block overflows.  The table itself is fine, so other
    estimators still apply."""

    exit_code = 3


class NonPositiveTotal(QlrError, ValueError):
    """A per-hypothesis amplitude-block sum is not positive, so no posterior
    can be normalized."""

    exit_code = 3


class InvalidHbar(QlrError, ValueError):
    """The moderation scale must be a finite nonnegative number."""


class NotPositiveDefinite(QlrError, ValueError):
    """A per-hypothesis Gram matrix is not positive definite, so no
    orthonormal basis exists.

    Attributes:
        hypothesis: index of the offending hypothesis.
    """

    exit_code = 3

    def __init__(self, hypothesis: int, message: str | None = None):
        self.hypothesis = hypothesis
        super().__init__(
            message
            or f"Gram matrix for hypothesis {hypothesis} is not positive definite"
        )


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


class NotCounts(QlrError, ValueError):
    """The operation needs integer count data but the input carries only
    probabilities."""

    exit_code = 3
