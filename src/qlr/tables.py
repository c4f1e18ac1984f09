"""Contingency-table data model, validation, and intersection-range arithmetic.

Conventions used throughout the package:

- Rows index features (the observed properties), columns index hypotheses
  (the competing populations).  ``x[i][a]`` is the conditional probability of
  feature ``i`` given hypothesis ``a``.
- Cells must lie in (0, 1]; zero cells are rejected at construction because
  every downstream overlap formula divides by cell products.  Callers that
  really want a zero must perturb it explicitly.
- Priors are nonnegative and sum to 1 within 1e-12.  Both table types carry
  their labels and priors: a count table's priors default to the population
  shares, and a probability table's to uniform weights.

Input is converted with numpy and checked in plain Python, the prior sum
included, and every table field is a tuple of Python numbers, one row
tuple per feature, as an overlap's coefficients are.  All types are
immutable after construction, safe to share across threads, and compare
and hash by value.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from functools import lru_cache, reduce
from operator import add
from typing import Sequence

import numpy as np

from .errors import BadIndex, BadShape, InvalidCell, InvalidPriors, QlrError, Unsupported

PRIOR_SUM_TOL = 1e-12

# Count-derived probabilities stay exact ratios of small integers in double
# precision only while populations stay modest.
MAX_POPULATION = 10**6


# Bound on the distinct sizes whose shape-only defaults stay cached.
_SHAPE_CACHE_SIZE = 64


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _default_labels(prefix: str, count: int) -> tuple[str, ...]:
    """``prefix1..prefix<count>``, built once per prefix and size."""
    return tuple(f"{prefix}{k + 1}" for k in range(count))


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _uniform_priors(n: int) -> tuple[float, ...]:
    """Uniform weights, built once per ``n``."""
    return (1.0 / n,) * n


def _labels(features, hypotheses, m: int, n: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The label rule of both table types: the caller's labels as strings,
    or ``D1..Dm`` / ``H1..Hn`` where omitted.

    Raises:
        BadShape: a label list is a string, bytes or not iterable, or the
            labels do not count m features and n hypotheses.
    """
    features = _label_list(features, "features", "D", m)
    hypotheses = _label_list(hypotheses, "hypotheses", "H", n)
    if len(features) != m or len(hypotheses) != n:
        raise BadShape(
            f"labels ({len(features)} features, {len(hypotheses)} "
            f"hypotheses) do not match a {m}x{n} matrix"
        )
    return features, hypotheses


def _label_list(labels, what: str, prefix: str, count: int) -> tuple[str, ...]:
    """``labels`` as strings, or the ``count`` defaults when None; raises
    BadShape, naming what it found, when ``labels`` is a string or bytes,
    which would split into characters or byte values, or is not iterable."""
    if labels is None:
        return _default_labels(prefix, count)
    if not isinstance(labels, (str, bytes)):
        try:
            return tuple(map(str, labels))
        except TypeError:
            pass
    raise BadShape(f"{what} must be a list of labels, got {type(labels).__name__} {labels!r}")


def validated_priors(priors: Sequence[float], n: int) -> tuple[float, ...]:
    """The prior rule: n finite nonnegative weights summing to 1, returned as
    floats.

    Raises:
        BadShape: a ragged nesting.
        InvalidPriors: not n numbers, a negative or non-finite weight, or a
            sum differing from 1 beyond ``PRIOR_SUM_TOL``.
    """
    arr = numeric_array(priors, float, "priors", InvalidPriors)
    if arr.shape != (n,):
        raise InvalidPriors(f"priors must have length {n}, got shape {arr.shape}")
    weights = arr.tolist()
    if not all(0.0 <= w < math.inf for w in weights):
        raise InvalidPriors(f"priors must be finite and nonnegative, got {weights}")
    # numpy's pairwise sum, ported to plain Python, not a sequential one:
    # from 8 weights the two can round to opposite sides of the tolerance.
    total = _pairwise_sum(weights)
    if abs(total - 1.0) > PRIOR_SUM_TOL:
        raise InvalidPriors(f"priors must sum to 1 within {PRIOR_SUM_TOL}, got {total!r}")
    return tuple(weights)


def _pairwise_sum(values: Sequence[float]) -> float:
    """``np.sum`` of Python floats, bit for bit: numpy's float64 pairwise sum.

    Below 8 values it is a sequential sum; up to 128, eight interleaved
    sequential sums combined pairwise, then the rest added in order; above
    128, the sum of the two halves, split at a multiple of 8.  numpy adds
    the result to 0.0, which only turns -0.0 into 0.0; starting every
    sequential sum from 0.0 does the same."""
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= 128:
        stop = n - n % 8
        r = [reduce(add, values[k:stop:8], 0.0) for k in range(8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[stop:], head)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def is_integer(value) -> bool:
    """Whether ``value`` is an int (not a bool) or a numpy integer."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_index(value, size: int, what: str) -> None:
    """The index rule: raises BadIndex, naming the index ``what``, unless
    ``value`` is an int (not a bool) or a numpy integer in ``[0, size)``."""
    # The plain int, the common case, skips the isinstance tests.
    if type(value) is int or is_integer(value):
        if 0 <= value < size:
            return
    raise BadIndex(f"{what} must be an integer in [0, {size}), got {value!r}")


def non_number_in(values) -> str | None:
    """The number rule: the kind of the first value in the nesting that is
    not a number (``"a bool"``, ``"a str"``, ``"a bytes"`` or ``"None"``), or
    None when every value is one.  numpy casts a bool or a numeric string
    mixed with numbers to a number, and None to nan, so the converted array
    does not show them.  Cells, counts, priors, ``hbar`` and overlap
    coefficients refuse what this finds."""
    if isinstance(values, (list, tuple)):
        for v in values:
            # Plain floats and ints, the common entries, skip the call.
            found = None if type(v) is float or type(v) is int else non_number_in(v)
            if found is not None:
                return found
        return None
    if isinstance(values, np.ndarray):
        # A bool, string or object array is read entry by entry.
        return non_number_in(values.tolist()) if values.dtype.kind in "bOSU" else None
    # numpy's bool_ is no bool, but its str_ and bytes_ subclass str and bytes.
    for kind, types in (("a bool", (bool, np.bool_)), ("a str", str), ("a bytes", bytes)):
        if isinstance(values, types):
            return kind
    return "None" if values is None else None


def numeric_array(values, dtype, what: str, error: type[QlrError]) -> np.ndarray:
    """The one conversion of a nested input, applying the shape rule and the
    number rule: ``np.array(values, dtype=dtype)``, a copy.  A ragged
    nesting raises BadShape; a value that is not a number (see
    :func:`non_number_in`) or an int beyond the float range raises
    ``error`` with ``"<what> must hold only numbers (<detail>)"``."""
    try:
        arr = np.array(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        try:
            np.shape(values)
        except ValueError:
            raise BadShape(f"{what} must be a rectangular array") from exc
        found = non_number_in(values)
        detail = exc if found is None else f"{found} is not a number"
        raise error(f"{what} must hold only numbers ({detail})") from exc
    found = non_number_in(values)
    if found is not None:
        raise error(f"{what} must hold only numbers ({found} is not a number)")
    return arr


@dataclass(frozen=True)
class ContingencyTable:
    """Grid of conditional probabilities ``x[i][a]`` plus prior weights.

    Attributes:
        features: m feature labels (row order is significant for reporting).
        hypotheses: n hypothesis labels.
        x: m rows of n conditional probabilities, each a float in (0, 1].
        priors: n nonnegative floats summing to 1.

    At construction ``None`` labels default to ``D1..Dm`` / ``H1..Hn`` and
    ``None`` priors to uniform weights.
    """

    features: tuple[str, ...]
    hypotheses: tuple[str, ...]
    x: tuple[tuple[float, ...], ...]
    priors: tuple[float, ...]

    def __post_init__(self):
        x = numeric_array(self.x, float, "probability matrix", InvalidCell)
        if x.ndim != 2:
            raise BadShape(f"probability matrix must be 2-D, got {x.ndim}-D")
        m, n = x.shape
        if m < 1 or n < 2:
            raise BadShape(f"need at least 1 feature and 2 hypotheses, got {m}x{n}")
        features, hypotheses = _labels(self.features, self.hypotheses, m, n)
        rows = tuple(map(tuple, x.tolist()))
        for i, row in enumerate(rows):
            for a, v in enumerate(row):
                if not 0.0 < v <= 1.0:
                    raise InvalidCell(
                        f"cell [{i}, {a}] = {v!r} is outside (0, 1] "
                        "(zero and negative cells are rejected at construction)"
                    )
        if self.priors is None:
            priors = _uniform_priors(n)
        else:
            priors = validated_priors(self.priors, n)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "hypotheses", hypotheses)
        object.__setattr__(self, "x", rows)
        object.__setattr__(self, "priors", priors)

    @property
    def m(self) -> int:
        """Number of features (rows)."""
        return len(self.x)

    @property
    def n(self) -> int:
        """Number of hypotheses (columns)."""
        return len(self.priors)


@dataclass(frozen=True)
class CountTable:
    """Integer feature counts and population sizes per hypothesis, plus
    labels and prior weights.

    Attributes:
        counts: m rows of n counts; ``counts[i][a]`` is the number of
            population members of hypothesis ``a`` exhibiting feature ``i``.
        populations: n population sizes.
        priors: n nonnegative floats summing to 1.
        features: m feature labels.
        hypotheses: n hypothesis labels.

    Counts and populations hold Python ints; a bool is not an integer here,
    even where numpy would cast it to one.  At construction ``None`` labels
    default to ``D1..Dm`` / ``H1..Hn`` and ``None`` priors to the population
    shares, each hypothesis's share of the total population as floats.
    Integer true division is correctly rounded, so ``p / total`` equals
    numpy's ``populations / populations.sum()`` bit for bit.  Stored priors
    are kept by ``dataclasses.replace``, as on :class:`ContingencyTable`.
    """

    counts: tuple[tuple[int, ...], ...]
    populations: tuple[int, ...]
    priors: tuple[float, ...] | None = None
    _: KW_ONLY
    features: tuple[str, ...] | None = None
    hypotheses: tuple[str, ...] | None = None

    def __post_init__(self):
        counts = numeric_array(self.counts, None, "counts", BadShape)
        populations = numeric_array(self.populations, None, "populations", BadShape)
        if counts.ndim != 2:
            raise BadShape(f"counts must be 2-D, got {counts.ndim}-D")
        m, n = counts.shape
        if m < 1 or n < 1:
            raise BadShape(f"need at least one feature and one hypothesis, got {m}x{n}")
        if populations.shape != (n,):
            raise BadShape(f"populations must have length {n}, got shape {populations.shape}")
        if counts.dtype.kind not in "iu" or populations.dtype.kind not in "iu":
            raise BadShape(
                f"counts and populations must be integers no larger than {MAX_POPULATION}"
            )
        sizes = populations.tolist()
        if min(sizes) < 1:
            raise BadShape(f"populations must be positive, got {sizes}")
        if max(sizes) > MAX_POPULATION:
            raise BadShape(f"populations above {MAX_POPULATION} are not supported")
        rows = counts.tolist()
        if min(map(min, rows)) < 0:
            raise BadShape("counts must be nonnegative")
        for i, row in enumerate(rows):
            for a, (count, size) in enumerate(zip(row, sizes)):
                if count > size:
                    raise BadShape(f"count [{i}, {a}] = {count} exceeds population {size}")
        features, hypotheses = _labels(self.features, self.hypotheses, m, n)
        if self.priors is None:
            total = sum(sizes)
            priors = tuple([p / total for p in sizes])
        else:
            priors = validated_priors(self.priors, n)
        object.__setattr__(self, "counts", tuple(map(tuple, rows)))
        object.__setattr__(self, "populations", tuple(sizes))
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "hypotheses", hypotheses)

    @property
    def m(self) -> int:
        return len(self.counts)

    @property
    def n(self) -> int:
        return len(self.populations)

    def check_pair(self, hypothesis: int, i: int, j: int) -> None:
        """Validate a hypothesis index and two distinct feature indices.

        Raises:
            BadIndex: an index breaks :func:`check_index`, or ``i == j``.
        """
        m = len(self.counts)
        check_index(hypothesis, len(self.populations), "hypothesis index")
        check_index(i, m, "feature index i")
        check_index(j, m, "feature index j")
        if i == j:
            raise BadIndex(f"feature indices must differ, got i == j == {i}")


@dataclass(frozen=True)
class IntegerRange:
    """Inclusive range of feasible intersection counts."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 0:
            raise ValueError(f"range lower bound must be nonnegative, got {self.lo}")
        if self.lo > self.hi:
            raise ValueError(f"empty range [{self.lo}, {self.hi}]")


def new_table(
    x: Sequence[Sequence[float]],
    priors: Sequence[float] | None = None,
    *,
    features: Sequence[str] | None = None,
    hypotheses: Sequence[str] | None = None,
) -> ContingencyTable:
    """Build a validated :class:`ContingencyTable`.

    Args:
        x: (m, n) matrix of conditional probabilities, rows = features.
        priors: optional n hypothesis weights; uniform when omitted.
        features, hypotheses: optional labels; defaults ``D1..Dm`` / ``H1..Hn``.

    Raises:
        BadShape: inconsistent dimensions.
        InvalidCell: an entry is outside (0, 1].
        InvalidPriors: negative priors or sum differing from 1 beyond 1e-12.
    """
    return ContingencyTable(features=features, hypotheses=hypotheses, x=x, priors=priors)


def from_counts(counts: CountTable) -> ContingencyTable:
    """Convert counts to conditional probabilities under the count table's
    labels and priors.

    ``x[i][a] = counts[i][a] / populations[a]``.  The labels and priors are
    the count table's, shared rather than validated again.  The cells divide
    Python integers; for integers below 2^53 that is numpy's int64 division
    bit for bit, since both are correctly rounded.

    Raises:
        Unsupported: fewer than 2 hypotheses, or a zero count, whose cell
            the zero-cell rule would refuse.  The count table itself is
            valid, so the estimators that read counts still apply.
    """
    if counts.n < 2:
        raise Unsupported("probability-based methods need at least 2 hypotheses")
    if any(0 in row for row in counts.counts):
        raise Unsupported("probability-based methods need nonzero counts")
    sizes = counts.populations
    table = ContingencyTable(
        features=None,
        hypotheses=None,
        x=[[c / p for c, p in zip(row, sizes)] for row in counts.counts],
        priors=None,
    )
    # The count table validated its labels and priors; share them.
    object.__setattr__(table, "features", counts.features)
    object.__setattr__(table, "hypotheses", counts.hypotheses)
    object.__setattr__(table, "priors", counts.priors)
    return table


def intersection_range(counts: CountTable, hypothesis: int, i: int, j: int) -> IntegerRange:
    """Feasible range of the joint count of features ``i`` and ``j`` within one
    hypothesis's population.

    With ``a = counts[i]``, ``b = counts[j]``, ``p = population``:
    ``lo = max(0, a + b - p)``, ``hi = min(a, b)``.  All integers in between
    are realizable joint counts.

    Raises:
        BadIndex: an index breaks :func:`check_index`, or ``i == j``.
    """
    counts.check_pair(hypothesis, i, j)
    a = counts.counts[i][hypothesis]
    b = counts.counts[j][hypothesis]
    p = counts.populations[hypothesis]
    return IntegerRange(lo=max(0, a + b - p), hi=min(a, b))
