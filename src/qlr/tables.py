"""Contingency-table data model, validation, and intersection-range arithmetic.

Conventions used throughout the package:

- Rows index features (the observed properties), columns index hypotheses
  (the competing populations).  ``x[i, a]`` is the conditional probability of
  feature ``i`` given hypothesis ``a``.
- Cells must lie in (0, 1]; zero cells are rejected at construction because
  every downstream overlap formula divides by cell products.  Callers that
  really want a zero must perturb it explicitly.
- Priors are nonnegative and sum to 1 within 1e-12.  Count-derived tables use
  population shares as priors.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import BadIndex, BadShape, InvalidCell, InvalidPriors, QlrError

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
def _uniform_priors(n: int) -> np.ndarray:
    """Read-only uniform weights, built once per ``n``.  Callers hand out a
    view: numpy refuses to make a view of a read-only base writable again,
    so no caller can change what the others share."""
    priors = np.full(n, 1.0 / n)
    priors.setflags(write=False)
    return priors


def _labels(given: Sequence[str] | None, prefix: str, count: int) -> tuple[str, ...]:
    """The caller's labels as strings, or ``prefix1..prefix<count>``."""
    if given is None:
        return _default_labels(prefix, count)
    return tuple(map(str, given))


def _validated_priors(priors: Sequence[float], n: int) -> np.ndarray:
    """The prior rule: n finite nonnegative weights summing to 1.

    Raises:
        InvalidPriors: not n numbers, a negative or non-finite weight, or a
            sum differing from 1 beyond ``PRIOR_SUM_TOL``.
    """
    try:
        arr = np.array(priors, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidPriors(f"priors must be {n} numbers ({exc})") from exc
    if arr.shape != (n,):
        raise InvalidPriors(f"priors must have length {n}, got shape {arr.shape}")
    weights = arr.tolist()
    if not all(0.0 <= w < math.inf for w in weights):
        raise InvalidPriors(f"priors must be finite and nonnegative, got {weights}")
    # numpy's pairwise sum, not a sequential one: from 8 weights the two can
    # round to opposite sides of the tolerance.
    total = float(arr.sum())
    if abs(total - 1.0) > PRIOR_SUM_TOL:
        raise InvalidPriors(f"priors must sum to 1 within {PRIOR_SUM_TOL}, got {total!r}")
    return arr


def _numeric_array(values, dtype, what: str, non_numeric: type[QlrError]) -> np.ndarray:
    """``np.array(values, dtype=dtype)``, a copy; a ragged nesting raises
    BadShape, and a value that is not a number or is an int beyond the float
    range raises ``non_numeric``."""
    try:
        return np.array(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        try:
            np.shape(values)
        except ValueError:
            raise BadShape(f"{what} must be a rectangular array ({exc})") from exc
        raise non_numeric(f"{what} must hold only numbers ({exc})") from exc


@dataclass(frozen=True)
class ContingencyTable:
    """Grid of conditional probabilities ``x[i, a]`` plus prior weights.

    Attributes:
        features: m feature labels (row order is significant for reporting).
        hypotheses: n hypothesis labels.
        x: (m, n) matrix of conditional probabilities, each in (0, 1].
        priors: n nonnegative weights summing to 1.

    At construction ``None`` labels default to ``D1..Dm`` / ``H1..Hn`` and
    ``None`` priors to uniform weights.
    """

    features: tuple[str, ...]
    hypotheses: tuple[str, ...]
    x: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        x = _numeric_array(self.x, float, "probability matrix", InvalidCell)
        if x.ndim != 2:
            raise BadShape(f"probability matrix must be 2-D, got {x.ndim}-D")
        m, n = x.shape
        if m < 1 or n < 2:
            raise BadShape(f"need at least 1 feature and 2 hypotheses, got {m}x{n}")
        features = _labels(self.features, "D", m)
        hypotheses = _labels(self.hypotheses, "H", n)
        if len(features) != m or len(hypotheses) != n:
            raise BadShape(
                f"labels ({len(features)} features, {len(hypotheses)} "
                f"hypotheses) do not match a {m}x{n} matrix"
            )
        for i, row in enumerate(x.tolist()):
            for a, v in enumerate(row):
                if not 0.0 < v <= 1.0:
                    raise InvalidCell(
                        f"cell [{i}, {a}] = {v!r} is outside (0, 1] "
                        "(zero and negative cells are rejected at construction)"
                    )
        if self.priors is None:
            priors = _uniform_priors(n).view()
        else:
            priors = _validated_priors(self.priors, n)
            priors.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "hypotheses", hypotheses)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "priors", priors)

    @property
    def m(self) -> int:
        """Number of features (rows)."""
        return self.x.shape[0]

    @property
    def n(self) -> int:
        """Number of hypotheses (columns)."""
        return self.x.shape[1]


@dataclass(frozen=True)
class CountTable:
    """Integer feature counts and population sizes per hypothesis.

    ``counts[i, a]`` is the number of population members of hypothesis ``a``
    exhibiting feature ``i``; ``populations[a]`` is the population size.

    ``count_rows`` and ``population_sizes`` hold the same values as Python
    integers, the ones validation checked, so per-count arithmetic never
    indexes the arrays.

    ``population_shares``, the default priors, is computed at construction:
    each hypothesis's share of the total population, read-only.  Integer
    true division is correctly rounded, so ``p / total`` equals numpy's
    ``populations / populations.sum()`` bit for bit.
    """

    counts: np.ndarray
    populations: np.ndarray
    count_rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    population_sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    population_shares: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        counts = _numeric_array(self.counts, None, "counts", BadShape)
        populations = _numeric_array(self.populations, None, "populations", BadShape)
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
        counts = counts.astype(np.int64, copy=False)
        populations = populations.astype(np.int64, copy=False)
        counts.setflags(write=False)
        populations.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "populations", populations)
        object.__setattr__(self, "count_rows", tuple(map(tuple, rows)))
        object.__setattr__(self, "population_sizes", tuple(sizes))
        total = sum(sizes)
        shares = np.array([p / total for p in sizes])
        shares.setflags(write=False)
        object.__setattr__(self, "population_shares", shares)

    @property
    def m(self) -> int:
        return len(self.count_rows)

    @property
    def n(self) -> int:
        return len(self.population_sizes)

    def resolve_priors(self, priors: Sequence[float] | None) -> np.ndarray:
        """Validated explicit priors, or population shares when omitted.

        Raises:
            InvalidPriors: explicit priors break the prior rule.
        """
        if priors is None:
            return self.population_shares
        return _validated_priors(priors, self.n)

    def check_pair(self, hypothesis: int, i: int, j: int) -> None:
        """Validate a hypothesis index and two distinct feature indices.

        Raises:
            BadIndex: out-of-range indices or ``i == j``.
        """
        n = len(self.population_sizes)
        m = len(self.count_rows)
        if not 0 <= hypothesis < n:
            raise BadIndex(f"hypothesis index {hypothesis} out of range for n={n}")
        if not 0 <= i < m:
            raise BadIndex(f"feature index i={i} out of range for m={m}")
        if not 0 <= j < m:
            raise BadIndex(f"feature index j={j} out of range for m={m}")
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

    def values(self) -> range:
        """All feasible counts, lo..hi inclusive."""
        return range(self.lo, self.hi + 1)

    def __len__(self) -> int:
        return self.hi - self.lo + 1


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


def from_counts(
    counts: CountTable,
    *,
    features: Sequence[str] | None = None,
    hypotheses: Sequence[str] | None = None,
) -> ContingencyTable:
    """Convert counts to conditional probabilities with population-share priors.

    ``x[i, a] = counts[i, a] / populations[a]`` and
    ``priors[a] = populations[a] / sum(populations)``.  The cells divide the
    validated Python integers; for integers below 2^53 that is numpy's int64
    division bit for bit, since both are correctly rounded.

    Raises:
        InvalidCell: any count is zero (the zero-cell rule propagates).
        BadShape: fewer than 2 hypotheses.
    """
    if counts.n < 2:
        raise BadShape(f"need at least 2 hypotheses to form a table, got {counts.n}")
    for i, row in enumerate(counts.count_rows):
        if 0 in row:
            raise InvalidCell(
                f"count [{i}, {row.index(0)}] is zero; zero cells are rejected at construction"
            )
    sizes = counts.population_sizes
    return ContingencyTable(
        features=features,
        hypotheses=hypotheses,
        x=[[c / p for c, p in zip(row, sizes)] for row in counts.count_rows],
        priors=counts.population_shares,
    )


def intersection_range(counts: CountTable, hypothesis: int, i: int, j: int) -> IntegerRange:
    """Feasible range of the joint count of features ``i`` and ``j`` within one
    hypothesis's population.

    With ``a = counts[i]``, ``b = counts[j]``, ``p = population``:
    ``lo = max(0, a + b - p)``, ``hi = min(a, b)``.  All integers in between
    are realizable joint counts.

    Raises:
        BadIndex: out-of-range indices or ``i == j``.
    """
    counts.check_pair(hypothesis, i, j)
    a = counts.count_rows[i][hypothesis]
    b = counts.count_rows[j][hypothesis]
    p = counts.population_sizes[hypothesis]
    return IntegerRange(lo=max(0, a + b - p), hi=min(a, b))
