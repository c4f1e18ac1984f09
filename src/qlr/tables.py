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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadIndex, BadShape, InvalidCell, InvalidPriors

PRIOR_SUM_TOL = 1e-12

# Count-derived probabilities stay exact ratios of small integers in double
# precision only while populations stay modest.
MAX_POPULATION = 10**6


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _default_labels(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{k + 1}" for k in range(count))


def _validated_priors(priors: Sequence[float], n: int) -> np.ndarray:
    """The prior rule: n finite nonnegative weights summing to 1.

    Raises:
        InvalidPriors: wrong length, a negative or non-finite weight, or a
            sum differing from 1 beyond ``PRIOR_SUM_TOL``.
    """
    arr = np.asarray(priors, dtype=float)
    if arr.shape != (n,):
        raise InvalidPriors(f"priors must have length {n}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise InvalidPriors(f"priors must be finite and nonnegative, got {arr.tolist()}")
    if abs(float(arr.sum()) - 1.0) > PRIOR_SUM_TOL:
        raise InvalidPriors(f"priors must sum to 1 within {PRIOR_SUM_TOL}, got {float(arr.sum())!r}")
    return arr


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
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2:
            raise BadShape(f"probability matrix must be 2-D, got {x.ndim}-D")
        m, n = x.shape
        if m < 1 or n < 2:
            raise BadShape(f"need at least 1 feature and 2 hypotheses, got {m}x{n}")
        features = _default_labels("D", m) if self.features is None else tuple(self.features)
        hypotheses = (
            _default_labels("H", n) if self.hypotheses is None else tuple(self.hypotheses)
        )
        if len(features) != m or len(hypotheses) != n:
            raise BadShape(
                f"labels ({len(features)} features, {len(hypotheses)} "
                f"hypotheses) do not match a {m}x{n} matrix"
            )
        bad = ~((x > 0.0) & (x <= 1.0))
        if bad.any():
            i, a = map(int, np.argwhere(bad)[0])
            raise InvalidCell(
                f"cell [{i}, {a}] = {float(x[i, a])!r} is outside (0, 1] "
                "(zero and negative cells are rejected at construction)"
            )
        priors = np.full(n, 1.0 / n) if self.priors is None else _validated_priors(self.priors, n)
        object.__setattr__(self, "features", tuple(str(f) for f in features))
        object.__setattr__(self, "hypotheses", tuple(str(h) for h in hypotheses))
        object.__setattr__(self, "x", _frozen_array(x, float))
        object.__setattr__(self, "priors", _frozen_array(priors, float))

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
    """

    counts: np.ndarray
    populations: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        populations = np.asarray(self.populations)
        if counts.ndim != 2:
            raise BadShape(f"counts must be 2-D, got {counts.ndim}-D")
        m, n = counts.shape
        if m < 1 or n < 1:
            raise BadShape(f"need at least one feature and one hypothesis, got {m}x{n}")
        if populations.shape != (n,):
            raise BadShape(f"populations must have length {n}, got shape {populations.shape}")
        if not np.issubdtype(counts.dtype, np.integer) or not np.issubdtype(
            populations.dtype, np.integer
        ):
            raise BadShape(
                f"counts and populations must be integers no larger than {MAX_POPULATION}"
            )
        if np.any(populations < 1):
            raise BadShape(f"populations must be positive, got {populations.tolist()}")
        if np.any(populations > MAX_POPULATION):
            raise BadShape(f"populations above {MAX_POPULATION} are not supported")
        if np.any(counts < 0):
            raise BadShape("counts must be nonnegative")
        if np.any(counts > populations[np.newaxis, :]):
            i, a = map(int, np.argwhere(counts > populations[np.newaxis, :])[0])
            raise BadShape(
                f"count [{i}, {a}] = {int(counts[i, a])} exceeds population "
                f"{int(populations[a])}"
            )
        object.__setattr__(self, "counts", _frozen_array(counts, np.int64))
        object.__setattr__(self, "populations", _frozen_array(populations, np.int64))

    @property
    def m(self) -> int:
        return self.counts.shape[0]

    @property
    def n(self) -> int:
        return self.counts.shape[1]

    @property
    def population_shares(self) -> np.ndarray:
        """Default priors: each hypothesis's share of the total population."""
        return self.populations / self.populations.sum()

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
        if not 0 <= hypothesis < self.n:
            raise BadIndex(f"hypothesis index {hypothesis} out of range for n={self.n}")
        for name, k in (("i", i), ("j", j)):
            if not 0 <= k < self.m:
                raise BadIndex(f"feature index {name}={k} out of range for m={self.m}")
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
    ``priors[a] = populations[a] / sum(populations)``.

    Raises:
        InvalidCell: any count is zero (the zero-cell rule propagates).
        BadShape: fewer than 2 hypotheses.
    """
    if counts.n < 2:
        raise BadShape(f"need at least 2 hypotheses to form a table, got {counts.n}")
    if np.any(counts.counts == 0):
        i, a = map(int, np.argwhere(counts.counts == 0)[0])
        raise InvalidCell(
            f"count [{i}, {a}] is zero; zero cells are rejected at construction"
        )
    return ContingencyTable(
        features=features,
        hypotheses=hypotheses,
        x=counts.counts / counts.populations[np.newaxis, :],
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
    a = int(counts.counts[i, hypothesis])
    b = int(counts.counts[j, hypothesis])
    p = int(counts.populations[hypothesis])
    return IntegerRange(lo=max(0, a + b - p), hi=min(a, b))
