"""Classical likelihood-ratio estimators.

Four estimators with increasing awareness of feature co-dependence:

- ``bayes_posterior``: single-feature conditioning, prior * likelihood.
- ``naive_posterior``: multiplies marginals as if features were independent.
- ``mean_frequency_posterior``: mean of the feasible joint-count range per
  hypothesis, treated as a frequency.
- ``mean_range_posterior``: midpoint of the extreme posterior probabilities
  implied by the joint-count ranges (binary hypotheses only).

The two mean-based estimators consume integer :class:`~qlr.tables.CountTable`
data because the feasible ranges only exist for counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateRange, Unsupported
from .tables import ContingencyTable, CountTable, check_index, intersection_range

METHODS = frozenset(
    {"bayes", "naive", "mean_frequency", "mean_range", "quantum", "wavefunction"}
)

_SUM_TOL = 1e-12

# Factors and running products at or above this multiply to a normal float.
_RESCALE_BELOW = 2.0**-511


@dataclass(frozen=True)
class PosteriorDistribution:
    """Per-hypothesis probabilities summing to 1, tagged with the producing
    method.

    ``argmax_index`` is always the smallest index attaining the maximum, so
    ties resolve deterministically.  It is derived when omitted and checked
    when given.
    """

    probabilities: tuple[float, ...]
    method: str
    argmax_index: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        p = self.probabilities
        for v in p:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"probabilities must lie in [0, 1], got {p}")
        total = sum(p)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities must sum to 1 within {_SUM_TOL}, got {total!r}")
        argmax = self.argmax_of(p)
        if self.argmax_index is None:
            object.__setattr__(self, "argmax_index", argmax)
        elif self.argmax_index != argmax:
            raise ValueError("argmax_index must be the smallest index attaining the maximum")

    @property
    def n(self) -> int:
        return len(self.probabilities)

    @staticmethod
    def argmax_of(values: Sequence[float]) -> int:
        """The smallest index attaining the maximum of ``values``."""
        return values.index(max(values))

    @classmethod
    def from_probabilities(
        cls, probabilities: Sequence[float], method: str
    ) -> "PosteriorDistribution":
        """Tag already-normalized probabilities, deriving ``argmax_index``."""
        return cls(tuple(probabilities), method)

    @classmethod
    def from_weights(
        cls, weights: Sequence[float], method: str
    ) -> "PosteriorDistribution":
        """Normalize nonnegative weights into a posterior.

        Raises:
            DegenerateRange: the weights do not have a positive finite total.
        """
        total = sum(weights)
        if not 0.0 < total < math.inf:
            raise DegenerateRange(f"cannot normalize weights with total {total!r}")
        return cls.from_probabilities([w / total for w in weights], method)


def bayes_posterior(table: ContingencyTable, feature: int) -> PosteriorDistribution:
    """Posterior from a single observed feature:
    ``P(H_a | D_i) = prior_a * x[i][a] / sum_b prior_b * x[i][b]``.

    Raises:
        BadIndex: ``feature`` breaks :func:`~qlr.tables.check_index`.
    """
    check_index(feature, len(table.features), "feature index")
    weights = _products(list(zip(table.priors, table.x[feature])))
    return PosteriorDistribution.from_weights(weights, "bayes")


def naive_posterior(table: ContingencyTable) -> PosteriorDistribution:
    """Posterior that ignores feature co-dependence:
    ``P(H_a | all D) ∝ prior_a * prod_i x[i][a]``.
    """
    weights = _products(list(zip(table.priors, *table.x)))
    return PosteriorDistribution.from_weights(weights, "naive")


def _products(rows: Sequence[Sequence[float]]) -> list[float]:
    """The product of each row of factors in [0, 1], up to one common power of two.

    Each running product is a float times a separate power of two.  A
    factor or running product below ``_RESCALE_BELOW`` (2^-511) is first
    replaced by its frexp mantissa, its power moving to the exponent, so
    both operands of every multiplication are at least 2^-511 and the
    product is a normal float.  Such a product rounds its significand
    exactly as the product of frexp mantissas does, so the result equals a
    frexp-per-factor loop bit for bit and keeps full precision below the
    float range.  The products are then scaled up so the largest lies in
    [0.5, 1]; where every plain product is a normal float the posterior is
    the plain products' bit for bit, since the common factor cancels in
    normalization."""
    products, exponents = [], []
    for row in rows:
        product, exponent = 1.0, 0
        for factor in row:
            if factor < _RESCALE_BELOW:
                factor, e = math.frexp(factor)
                exponent += e
            if product < _RESCALE_BELOW:
                product, e = math.frexp(product)
                exponent += e
            product *= factor
        product, e = math.frexp(product)
        products.append(product)
        exponents.append(exponent + e)
    top = min(0, max((e for product, e in zip(products, exponents) if product), default=0))
    return [math.ldexp(product, e - top) for product, e in zip(products, exponents)]


def mean_frequency_posterior(
    counts: CountTable, priors: Sequence[float] | None = None
) -> PosteriorDistribution:
    """Posterior from the mean of each hypothesis's feasible joint-count range.

    For each hypothesis the mean of all feasible joint counts of the two
    features, divided by the population, plays the role of a likelihood;
    priors (population shares by default) multiply in as usual.

    Raises:
        Unsupported: the table does not have exactly 2 features.
        DegenerateRange: every hypothesis has mean frequency 0.
    """
    if counts.m != 2:
        raise Unsupported(f"mean-frequency estimator needs exactly 2 features, got {counts.m}")
    if counts.n < 2:
        raise Unsupported(f"need at least 2 hypotheses, got {counts.n}")
    w = counts.resolve_priors(priors)
    sizes = counts.populations
    weights = []
    for a in range(counts.n):
        r = intersection_range(counts, a, 0, 1)
        mu = (r.lo + r.hi) / 2 / sizes[a]
        weights.append(w[a] * mu)
    return PosteriorDistribution.from_weights(weights, "mean_frequency")


def mean_range_posterior(
    counts: CountTable, priors: Sequence[float] | None = None
) -> PosteriorDistribution:
    """Posterior from the midpoint of the extreme joint-count probabilities
    (binary hypotheses only).

    The smallest defensible value of P(H_1) pairs hypothesis 1's lower joint
    count with hypothesis 2's upper one, and vice versa for the largest;
    the estimate is the midpoint of those two extremes.

    Raises:
        Unsupported: shape is not 2 features x 2 hypotheses.
        DegenerateRange: an extreme pairing has a zero denominator.
    """
    if counts.m != 2 or counts.n != 2:
        raise Unsupported(
            f"mean-range estimator needs 2 features x 2 hypotheses, got {counts.m}x{counts.n}"
        )
    w1, w2 = counts.resolve_priors(priors)
    r1 = intersection_range(counts, 0, 0, 1)
    r2 = intersection_range(counts, 1, 0, 1)
    p1, p2 = counts.populations
    low = _weighted_count_ratio(r1.lo, r2.hi, p1, p2, w1, w2)
    high = _weighted_count_ratio(r1.hi, r2.lo, p1, p2, w1, w2)
    prob1 = (low + high) / 2
    return PosteriorDistribution.from_probabilities((prob1, 1.0 - prob1), "mean_range")


def _weighted_count_ratio(k1: int, k2: int, pop1: int, pop2: int, w1: float, w2: float) -> float:
    """P(H_1) from one joint-count pairing: prior-weighted frequency ratio.

    With population-share priors this reduces to the raw count ratio
    ``k1 / (k1 + k2)``.
    """
    a = w1 * (k1 / pop1)
    b = w2 * (k2 / pop2)
    if a + b <= 0.0:
        raise DegenerateRange(
            f"joint-count pairing ({k1}, {k2}) leaves nothing to normalize"
        )
    return a / (a + b)
