"""Brute-force enumeration ground truth for ranges and mean estimators.

Everything here is deliberately unsophisticated: joint-count feasibility is
decided by writing out the four cells of the 2x2 joint table and checking
signs, and the mean estimators are recomputed by explicit enumeration over
those feasible counts.  The point is to cross-validate the closed forms in
:mod:`qlr.tables` and :mod:`qlr.classical` against something too simple to
share their bugs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classical import PosteriorDistribution
from .errors import DegenerateRange, Unsupported
from .tables import CountTable


def enumerate_joint_counts(
    counts: CountTable, hypothesis: int, i: int, j: int
) -> list[int]:
    """Every joint count k for which the 2x2 joint table has no negative cell.

    The four cells are k (both features), c_i - k, c_j - k (one feature
    only), and pop - c_i - c_j + k (neither).  No interval arithmetic: each
    candidate k from 0 to the population is tested directly.

    Raises:
        BadIndex: invalid hypothesis or feature indices, or i == j.
    """
    counts.check_pair(hypothesis, i, j)
    c_i = counts.counts[i][hypothesis]
    c_j = counts.counts[j][hypothesis]
    pop = counts.populations[hypothesis]
    return [k for k in range(pop + 1) if k <= c_i and k <= c_j and pop - c_i - c_j + k >= 0]


@dataclass(frozen=True)
class OracleEstimates:
    """Mean estimators recomputed by enumeration.

    ``mean_range`` exists only for binary hypotheses.
    """

    mean_frequency: PosteriorDistribution
    mean_range: PosteriorDistribution | None


def oracle_mean_estimators(counts: CountTable) -> OracleEstimates:
    """Recompute the mean estimators by explicit enumeration.

    The mean-frequency estimator averages each hypothesis's feasible joint
    counts directly; the mean-range estimator scans every feasible
    joint-count pair for the extreme ratios weighted by the count table's
    priors.

    Raises:
        Unsupported: not 2 features, or fewer than 2 hypotheses.
        DegenerateRange: nothing to normalize (all feasible counts zero, or
            an extreme pairing with a zero denominator).
    """
    if counts.m != 2:
        raise Unsupported(f"enumeration needs exactly 2 features, got {counts.m}")
    if counts.n < 2:
        raise Unsupported(f"enumeration needs at least 2 hypotheses, got {counts.n}")
    w = counts.priors
    pops = counts.populations
    feasible = [enumerate_joint_counts(counts, a, 0, 1) for a in range(counts.n)]

    weights = [w[a] * (sum(f) / len(f) / pops[a]) for a, f in enumerate(feasible)]
    total = math.fsum(weights)
    if not total > 0.0:
        raise DegenerateRange("every hypothesis has mean joint frequency zero")
    mean_frequency = PosteriorDistribution(
        tuple([v / total for v in weights]), "mean_frequency"
    )

    if counts.n != 2:
        return OracleEstimates(mean_frequency, None)

    f1, f2 = feasible
    p1, p2 = pops
    w1, w2 = w

    # The extreme pairings define the range; if either is degenerate the
    # range itself is, matching the closed-form estimator's contract.
    if (
        w1 * (min(f1) / p1) + w2 * (max(f2) / p2) <= 0.0
        or w1 * (max(f1) / p1) + w2 * (min(f2) / p2) <= 0.0
    ):
        raise DegenerateRange(
            "an extreme joint-count pairing leaves nothing to normalize"
        )
    # One scan of every feasible pair for the prior-weighted ratio.
    weighted1 = [w1 * (k1 / p1) for k1 in f1]
    weighted2 = [w2 * (k2 / p2) for k2 in f2]
    ratios = [a / (a + b) for a in weighted1 for b in weighted2 if a + b > 0.0]
    prob1 = (min(ratios) + max(ratios)) / 2
    mean_range = PosteriorDistribution((prob1, 1.0 - prob1), "mean_range")
    return OracleEstimates(mean_frequency, mean_range)
