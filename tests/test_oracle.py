"""Brute-force enumeration oracle, cross-validated against the closed-form
range and mean estimators."""

import numpy as np
import pytest

from qlr import (
    BadIndex,
    CountTable,
    DegenerateRange,
    Unsupported,
    enumerate_joint_counts,
    intersection_range,
    mean_frequency_posterior,
    mean_range_posterior,
    oracle_mean_estimators,
)


def street_counts() -> CountTable:
    return CountTable(np.array([[8, 7], [6, 5]]), np.array([10, 10]))


class TestEnumerateJointCounts:
    def test_street_hypotheses(self):
        counts = street_counts()
        assert enumerate_joint_counts(counts, 0, 0, 1) == [4, 5, 6]
        assert enumerate_joint_counts(counts, 1, 0, 1) == [2, 3, 4, 5]

    def test_saturated_counts(self):
        counts = CountTable(np.array([[10, 10], [10, 10]]), np.array([10, 10]))
        assert enumerate_joint_counts(counts, 0, 0, 1) == [10]

    def test_zero_count_pins_range_to_zero(self):
        counts = CountTable(np.array([[0, 1], [5, 1]]), np.array([10, 10]))
        assert enumerate_joint_counts(counts, 0, 0, 1) == [0]

    def test_feature_order_is_irrelevant(self):
        counts = street_counts()
        assert enumerate_joint_counts(counts, 1, 0, 1) == enumerate_joint_counts(
            counts, 1, 1, 0
        )

    def test_bad_indices(self):
        counts = street_counts()
        with pytest.raises(BadIndex):
            enumerate_joint_counts(counts, 2, 0, 1)
        with pytest.raises(BadIndex):
            enumerate_joint_counts(counts, 0, 0, 2)
        with pytest.raises(BadIndex):
            enumerate_joint_counts(counts, 0, 1, 1)

    def test_matches_interval_arithmetic(self):
        # The closed-form bounds and the cell-by-cell scan must agree on
        # every table, zero counts and saturated counts included.
        rng = np.random.default_rng(42)
        for _ in range(300):
            pops = rng.integers(1, 26, size=2)
            cells = np.stack([rng.integers(0, p + 1, size=2) for p in pops], axis=1)
            counts = CountTable(cells, pops)
            for a in range(2):
                r = intersection_range(counts, a, 0, 1)
                assert enumerate_joint_counts(counts, a, 0, 1) == list(
                    range(r.lo, r.hi + 1)
                )


class TestEnumerateTable:
    def test_street_summaries(self):
        # Per-hypothesis summaries of the whole street table. Both populations
        # are 10: the endpoints and means are the feasible frequencies the
        # oracle's estimators start from.
        counts = street_counts()
        first, second = (enumerate_joint_counts(counts, a, 0, 1) for a in range(2))
        assert first == [4, 5, 6]
        assert (first[0] / 10, first[-1] / 10) == (0.4, 0.6)
        assert sum(first) / len(first) / 10 == 0.5
        assert second == [2, 3, 4, 5]
        assert (second[0] / 10, second[-1] / 10) == (0.2, 0.5)
        assert sum(second) / len(second) / 10 == 0.35


class TestOracleMeanEstimators:
    def test_street_mean_frequency_matches_closed_form(self):
        counts = street_counts()
        oracle = oracle_mean_estimators(counts)
        closed = mean_frequency_posterior(counts)
        assert oracle.mean_frequency.probabilities == closed.probabilities

    def test_street_mean_range_matches_closed_form(self):
        counts = street_counts()
        oracle = oracle_mean_estimators(counts)
        closed = mean_range_posterior(counts)
        np.testing.assert_allclose(
            oracle.mean_range.probabilities, closed.probabilities, atol=1e-15
        )

    def test_symmetric_table_is_even_odds(self):
        counts = CountTable(np.array([[6, 6], [4, 4]]), np.array([10, 10]))
        oracle = oracle_mean_estimators(counts)
        assert oracle.mean_frequency.probabilities == (0.5, 0.5)
        assert oracle.mean_range.probabilities == (0.5, 0.5)

    def test_lopsided_table(self):
        counts = CountTable(np.array([[9, 9], [9, 1]]), np.array([10, 10]))
        oracle = oracle_mean_estimators(counts)
        np.testing.assert_allclose(
            oracle.mean_frequency.probabilities[0], 17 / 18, atol=1e-15
        )
        np.testing.assert_allclose(
            oracle.mean_range.probabilities[0], 17 / 18, atol=1e-15
        )

    def test_degenerate_extreme_pairing_matches_closed_form(self):
        counts = CountTable(np.array([[0, 1], [1, 1]]), np.array([2, 2]))
        with pytest.raises(DegenerateRange):
            mean_range_posterior(counts)
        with pytest.raises(DegenerateRange):
            oracle_mean_estimators(counts)

    def test_degenerate_all_zero_means_matches_closed_form(self):
        counts = CountTable(np.array([[0, 0], [3, 3]]), np.array([10, 10]))
        with pytest.raises(DegenerateRange):
            mean_frequency_posterior(counts)
        with pytest.raises(DegenerateRange):
            oracle_mean_estimators(counts)

    def test_explicit_priors_match_closed_form(self):
        counts = CountTable(np.array([[8, 7], [6, 5]]), np.array([10, 10]), (0.7, 0.3))
        oracle = oracle_mean_estimators(counts)
        assert (
            oracle.mean_frequency.probabilities
            == mean_frequency_posterior(counts).probabilities
        )
        np.testing.assert_allclose(
            oracle.mean_range.probabilities,
            mean_range_posterior(counts).probabilities,
            atol=1e-15,
        )

    def test_three_hypotheses_mean_frequency_only(self):
        counts = CountTable(
            np.array([[8, 7, 2], [6, 5, 9]]), np.array([10, 10, 10])
        )
        oracle = oracle_mean_estimators(counts)
        closed = mean_frequency_posterior(counts)
        assert oracle.mean_frequency.probabilities == closed.probabilities
        assert oracle.mean_range is None

    def test_unsupported_shapes(self):
        three_features = CountTable(
            np.array([[8, 7], [6, 5], [2, 9]]), np.array([10, 10])
        )
        with pytest.raises(Unsupported):
            oracle_mean_estimators(three_features)
        one_hypothesis = CountTable(np.array([[8], [6]]), np.array([10]))
        with pytest.raises(Unsupported):
            oracle_mean_estimators(one_hypothesis)

    def test_random_agreement_with_closed_forms(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(300):
            pops = rng.integers(1, 21, size=2)
            cells = np.stack([rng.integers(0, p + 1, size=2) for p in pops], axis=1)
            counts = CountTable(cells, pops)
            try:
                closed_mf = mean_frequency_posterior(counts)
                closed_mr = mean_range_posterior(counts)
            except DegenerateRange:
                with pytest.raises(DegenerateRange):
                    oracle_mean_estimators(counts)
                continue
            oracle = oracle_mean_estimators(counts)
            assert oracle.mean_frequency.probabilities == closed_mf.probabilities
            np.testing.assert_allclose(
                oracle.mean_range.probabilities,
                closed_mr.probabilities,
                atol=1e-14,
            )
            checked += 1
        assert checked > 150
