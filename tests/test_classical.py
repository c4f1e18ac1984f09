"""Classical estimators: single-feature update, naive product, mean
estimators, and the posterior container's own validation rules."""

import dataclasses
import math

import numpy as np
import pytest

from qlr import (
    BadIndex,
    CountTable,
    DegenerateRange,
    InvalidPriors,
    PosteriorDistribution,
    Unsupported,
    bayes_posterior,
    from_counts,
    mean_frequency_posterior,
    mean_range_posterior,
    naive_posterior,
    new_table,
)

STREET = CountTable(np.array([[8, 7], [6, 5]]), np.array([10, 10]))


def random_table(rng, m=2, n=2):
    return new_table(1.0 - rng.random((m, n)))


class TestPosteriorDistribution:
    def test_valid(self):
        pd = PosteriorDistribution((0.6, 0.4), "bayes", 0)
        assert pd.n == 2

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            PosteriorDistribution((0.6, 0.4), "magic", 0)

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            PosteriorDistribution((1.2, -0.2), "bayes", 0)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            PosteriorDistribution((0.6, 0.5), "bayes", 0)

    def test_rejects_wrong_argmax(self):
        with pytest.raises(ValueError):
            PosteriorDistribution((0.6, 0.4), "bayes", 1)

    def test_argmax_tie_takes_smallest_index(self):
        PosteriorDistribution((0.5, 0.5), "bayes", 0)
        with pytest.raises(ValueError):
            PosteriorDistribution((0.5, 0.5), "bayes", 1)

    def test_omitted_argmax_is_derived(self):
        assert PosteriorDistribution((0.25, 0.75), "bayes").argmax_index == 1
        assert PosteriorDistribution((0.5, 0.5), "bayes").argmax_index == 0
        pd = PosteriorDistribution.from_probabilities([0.3, 0.3, 0.4], "naive")
        assert pd == PosteriorDistribution((0.3, 0.3, 0.4), "naive", 2)
        with pytest.raises(ValueError):
            PosteriorDistribution((0.6, 0.4), "magic")

    def test_replace_keeps_the_argmax_check(self):
        pd = PosteriorDistribution((0.6, 0.4), "bayes")
        assert dataclasses.replace(pd, method="naive").argmax_index == 0
        with pytest.raises(ValueError, match="argmax_index"):
            dataclasses.replace(pd, probabilities=(0.4, 0.6))
        moved = dataclasses.replace(pd, probabilities=(0.4, 0.6), argmax_index=None)
        assert moved.argmax_index == 1

    @pytest.mark.parametrize("weights", [[0.0, 0.0], [math.inf, 1.0], [1e308, 1e308]])
    def test_weights_without_a_positive_finite_total_are_degenerate(self, weights):
        with pytest.raises(DegenerateRange):
            PosteriorDistribution.from_weights(weights, "bayes")


class TestBayesPosterior:
    def test_blue_door_row(self):
        table = from_counts(STREET)
        pd = bayes_posterior(table, 0)
        np.testing.assert_allclose(pd.probabilities, (8 / 15, 7 / 15), atol=1e-15)
        assert pd.method == "bayes"
        assert pd.argmax_index == 0

    def test_explicit_priors(self):
        table = new_table([[0.8, 0.7], [0.6, 0.5]], [0.75, 0.25])
        pd = bayes_posterior(table, 0)
        np.testing.assert_allclose(pd.probabilities[0], 24 / 31, atol=1e-15)

    def test_bad_feature_index(self):
        table = from_counts(STREET)
        with pytest.raises(BadIndex):
            bayes_posterior(table, 2)
        with pytest.raises(BadIndex):
            bayes_posterior(table, -1)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            raw = 1.0 - rng.random(n)
            table = new_table(1.0 - rng.random((m, n)), raw / raw.sum())
            i = int(rng.integers(0, m))
            pd = bayes_posterior(table, i)
            expected = np.multiply(table.priors, table.x[i])
            expected = expected / expected.sum()
            np.testing.assert_allclose(pd.probabilities, expected, atol=1e-15)

    def test_subnormal_cells_keep_their_ratio(self):
        # The plain products 1/3 * 5e-324 and 2/3 * 5e-324 round to 0 and
        # 5e-324, which would give (0, 1).
        pd = bayes_posterior(new_table([[5e-324, 5e-324]], [1 / 3, 2 / 3]), 0)
        np.testing.assert_allclose(pd.probabilities, (1 / 3, 2 / 3), atol=1e-15)


class TestNaivePosterior:
    def test_street_value(self):
        pd = naive_posterior(from_counts(STREET))
        np.testing.assert_allclose(pd.probabilities[0], 0.5783132530120482, atol=1e-15)

    def test_single_feature_equals_bayes(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            table = random_table(rng, m=1, n=3)
            assert naive_posterior(table).probabilities == bayes_posterior(
                table, 0
            ).probabilities

    def test_matches_direct_product(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            table = random_table(rng, m=3, n=3)
            pd = naive_posterior(table)
            expected = table.priors * np.prod(table.x, axis=0)
            expected = expected / expected.sum()
            np.testing.assert_allclose(pd.probabilities, expected, rtol=1e-13)

    def test_complementarity(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            table = random_table(rng)
            assert abs(sum(naive_posterior(table).probabilities) - 1.0) <= 1e-12

    def test_normal_products_match_the_plain_loop_exactly(self):
        # Reference: the plain running product, exact while it stays normal.
        rng = np.random.default_rng(5)
        for _ in range(200):
            raw = 1.0 - rng.random(3)
            table = new_table(10.0 ** rng.uniform(-100.0, 0.0, (3, 3)), raw / raw.sum())
            weights = []
            for a in range(3):
                w = table.priors[a]
                for i in range(3):
                    w *= table.x[i][a]
                weights.append(w)
            assert naive_posterior(table) == PosteriorDistribution.from_weights(weights, "naive")

    def test_product_of_one_beside_the_normal_floor_matches_the_plain_product(self):
        # A largest product of exactly 1 must not be scaled down: that would
        # push a product just above the smallest normal float into subnormals.
        rng = np.random.default_rng(11)
        for cell in rng.uniform(2.3e-295, 4.4e-295, 40):
            table = new_table([[1.0, cell]], [1.0, 1e-13])
            weights = [1.0, 1e-13 * float(cell)]
            assert naive_posterior(table) == PosteriorDistribution.from_weights(weights, "naive")

    def test_products_below_the_float_range(self):
        # 1e-600 per hypothesis underflows to zero as a plain product.
        pd = naive_posterior(new_table([[1e-200, 1e-200]] * 3))
        assert pd.probabilities == (0.5, 0.5)
        # Equal true weights 1/3 * 1e-323 whichever row comes first; plain
        # products give (0, 1) in one row order.
        rows = [[1e-323, 1.0], [0.5, 1e-323]]
        for order in (rows, rows[::-1]):
            pd = naive_posterior(new_table(order, [2 / 3, 1 / 3]))
            np.testing.assert_allclose(pd.probabilities, (0.5, 0.5), atol=1e-15)


class TestMeanFrequencyPosterior:
    def test_street_value(self):
        pd = mean_frequency_posterior(STREET)
        np.testing.assert_allclose(pd.probabilities[0], 0.5882352941176471, atol=1e-15)
        assert pd.method == "mean_frequency"

    def test_three_hypotheses(self):
        counts = CountTable(np.array([[8, 7, 2], [6, 5, 9]]), np.array([10, 10, 10]))
        pd = mean_frequency_posterior(counts)
        mus = []
        for a in range(3):
            lo = max(0, counts.counts[0][a] + counts.counts[1][a] - 10)
            hi = min(counts.counts[0][a], counts.counts[1][a])
            mus.append((lo + hi) / 2 / 10)
        expected = np.array(mus) / sum(mus)
        np.testing.assert_allclose(pd.probabilities, expected, atol=1e-15)

    def test_explicit_priors(self):
        pd = mean_frequency_posterior(STREET, [0.75, 0.25])
        mu = (0.5, 0.35)
        expected = (0.75 * mu[0], 0.25 * mu[1])
        total = sum(expected)
        np.testing.assert_allclose(
            pd.probabilities, (expected[0] / total, expected[1] / total), atol=1e-15
        )

    def test_rejects_wrong_feature_count(self):
        with pytest.raises(Unsupported):
            mean_frequency_posterior(
                CountTable(np.array([[1, 1], [1, 1], [1, 1]]), np.array([2, 2]))
            )

    def test_rejects_bad_priors(self):
        with pytest.raises(InvalidPriors):
            mean_frequency_posterior(STREET, [0.9, 0.9])

    def test_degenerate_when_all_means_zero(self):
        counts = CountTable(np.array([[0, 0], [3, 3]]), np.array([10, 10]))
        with pytest.raises(DegenerateRange):
            mean_frequency_posterior(counts)


class TestMeanRangePosterior:
    def test_street_value(self):
        pd = mean_range_posterior(STREET)
        np.testing.assert_allclose(pd.probabilities[0], 0.5972222222222222, atol=1e-15)
        assert pd.method == "mean_range"

    def test_probabilities_sum_exactly_to_one(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            pop = int(rng.integers(2, 31))
            counts = CountTable(
                rng.integers(1, pop + 1, size=(2, 2)), np.array([pop, pop])
            )
            pd = mean_range_posterior(counts)
            assert sum(pd.probabilities) == 1.0

    def test_rejects_non_binary_shapes(self):
        with pytest.raises(Unsupported):
            mean_range_posterior(
                CountTable(np.array([[8, 7, 2], [6, 5, 9]]), np.array([10, 10, 10]))
            )
        with pytest.raises(Unsupported):
            mean_range_posterior(
                CountTable(np.array([[8, 7], [6, 5], [4, 4]]), np.array([10, 10]))
            )

    def test_degenerate_extreme_pairing(self):
        counts = CountTable(np.array([[0, 1], [1, 1]]), np.array([2, 2]))
        with pytest.raises(DegenerateRange):
            mean_range_posterior(counts)

    def test_population_share_weighting_reduces_to_count_ratio(self):
        counts = CountTable(np.array([[8, 7], [6, 5]]), np.array([10, 12]))
        pd = mean_range_posterior(counts)
        low = 4 / (4 + 5)
        high = 6 / (6 + 0)
        np.testing.assert_allclose(pd.probabilities[0], (low + high) / 2, atol=1e-15)


class TestSymmetries:
    def test_column_swap_exchanges_probabilities(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            x = 1.0 - rng.random((2, 2))
            base = naive_posterior(new_table(x))
            swapped = naive_posterior(new_table(x[:, ::-1]))
            assert swapped.probabilities == base.probabilities[::-1]

    def test_row_swap_leaves_naive_unchanged(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            x = 1.0 - rng.random((2, 2))
            base = naive_posterior(new_table(x))
            swapped = naive_posterior(new_table(x[::-1, :]))
            np.testing.assert_allclose(
                swapped.probabilities, base.probabilities, atol=1e-12
            )
