"""Construction rules for contingency tables, count tables, and ranges."""

import dataclasses

import numpy as np
import pytest

from qlr import (
    BadIndex,
    BadShape,
    ContingencyTable,
    CountTable,
    IntegerRange,
    InvalidCell,
    InvalidPriors,
    Unsupported,
    from_counts,
    intersection_range,
    new_table,
)

STREET_COUNTS = np.array([[8, 7], [6, 5]])
STREET_POPS = np.array([10, 10])


def street_count_table() -> CountTable:
    return CountTable(STREET_COUNTS.copy(), STREET_POPS.copy())


class TestContingencyTable:
    def test_valid_construction(self):
        table = new_table([[0.8, 0.7], [0.6, 0.5]])
        assert table.m == 2
        assert table.n == 2
        assert table.features == ("D1", "D2")
        assert table.hypotheses == ("H1", "H2")
        np.testing.assert_allclose(table.priors, [0.5, 0.5])

    def test_fields_are_tuples_that_refuse_assignment(self):
        table = new_table([[0.8, 0.7], [0.6, 0.5]])
        assert table.x == ((0.8, 0.7), (0.6, 0.5))
        with pytest.raises(TypeError):
            table.x[0][0] = 0.9
        with pytest.raises(TypeError):
            table.priors[0] = 0.9

    def test_default_priors_are_one_shared_tuple_per_size(self):
        first = new_table([[0.8, 0.7], [0.6, 0.5]])
        second = new_table([[0.1, 0.2]])
        assert first.priors is second.priors
        assert first.priors == (0.5, 0.5)
        assert new_table([[0.1, 0.2, 0.3]]).priors == (1 / 3,) * 3

    def test_custom_labels_and_priors(self):
        table = new_table(
            [[0.8, 0.7], [0.6, 0.5]],
            [0.75, 0.25],
            features=("blue_door", "white_car"),
            hypotheses=("A", "B"),
        )
        assert table.features == ("blue_door", "white_car")
        assert table.hypotheses == ("A", "B")
        np.testing.assert_allclose(table.priors, [0.75, 0.25])

    def test_rejects_non_2d(self):
        with pytest.raises(BadShape):
            new_table([0.5, 0.5])

    def test_rejects_single_hypothesis(self):
        with pytest.raises(BadShape):
            new_table([[0.5], [0.5]])

    def test_rejects_label_mismatch(self):
        with pytest.raises(BadShape):
            new_table([[0.5, 0.5]], features=("a", "b"))

    def test_rejects_zero_cell(self):
        with pytest.raises(InvalidCell, match=r"cell \[1, 0\]"):
            new_table([[0.5, 0.5], [0.0, 0.5]])

    def test_rejects_cell_above_one(self):
        with pytest.raises(InvalidCell, match=r"cell \[0, 1\]"):
            new_table([[0.5, 1.5], [0.5, 0.5]])

    def test_rejects_negative_cell(self):
        with pytest.raises(InvalidCell):
            new_table([[0.5, -0.1], [0.5, 0.5]])

    def test_one_is_a_valid_probability(self):
        table = new_table([[1.0, 1.0]])
        assert table.x[0][0] == 1.0

    def test_rejects_bad_priors(self):
        rows = [[0.5, 0.5]]
        with pytest.raises(InvalidPriors):
            new_table(rows, [0.5, 0.4])
        with pytest.raises(InvalidPriors):
            new_table(rows, [1.5, -0.5])
        with pytest.raises(InvalidPriors):
            new_table(rows, [0.5, 0.25, 0.25])
        with pytest.raises(InvalidPriors):
            new_table(rows, [float("nan"), 1.0])

    def test_prior_sum_tolerance_is_tight(self):
        new_table([[0.5, 0.5]], [0.5 + 4e-13, 0.5])
        with pytest.raises(InvalidPriors):
            new_table([[0.5, 0.5]], [0.5 + 2e-12, 0.5])


class TestCountTable:
    def test_valid_construction(self):
        counts = street_count_table()
        assert counts.m == 2
        assert counts.n == 2
        assert counts.counts == ((8, 7), (6, 5))
        assert counts.populations == (10, 10)
        assert all(type(v) is int for row in counts.counts for v in row)

    @pytest.mark.parametrize(
        "labels", [{"features": ("a", "b", "c")}, {"hypotheses": ("A",)}]
    )
    def test_wrong_label_count_is_the_probability_tables_error(self, labels):
        errors = []
        for build in (
            lambda: new_table([[0.8, 0.7], [0.6, 0.5]], **labels),
            lambda: CountTable(STREET_COUNTS, STREET_POPS, **labels),
        ):
            with pytest.raises(BadShape) as caught:
                build()
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("labels (")

    def test_labels_and_explicit_priors(self):
        counts = CountTable(
            STREET_COUNTS, STREET_POPS, [0.75, 0.25], features=("door", 2), hypotheses=("A", "B")
        )
        assert counts.features == ("door", "2")
        assert counts.hypotheses == ("A", "B")
        assert counts.priors == (0.75, 0.25)
        assert street_count_table().features == ("D1", "D2")
        assert street_count_table().hypotheses == ("H1", "H2")
        with pytest.raises(InvalidPriors):
            CountTable(STREET_COUNTS, STREET_POPS, [0.5, 0.25])

    def test_priors_default_to_the_shares_and_replace_keeps_them(self):
        counts = street_count_table()
        assert "priors" in {f.name for f in dataclasses.fields(CountTable)}
        assert counts.priors == (0.5, 0.5)
        grown = dataclasses.replace(counts, populations=np.array([10, 30]))
        assert grown.priors == (0.5, 0.5)
        assert CountTable(grown.counts, grown.populations).priors == (0.25, 0.75)

    def test_zero_counts_allowed(self):
        CountTable(np.array([[0, 3]]), np.array([5, 5]))

    def test_rejects_float_counts(self):
        with pytest.raises(BadShape):
            CountTable(np.array([[1.0, 2.0]]), np.array([5, 5]))

    def test_rejects_count_above_population(self):
        with pytest.raises(BadShape, match=r"count \[0, 1\]"):
            CountTable(np.array([[3, 7]]), np.array([5, 5]))

    def test_rejects_negative_count(self):
        with pytest.raises(BadShape):
            CountTable(np.array([[-1, 2]]), np.array([5, 5]))

    def test_rejects_nonpositive_population(self):
        with pytest.raises(BadShape):
            CountTable(np.array([[0, 0]]), np.array([5, 0]))

    def test_rejects_oversized_population(self):
        with pytest.raises(BadShape):
            CountTable(np.array([[1]]), np.array([10**6 + 1]))

    def test_rejects_population_shape_mismatch(self):
        with pytest.raises(BadShape):
            CountTable(np.array([[1, 2]]), np.array([5]))


class TestValueSemantics:
    """Tables compare and hash by value, so equal inputs give one set member."""

    def assert_one_value(self, first, second):
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_equal_probability_tables(self):
        rows = [[0.8, 0.7], [0.6, 0.5]]
        self.assert_one_value(
            new_table(rows, [0.25, 0.75]), new_table(np.array(rows), (0.25, 0.75))
        )
        assert new_table(rows, [0.25, 0.75]) != new_table(rows)
        assert new_table(rows) != new_table(rows, hypotheses=("A", "B"))

    def test_equal_count_tables(self):
        self.assert_one_value(CountTable([[8, 7], [6, 5]], [10, 10]), street_count_table())
        assert street_count_table() != CountTable([[8, 7], [6, 5]], [10, 11])

    def test_equal_count_derived_tables(self):
        converted = from_counts(street_count_table())
        self.assert_one_value(converted, from_counts(street_count_table()))
        self.assert_one_value(converted, new_table([[0.8, 0.7], [0.6, 0.5]]))


class TestIntegerRange:
    def test_singleton(self):
        r = IntegerRange(10, 10)
        assert (r.lo, r.hi) == (10, 10)

    def test_rejects_negative_lower_bound(self):
        with pytest.raises(ValueError):
            IntegerRange(-1, 3)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            IntegerRange(4, 3)


class TestFromCounts:
    def test_street_table_conversion(self):
        table = from_counts(street_count_table())
        np.testing.assert_allclose(table.x, [[0.8, 0.7], [0.6, 0.5]])
        np.testing.assert_allclose(table.priors, [0.5, 0.5])

    def test_population_share_priors(self):
        counts = CountTable(np.array([[3, 1]]), np.array([30, 10]))
        table = from_counts(counts)
        np.testing.assert_allclose(table.priors, [0.75, 0.25])

    # A valid count table that has no probability view: the request, not
    # the table, is refused.
    def test_rejects_zero_count(self):
        counts = CountTable(np.array([[0, 3]]), np.array([5, 5]))
        with pytest.raises(Unsupported, match="^probability-based methods need nonzero counts$"):
            from_counts(counts)

    def test_rejects_single_hypothesis(self):
        counts = CountTable(np.array([[3]]), np.array([5]))
        with pytest.raises(Unsupported, match="need at least 2 hypotheses$"):
            from_counts(counts)


class TestIntersectionRange:
    def test_street_ranges(self):
        counts = street_count_table()
        r_a = intersection_range(counts, 0, 0, 1)
        r_b = intersection_range(counts, 1, 0, 1)
        assert (r_a.lo, r_a.hi) == (4, 6)
        assert (r_b.lo, r_b.hi) == (2, 5)

    def test_saturated_features_force_full_overlap(self):
        counts = CountTable(np.array([[10, 10], [10, 10]]), np.array([10, 10]))
        r = intersection_range(counts, 0, 0, 1)
        assert (r.lo, r.hi) == (10, 10)

    def test_possibly_disjoint_features(self):
        counts = CountTable(np.array([[3, 3], [4, 4]]), np.array([10, 10]))
        r = intersection_range(counts, 0, 0, 1)
        assert (r.lo, r.hi) == (0, 3)

    def test_symmetric_in_feature_order(self):
        counts = street_count_table()
        a = intersection_range(counts, 0, 0, 1)
        b = intersection_range(counts, 0, 1, 0)
        assert (a.lo, a.hi) == (b.lo, b.hi)

    def test_bad_indices(self):
        counts = street_count_table()
        with pytest.raises(BadIndex):
            intersection_range(counts, 2, 0, 1)
        with pytest.raises(BadIndex):
            intersection_range(counts, 0, 0, 2)
        with pytest.raises(BadIndex):
            intersection_range(counts, 0, 1, 1)

    def test_bounds_match_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            pop = int(rng.integers(1, 26))
            c = rng.integers(0, pop + 1, size=(2, 1))
            counts = CountTable(c, np.array([pop]))
            r = intersection_range(counts, 0, 0, 1)
            feasible = [
                k
                for k in range(pop + 1)
                if k <= c[0, 0] and k <= c[1, 0] and pop - c[0, 0] - c[1, 0] + k >= 0
            ]
            assert feasible == list(range(r.lo, r.hi + 1))
