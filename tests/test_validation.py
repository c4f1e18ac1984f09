"""The constructors' validation contract: each bad input's error class and
exact message, the prior-sum boundary, read-only copied fields, typed
errors for ragged or non-numeric input, and the rules for indices and for
the suites' arguments."""

import math

import numpy as np
import pytest

from qlr import (
    BadIndex,
    BadShape,
    CountTable,
    InvalidCell,
    InvalidHbar,
    InvalidOverlap,
    InvalidPriors,
    OverlapMatrix,
    ParseError,
    bayes_posterior,
    cross_path_suite,
    enumerate_joint_counts,
    from_counts,
    hbar_moderated_coefficients,
    intersection_range,
    moderation_scale,
    new_table,
    posterior_general,
    posterior_independent,
    verify_constraint_suite,
)

NAN = float("nan")
INF = float("inf")
# A Python int that float() cannot hold: converting it raises OverflowError.
BEYOND_FLOAT = 10**400
CELL_RULE = "is outside (0, 1] (zero and negative cells are rejected at construction)"


def overlap_with(index, value):
    """Two 2x2 identity overlaps with one entry replaced."""
    c = np.stack([np.eye(2), np.eye(2)])
    c[index] = value
    return c


BAD_INPUTS = {
    "nan_cell": (
        lambda: new_table([[0.5, NAN], [0.5, 0.5]]),
        InvalidCell,
        f"cell [0, 1] = nan {CELL_RULE}",
    ),
    "cell_above_one": (
        lambda: new_table([[0.5, 0.5], [1.5, 0.5]]),
        InvalidCell,
        f"cell [1, 0] = 1.5 {CELL_RULE}",
    ),
    "zero_cell": (
        lambda: new_table([[0.5, 0.5], [0.5, 0.0]]),
        InvalidCell,
        f"cell [1, 1] = 0.0 {CELL_RULE}",
    ),
    "first_bad_cell_in_row_order": (
        lambda: new_table([[0.5, 0.5], [0.0, 2.0]], [INF, 0.5]),
        InvalidCell,
        f"cell [1, 0] = 0.0 {CELL_RULE}",
    ),
    "too_many_feature_labels": (
        lambda: new_table([[0.5, 0.5]], features=("a", "b")),
        BadShape,
        "labels (2 features, 2 hypotheses) do not match a 1x2 matrix",
    ),
    "too_few_hypothesis_labels": (
        lambda: new_table([[0.5, 0.5]], hypotheses=("a",)),
        BadShape,
        "labels (1 features, 1 hypotheses) do not match a 1x2 matrix",
    ),
    "inf_prior": (
        lambda: new_table([[0.5, 0.5]], [INF, 0.5]),
        InvalidPriors,
        "priors must be finite and nonnegative, got [inf, 0.5]",
    ),
    "nan_prior": (
        lambda: new_table([[0.5, 0.5]], [NAN, 1.0]),
        InvalidPriors,
        "priors must be finite and nonnegative, got [nan, 1.0]",
    ),
    "negative_prior": (
        lambda: new_table([[0.5, 0.5]], [1.5, -0.5]),
        InvalidPriors,
        "priors must be finite and nonnegative, got [1.5, -0.5]",
    ),
    "priors_of_wrong_length": (
        lambda: new_table([[0.5, 0.5]], [0.5, 0.25, 0.25]),
        InvalidPriors,
        "priors must have length 2, got shape (3,)",
    ),
    "prior_sum": (
        lambda: new_table([[0.5, 0.5]], [0.5, 0.4]),
        InvalidPriors,
        "priors must sum to 1 within 1e-12, got 0.9",
    ),
    "negative_count": (
        lambda: CountTable(np.array([[1, 2], [3, -1]]), np.array([5, 5])),
        BadShape,
        "counts must be nonnegative",
    ),
    "negative_count_before_count_above_population": (
        lambda: CountTable(np.array([[9, 2], [3, -1]]), np.array([5, 5])),
        BadShape,
        "counts must be nonnegative",
    ),
    "count_above_population": (
        lambda: CountTable(np.array([[1, 2], [3, 7]]), np.array([5, 6])),
        BadShape,
        "count [1, 1] = 7 exceeds population 6",
    ),
    "non_integer_population": (
        lambda: CountTable(np.array([[1, 2]]), np.array([5.0, 5.0])),
        BadShape,
        "counts and populations must be integers no larger than 1000000",
    ),
    "non_integer_count": (
        lambda: CountTable(np.array([[1.0, 2.0]]), np.array([5, 5])),
        BadShape,
        "counts and populations must be integers no larger than 1000000",
    ),
    # numpy casts a bool mixed with ints to an int; the rule still refuses it.
    "bool_count_among_ints": (
        lambda: CountTable([[True, 1]], [2, 2]),
        BadShape,
        "counts and populations must be integers no larger than 1000000",
    ),
    "bool_population_among_ints": (
        lambda: CountTable([[1, 1]], [True, 2]),
        BadShape,
        "counts and populations must be integers no larger than 1000000",
    ),
    "numpy_bool_count_among_ints": (
        lambda: CountTable([[np.True_, 1]], [2, 2]),
        BadShape,
        "counts and populations must be integers no larger than 1000000",
    ),
    "bool_array_row_among_int_rows": (
        lambda: CountTable([np.array([True, False]), [1, 2]], [2, 2]),
        BadShape,
        "counts and populations must be integers no larger than 1000000",
    ),
    "bool_population_scalar_array": (
        lambda: CountTable([[1, 1]], [np.array(True), 2]),
        BadShape,
        "counts and populations must be integers no larger than 1000000",
    ),
    "population_above_limit": (
        lambda: CountTable(np.array([[1, 2]]), np.array([5, 10**6 + 1])),
        BadShape,
        "populations above 1000000 are not supported",
    ),
    "zero_population": (
        lambda: CountTable(np.array([[0, 0]]), np.array([5, 0])),
        BadShape,
        "populations must be positive, got [5, 0]",
    ),
    "populations_of_wrong_length": (
        lambda: CountTable(np.array([[1, 2]]), np.array([5])),
        BadShape,
        "populations must have length 2, got shape (1,)",
    ),
    "zero_count_in_from_counts": (
        lambda: from_counts(CountTable(np.array([[3, 2], [1, 0], [0, 1]]), np.array([5, 5]))),
        InvalidCell,
        "count [1, 1] is zero; zero cells are rejected at construction",
    ),
    "non_finite_overlap": (
        lambda: OverlapMatrix(overlap_with((1, slice(None), slice(None)), INF)),
        InvalidOverlap,
        "overlap coefficients must be finite",
    ),
    "nan_overlap": (
        lambda: OverlapMatrix(overlap_with((1, 0, 1), NAN)),
        InvalidOverlap,
        "overlap coefficients must be finite",
    ),
    "overlap_diagonal_not_one": (
        lambda: OverlapMatrix(overlap_with((1, 1, 1), 0.9)),
        InvalidOverlap,
        "overlap diagonal entries must equal 1",
    ),
    "asymmetric_overlap": (
        lambda: OverlapMatrix(overlap_with((1, 1, 0), 0.5)),
        InvalidOverlap,
        "overlap matrices must be symmetric",
    ),
    "overlap_not_stacked": (
        lambda: OverlapMatrix(np.eye(2)),
        InvalidOverlap,
        "overlap must be (n, m, m) per-hypothesis square matrices, got (2, 2)",
    ),
    "non_finite_overlap_outranks_an_earlier_bad_diagonal": (
        lambda: OverlapMatrix([[[0.9, 0.0], [0.0, 1.0]], [[1.0, NAN], [NAN, 1.0]]]),
        InvalidOverlap,
        "overlap coefficients must be finite",
    ),
    "bad_diagonal_outranks_an_earlier_asymmetry": (
        lambda: OverlapMatrix([[[1.0, 0.5], [0.2, 1.0]], [[1.0, 0.0], [0.0, 0.9]]]),
        InvalidOverlap,
        "overlap diagonal entries must equal 1",
    ),
    "nan_moderated_coefficient": (
        lambda: hbar_moderated_coefficients(NAN, 0.5, 1.0),
        InvalidOverlap,
        "overlap coefficients must be finite, got nan, 0.5",
    ),
    "inf_moderated_coefficient": (
        lambda: hbar_moderated_coefficients(0.5, -INF, 1.0),
        InvalidOverlap,
        "overlap coefficients must be finite, got 0.5, -inf",
    ),
    "bad_hbar_outranks_a_bad_moderated_coefficient": (
        lambda: hbar_moderated_coefficients(NAN, 0.5, -1.0),
        InvalidHbar,
        "moderation scale must be finite and nonnegative, got -1.0",
    ),
}


@pytest.mark.parametrize("build, error, message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_keeps_its_class_and_message(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == message


# Each list sums, in numpy's pairwise order, to just inside or just outside
# 1 +- 1e-12.  From 8 weights a left-to-right sum rounds these to the other
# side, so the lists pin which summation the rule uses.
PRIOR_BOUNDARY = [
    ([0.5, 0.5 + 9.9e-13], True),
    ([0.5, 0.5 + 1e-12], False),
    ([0.5 - 9.9e-13, 0.5], True),
    (
        [
            0.22441732766303893, 0.06368184096240297, 0.1961053317950448,
            0.012527828824128411, 0.05418309178000956, 0.19737252918904397,
            0.2061481607475089, 0.04556388903782248,
        ],
        True,
    ),
    (
        [
            0.17065142987612025, 0.19554131520953683, 0.07058280519175517,
            0.22892614544650577, 0.19861790344227015, 0.03321277363728339,
            0.006015544690939479, 0.0964520825065889,
        ],
        False,
    ),
    (
        [
            0.15994080469029612, 0.08942461768729383, 0.06005635391380236,
            0.24877553673395336, 0.013353739232531706, 0.19752108249497097,
            0.05239390654689032, 0.057041311870885424, 0.12149264683037585,
        ],
        True,
    ),
    (
        [
            0.02216929003746405, 0.01875655019162016, 0.12716650418805137,
            0.31024632362017196, 0.105055200424134, 0.043877150485758125,
            0.05950795122678091, 0.09907552418803812, 0.21414550563898133,
        ],
        False,
    ),
]


@pytest.mark.parametrize("priors, accepted", PRIOR_BOUNDARY)
def test_prior_sum_boundary(priors, accepted):
    x = [[0.5] * len(priors)]
    if accepted:
        assert new_table(x, priors).priors == tuple(priors)
    else:
        with pytest.raises(InvalidPriors, match="must sum to 1"):
            new_table(x, priors)


def test_boundary_lists_tell_the_two_summation_orders_apart():
    for priors, accepted in PRIOR_BOUNDARY[3:]:
        assert (abs(sum(priors) - 1.0) <= 1e-12) != accepted


def assert_frozen(arr, dtype):
    assert isinstance(arr, np.ndarray)
    assert arr.dtype == dtype
    assert arr.flags.writeable is False


def assert_tuple_of(values, kind):
    assert type(values) is tuple
    assert all(type(v) is kind for v in values)


def test_fields_are_read_only_copies():
    # Table fields are tuples of Python numbers; the overlap stays a frozen array.
    x = np.array([[0.8, 0.7], [0.6, 0.5]])
    priors = np.array([0.25, 0.75])
    counts = np.array([[8, 7], [6, 5]], dtype=np.int32)
    populations = np.array([10, 10], dtype=np.int32)
    c = np.stack([np.eye(2), np.eye(2)])
    table = new_table(x, priors)
    count_table = CountTable(counts, populations)
    overlap = OverlapMatrix(c)

    converted = from_counts(count_table)
    for rows, kind in ((table.x, float), (converted.x, float), (count_table.counts, int)):
        assert_tuple_of(rows, tuple)
        for row in rows:
            assert_tuple_of(row, kind)
    for values, kind in (
        (table.priors, float),
        (converted.priors, float),
        (new_table([[0.5, 0.5]]).priors, float),
        (count_table.populations, int),
        (count_table.population_shares, float),
    ):
        assert_tuple_of(values, kind)
    assert_frozen(overlap.c, np.float64)
    assert_frozen(OverlapMatrix.from_pair(0.2, 0.3).c, np.float64)
    assert_frozen(OverlapMatrix.identity(2, 3).c, np.float64)

    for arr in (x, priors, counts, populations, c):
        arr[...] = 0
    assert table.x == ((0.8, 0.7), (0.6, 0.5))
    assert table.priors == (0.25, 0.75)
    assert count_table.counts == ((8, 7), (6, 5))
    assert count_table.populations == (10, 10)
    assert overlap.c.tolist() == np.stack([np.eye(2), np.eye(2)]).tolist()


def test_count_derived_priors_are_the_count_tables_shares():
    count_table = CountTable([[3, 2], [4, 5]], [6, 7])
    priors = from_counts(count_table).priors
    assert priors is count_table.population_shares
    assert priors == (6 / 13, 7 / 13)


def test_labels_are_strings():
    table = new_table([[0.5, 0.5]], features=(7,), hypotheses=("A", 2.5))
    assert table.features == ("7",)
    assert table.hypotheses == ("A", "2.5")
    assert new_table([[0.5, 0.5]]).hypotheses == ("H1", "H2")


TYPED_CONVERSIONS = {
    "ragged_x": (lambda: new_table([[0.5, 0.5], [0.5]]), BadShape),
    "sequence_cell": (lambda: new_table([[0.5, [0.5]], [0.5, 0.5]]), BadShape),
    "string_cell": (lambda: new_table([[0.5, "a"], [0.5, 0.5]]), InvalidCell),
    "object_cell": (lambda: new_table([[0.5, {}], [0.5, 0.5]]), InvalidCell),
    "ragged_priors": (lambda: new_table([[0.5, 0.5]], [0.5, [0.5]]), InvalidPriors),
    "string_prior": (lambda: new_table([[0.5, 0.5]], [0.5, "a"]), InvalidPriors),
    "ragged_counts": (lambda: CountTable([[1, 2], [3]], [5, 5]), BadShape),
    "ragged_populations": (lambda: CountTable([[1, 2]], [5, [5]]), BadShape),
    "ragged_overlap": (lambda: OverlapMatrix([[[1, 0.2], [0.2]]]), InvalidOverlap),
    "string_overlap": (lambda: OverlapMatrix([[[1, "a"], [0.2, 1]]]), InvalidOverlap),
    "ragged_overlap_to_posterior_general": (
        lambda: posterior_general(new_table([[0.5, 0.5]]), [[[1.0]], [[1.0, 0.0]]]),
        InvalidOverlap,
    ),
    "int_beyond_float_cell": (
        lambda: new_table([[BEYOND_FLOAT, 0.5], [0.5, 0.5]]),
        InvalidCell,
    ),
    "int_beyond_float_prior": (lambda: new_table([[0.5, 0.5]], [BEYOND_FLOAT, 0.5]), InvalidPriors),
    "int_beyond_float_resolved_prior": (
        lambda: CountTable([[1, 1]], [2, 2]).resolve_priors([BEYOND_FLOAT, 0.5]),
        InvalidPriors,
    ),
    "int_beyond_float_overlap": (
        lambda: OverlapMatrix([[[1, BEYOND_FLOAT], [0.2, 1]]]),
        InvalidOverlap,
    ),
    "int_beyond_float_hbar": (lambda: moderation_scale(BEYOND_FLOAT), InvalidHbar),
    "string_hbar": (lambda: moderation_scale("a"), InvalidHbar),
    "int_beyond_float_moderated_coefficient": (
        lambda: hbar_moderated_coefficients(BEYOND_FLOAT, 0.5, 1.0),
        InvalidOverlap,
    ),
    "string_moderated_coefficient": (
        lambda: hbar_moderated_coefficients("a", 0.5, 1.0),
        InvalidOverlap,
    ),
    "none_moderated_coefficient": (
        lambda: hbar_moderated_coefficients(None, 0.5, 1.0),
        InvalidOverlap,
    ),
}


@pytest.mark.parametrize("build, error", TYPED_CONVERSIONS.values(), ids=TYPED_CONVERSIONS.keys())
def test_unconvertible_input_raises_the_rules_typed_error(build, error):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert isinstance(caught.value.__cause__, (TypeError, ValueError, OverflowError))


def test_string_numbers_still_convert():
    table = new_table([["0.5", 0.5]], ["0.25", 0.75])
    assert table.x == ((0.5, 0.5),)
    assert math.isclose(table.priors[0], 0.25)


TABLE = new_table([[0.6, 0.3], [0.5, 0.4]])
COUNTS = CountTable([[3, 2], [4, 5]], [6, 7])
INDEXED_CALLS = {
    "bayes_posterior": lambda k: bayes_posterior(TABLE, k),
    "posterior_independent": lambda k: posterior_independent(TABLE, k),
    "intersection_range": lambda k: intersection_range(COUNTS, k, 0, 1),
    "enumerate_joint_counts": lambda k: enumerate_joint_counts(COUNTS, 0, 1, k),
}


@pytest.mark.parametrize("call", INDEXED_CALLS.values(), ids=INDEXED_CALLS.keys())
def test_index_rule_takes_numpy_integers_and_refuses_bools(call):
    assert call(np.int64(0)) == call(np.uint8(0)) == call(0)
    for index in (True, False, 0.0, np.float64(0.0)):
        with pytest.raises(BadIndex, match="must be an integer in"):
            call(index)


SUITES = {"verify_constraint_suite": verify_constraint_suite, "cross_path_suite": cross_path_suite}


@pytest.mark.parametrize("suite", SUITES.values(), ids=SUITES.keys())
def test_suite_arguments_take_numpy_integers_and_refuse_bools(suite):
    report = suite(np.int64(3), np.uint16(5))
    assert report == suite(3, 5)
    assert (type(report.sample_count), type(report.seed)) == (int, int)
    for args, name in (((True, 5), "samples"), ((3, False), "seed")):
        with pytest.raises(ParseError, match=f"^{name} must be an integer >= "):
            suite(*args)
