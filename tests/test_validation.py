"""The constructors' validation contract: each bad input's error class and
exact message, the prior-sum boundary, read-only copied fields, typed
errors for ragged or non-numeric input, and the rules for indices and for
the suites' arguments."""

import functools
import operator

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
    Unsupported,
    bayes_posterior,
    cross_path_suite,
    enumerate_joint_counts,
    from_counts,
    hbar_moderated_coefficients,
    intersection_range,
    moderation_scale,
    new_table,
    posterior_2x2,
    posterior_general,
    posterior_independent,
    verify_constraint_suite,
)
from qlr.tables import _pairwise_sum

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
    # numpy casts a bool to 1.0 or 0.0; the cell and prior rules refuse it.
    "bool_cell": (
        lambda: new_table([[True, 0.5], [0.5, 0.5]]),
        InvalidCell,
        "probability matrix must hold only numbers (a bool is not a number)",
    ),
    "numpy_bool_cell_row": (
        lambda: new_table([np.array([True, True]), [0.5, 0.5]]),
        InvalidCell,
        "probability matrix must hold only numbers (a bool is not a number)",
    ),
    "bool_cell_in_an_object_array": (
        lambda: new_table(np.array([[0.5, 0.5], [0.5, True]], dtype=object)),
        InvalidCell,
        "probability matrix must hold only numbers (a bool is not a number)",
    ),
    "bool_prior": (
        lambda: new_table([[0.5, 0.5]], [True, False]),
        InvalidPriors,
        "priors must hold only numbers (a bool is not a number)",
    ),
    "numpy_bool_prior_for_counts": (
        lambda: CountTable([[1, 1]], [2, 2], [np.True_, 0.0]),
        InvalidPriors,
        "priors must hold only numbers (a bool is not a number)",
    ),
    # numpy converts a numeric string, and None to nan; the number rule
    # refuses them first, naming what it found.
    "numeric_string_cell": (
        lambda: new_table([["0.5", 0.5], [0.5, 0.5]]),
        InvalidCell,
        "probability matrix must hold only numbers (a str is not a number)",
    ),
    # A string or bytes numpy cannot convert is named the same way, not in
    # the conversion's own words.
    "string_cell": (
        lambda: new_table([[0.5, "a"], [0.5, 0.5]]),
        InvalidCell,
        "probability matrix must hold only numbers (a str is not a number)",
    ),
    "bytes_cell": (
        lambda: new_table([[0.5, b"x"], [0.5, 0.5]]),
        InvalidCell,
        "probability matrix must hold only numbers (a bytes is not a number)",
    ),
    "numpy_string_cell_row": (
        lambda: new_table([np.array(["0.5", "0.5"]), [0.5, 0.5]]),
        InvalidCell,
        "probability matrix must hold only numbers (a str is not a number)",
    ),
    "none_cell": (
        lambda: new_table([[0.5, None], [0.5, 0.5]]),
        InvalidCell,
        "probability matrix must hold only numbers (None is not a number)",
    ),
    "bytes_prior": (
        lambda: new_table([[0.5, 0.5]], [b"0.5", 0.5]),
        InvalidPriors,
        "priors must hold only numbers (a bytes is not a number)",
    ),
    "none_prior_for_counts": (
        lambda: CountTable([[1, 1]], [2, 2], [None, 1.0]),
        InvalidPriors,
        "priors must hold only numbers (None is not a number)",
    ),
    "numpy_string_hbar": (
        lambda: moderation_scale(np.str_("0.5")),
        InvalidHbar,
        f"moderation scale must be a finite number, got {np.str_('0.5')!r}",
    ),
    "bool_overlap_entry": (
        lambda: OverlapMatrix([[[True, 0.3], [0.3, True]]] * 2),
        InvalidOverlap,
        "overlap must hold only numbers (a bool is not a number)",
    ),
    "string_overlap_pair": (
        lambda: OverlapMatrix.from_pair("0.3", 0.5),
        InvalidOverlap,
        "overlap must hold only numbers (a str is not a number)",
    ),
    # A ragged nesting is refused in qlr's words alone; numpy's exception
    # stays the cause, but its wording is not part of the message.
    "ragged_matrix": (
        lambda: new_table([[0.8, 0.7], [0.6]]),
        BadShape,
        "probability matrix must be a rectangular array",
    ),
    "ragged_prior_list": (
        lambda: new_table([[0.5, 0.5]], [0.5, [0.5]]),
        BadShape,
        "priors must be a rectangular array",
    ),
    "ragged_count_list": (
        lambda: CountTable([[8, 7], [6]], [10, 10]),
        BadShape,
        "counts must be a rectangular array",
    ),
    "ragged_overlap": (
        lambda: OverlapMatrix([[[1.0, 0.2], [0.2]]]),
        BadShape,
        "overlap must be a rectangular array",
    ),
    "bool_moderated_coefficient": (
        lambda: hbar_moderated_coefficients(0.5, True, 1.0),
        InvalidOverlap,
        "overlap coefficients must be numbers (a bool is not a number)",
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
    # A string would split into one label per character, and bytes into
    # their byte values; neither is a label list, nor is a scalar.
    "string_hypothesis_labels": (
        lambda: new_table([[0.5, 0.5]], hypotheses="AB"),
        BadShape,
        "hypotheses must be a list of labels, got str 'AB'",
    ),
    "bytes_hypothesis_labels": (
        lambda: new_table([[0.5, 0.5]], hypotheses=b"AB"),
        BadShape,
        "hypotheses must be a list of labels, got bytes b'AB'",
    ),
    "int_hypothesis_labels": (
        lambda: new_table([[0.5, 0.5]], hypotheses=5),
        BadShape,
        "hypotheses must be a list of labels, got int 5",
    ),
    "string_feature_labels_for_counts": (
        lambda: CountTable([[1, 1]], [2, 2], features="d"),
        BadShape,
        "features must be a list of labels, got str 'd'",
    ),
    "bytes_hypothesis_labels_for_counts": (
        lambda: CountTable([[1, 1]], [2, 2], hypotheses=b"AB"),
        BadShape,
        "hypotheses must be a list of labels, got bytes b'AB'",
    ),
    "int_feature_labels_for_counts": (
        lambda: CountTable([[1, 1]], [2, 2], features=7),
        BadShape,
        "features must be a list of labels, got int 7",
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
    # numpy casts a bool mixed with ints to an int; the number rule refuses it.
    "bool_count_among_ints": (
        lambda: CountTable([[True, 1]], [2, 2]),
        BadShape,
        "counts must hold only numbers (a bool is not a number)",
    ),
    "bool_population_among_ints": (
        lambda: CountTable([[1, 1]], [True, 2]),
        BadShape,
        "populations must hold only numbers (a bool is not a number)",
    ),
    "numpy_bool_count_among_ints": (
        lambda: CountTable([[np.True_, 1]], [2, 2]),
        BadShape,
        "counts must hold only numbers (a bool is not a number)",
    ),
    "bool_array_row_among_int_rows": (
        lambda: CountTable([np.array([True, False]), [1, 2]], [2, 2]),
        BadShape,
        "counts must hold only numbers (a bool is not a number)",
    ),
    "bool_population_scalar_array": (
        lambda: CountTable([[1, 1]], [np.array(True), 2]),
        BadShape,
        "populations must hold only numbers (a bool is not a number)",
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
        Unsupported,
        "probability-based methods need nonzero counts",
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
    "overlap_without_hypotheses": (
        lambda: OverlapMatrix(np.empty((0, 2, 2))),
        InvalidOverlap,
        "overlap must be (n, m, m) per-hypothesis square matrices, got (0, 2, 2)",
    ),
    "overlap_without_features": (
        lambda: OverlapMatrix(np.empty((2, 0, 0))),
        InvalidOverlap,
        "overlap must be (n, m, m) per-hypothesis square matrices, got (2, 0, 0)",
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
    "bool_hbar": (
        lambda: moderation_scale(True),
        InvalidHbar,
        "moderation scale must be a finite number, got True",
    ),
    "false_hbar_in_the_closed_form": (
        lambda: posterior_2x2(new_table([[0.5, 0.4], [0.3, 0.6]]), False),
        InvalidHbar,
        "moderation scale must be a finite number, got False",
    ),
    "numpy_bool_hbar_in_moderation": (
        lambda: hbar_moderated_coefficients(0.5, 0.5, np.True_),
        InvalidHbar,
        f"moderation scale must be a finite number, got {np.True_!r}",
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
    # The sequential sum spelled out: from Python 3.12 the built-in sum of
    # floats is compensated, not left to right.
    for priors, accepted in PRIOR_BOUNDARY[3:]:
        assert (abs(functools.reduce(operator.add, priors) - 1.0) <= 1e-12) != accepted


def test_prior_sum_is_numpys_pairwise_sum_bit_for_bit():
    # Lengths 1-300 cross every branch edge: 7, 8, 9, 128, 129, 136.
    rng = np.random.default_rng(33)
    for n in [*range(1, 301), 511, 1000]:
        for weights in (
            rng.random(n),
            rng.dirichlet(np.ones(n)),
            10.0 ** rng.uniform(-300.0, 0.0, n),
            rng.choice([0.0, -0.0, 5e-324], n),
        ):
            got = _pairwise_sum(weights.tolist())
            assert float.hex(got) == float.hex(float(np.sum(weights))), n


def test_a_zero_prior_sum_is_reported_as_numpy_reported_it():
    # np.sum adds its pairwise sum to 0.0, so -0.0 weights total 0.0.
    for n in (2, 9):
        with pytest.raises(InvalidPriors, match=r"got 0\.0$"):
            new_table([[0.5] * n], [-0.0] * n)


def assert_tuple_of(values, kind):
    assert type(values) is tuple
    assert all(type(v) is kind for v in values)


def test_fields_are_read_only_copies():
    # Table and overlap fields are tuples of Python numbers.
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
        (count_table.priors, float),
    ):
        assert_tuple_of(values, kind)
    for each in (overlap, OverlapMatrix.from_pair(0.2, 0.3), OverlapMatrix([np.eye(3)] * 2)):
        assert_tuple_of(each.c, tuple)
        for block in each.c:
            assert_tuple_of(block, tuple)
            for row in block:
                assert_tuple_of(row, float)

    for arr in (x, priors, counts, populations, c):
        arr[...] = 0
    assert table.x == ((0.8, 0.7), (0.6, 0.5))
    assert table.priors == (0.25, 0.75)
    assert count_table.counts == ((8, 7), (6, 5))
    assert count_table.populations == (10, 10)
    assert overlap.c == (((1.0, 0.0), (0.0, 1.0)),) * 2


def test_count_derived_priors_are_the_count_tables_shares():
    count_table = CountTable([[3, 2], [4, 5]], [6, 7])
    priors = from_counts(count_table).priors
    assert priors is count_table.priors
    assert priors == (6 / 13, 7 / 13)


def test_from_counts_carries_the_count_tables_labels_and_priors():
    count_table = CountTable(
        [[3, 2], [4, 5]], [6, 7], [0.25, 0.75], features=("a", 7), hypotheses=("A", "B")
    )
    table = from_counts(count_table)
    assert table.features is count_table.features
    assert table.hypotheses is count_table.hypotheses
    assert table.priors is count_table.priors
    assert (table.features, table.hypotheses, table.priors) == (
        ("a", "7"),
        ("A", "B"),
        (0.25, 0.75),
    )


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
    "ragged_priors": (lambda: new_table([[0.5, 0.5]], [0.5, [0.5]]), BadShape),
    "string_prior": (lambda: new_table([[0.5, 0.5]], [0.5, "a"]), InvalidPriors),
    "ragged_counts": (lambda: CountTable([[1, 2], [3]], [5, 5]), BadShape),
    "ragged_populations": (lambda: CountTable([[1, 2]], [5, [5]]), BadShape),
    "ragged_overlap": (lambda: OverlapMatrix([[[1, 0.2], [0.2]]]), BadShape),
    "string_overlap": (lambda: OverlapMatrix([[[1, "a"], [0.2, 1]]]), InvalidOverlap),
    "ragged_overlap_to_posterior_general": (
        lambda: posterior_general(new_table([[0.5, 0.5]]), [[[1.0]], [[1.0, 0.0]]]),
        BadShape,
    ),
    "int_beyond_float_cell": (
        lambda: new_table([[BEYOND_FLOAT, 0.5], [0.5, 0.5]]),
        InvalidCell,
    ),
    "int_beyond_float_prior": (lambda: new_table([[0.5, 0.5]], [BEYOND_FLOAT, 0.5]), InvalidPriors),
    "int_beyond_float_count_prior": (
        lambda: CountTable([[1, 1]], [2, 2], [BEYOND_FLOAT, 0.5]),
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


def test_string_numbers_are_refused():
    # numpy would convert both; the number rule refuses a string as a bool.
    with pytest.raises(InvalidCell, match=r"\(a str is not a number\)$"):
        new_table([["0.5", 0.5]])
    with pytest.raises(InvalidPriors, match=r"\(a str is not a number\)$"):
        new_table([[0.5, 0.5]], ["0.25", 0.75])


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
