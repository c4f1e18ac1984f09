"""Property tests over the documented input domain: cells anywhere in (0, 1]
(subnormals included), count tables with populations up to 10^6, and mutated
input files.

Every estimator returns a finite posterior that sums to 1 or raises a typed
:class:`~qlr.errors.QlrError`; swapping the two feature rows leaves each
posterior unchanged; the products behind the naive and Bayes weights equal
a frexp-per-factor loop bit for bit; an overlap is positive definite exactly
when its smallest eigenvalue clears the tolerance; a count table's integer
views and population shares equal what the numpy fields give; every public
numeric argument, whatever its value, gives a result or a typed error, and
a bool, a string, bytes or None a typed error; the closed form is naive
Bayes on the surface the quantum module states, on which every known-value
family of the constraint suite lies; the command line exits 0, 2 or 3 on
any file, never with a traceback; and on a 2x2 file it reports
``wavefunction`` exactly when the overlap's gate flags are all true.  Draws
are derandomized so the suite is repeatable.
"""

import contextlib
import dataclasses
import functools
import io
import json
import math
import operator
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from qlr import (
    CountTable,
    DegenerateRange,
    NotPositiveDefinite,
    OverlapMatrix,
    PosteriorDistribution,
    QlrError,
    bayes_posterior,
    cross_path_suite,
    enumerate_joint_counts,
    hbar_moderated_coefficients,
    intersection_range,
    moderation_scale,
    naive_posterior,
    new_table,
    overlap_coefficients,
    posterior_2x2,
    posterior_general,
    positive_definite,
    posterior_independent,
    posterior_via_wavefunction,
    verify_constraint_suite,
)
from qlr.checks import CONSTRAINT_CHECKS, draw_cross_path_samples
from qlr.classical import _products
from qlr.cli import main
from qlr.tables import MAX_POPULATION
from qlr.wavefunction import PD_EIGENVALUE_TOL, RESIDUAL_TOL

REPO_ROOT = Path(__file__).resolve().parents[1]

# Extreme draws must reach a typed error without a numpy warning on the way.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PROPERTY_SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)

# Complementarity tolerance of the constraint suites.
SUM_TOL = 1e-12
# Row swap only reorders the additions and products behind each posterior,
# so the two results differ by a few roundings of numbers at most 1.
SWAP_TOL = 1e-12

CELLS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, allow_subnormal=True)


@st.composite
def tables(draw, shapes=((1, 2), (2, 2), (2, 3), (3, 2), (3, 3))):
    m, n = draw(st.sampled_from(shapes))
    x = [[draw(CELLS) for _ in range(n)] for _ in range(m)]
    raw = draw(st.none() | st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    priors = None if raw is None else [v / math.fsum(raw) for v in raw]
    return new_table(x, priors)


def _swapped(table):
    """The table with its first two feature rows exchanged."""
    order = [1, 0, *range(2, table.m)]
    return new_table([table.x[k] for k in order], table.priors)


def _identity(table):
    m = table.m
    return OverlapMatrix(np.broadcast_to(np.eye(m), (table.n, m, m)))


def _solved(table):
    s = overlap_coefficients(table)
    return OverlapMatrix.from_pair(s.c1, s.c2)


def _estimators(table):
    """Every estimator that applies to ``table``, by name, as callables of
    the table (the row-swap test feeds them the swapped table)."""
    calls = {
        "naive": naive_posterior,
        "general_identity": lambda t: posterior_general(t, _identity(t)),
        "wavefunction_identity": lambda t: posterior_via_wavefunction(t, _identity(t)),
    }
    if (table.m, table.n) == (2, 2):
        for hbar in (None, 0.0, 0.5, 3.0):
            calls[f"posterior_2x2_hbar_{hbar}"] = lambda t, h=hbar: posterior_2x2(t, h)
        calls["general_solved"] = lambda t: posterior_general(t, _solved(t))
        calls["wavefunction_solved"] = lambda t: posterior_via_wavefunction(t, _solved(t))
    return calls


def _outcome(call, table):
    """The posterior's probabilities, or the class of the typed error."""
    try:
        pd = call(table)
    except QlrError as exc:
        return type(exc)
    probs = pd.probabilities
    assert all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probs), probs
    assert abs(math.fsum(probs) - 1.0) <= SUM_TOL, probs
    return np.array(probs)


@PROPERTY_SETTINGS
@given(tables())
def test_every_estimator_gives_a_posterior_or_a_typed_error(table):
    for i in range(table.m):
        _outcome(lambda t: bayes_posterior(t, i), table)
    for call in _estimators(table).values():
        _outcome(call, table)


@PROPERTY_SETTINGS
@given(tables(shapes=((2, 2), (2, 3), (3, 2), (3, 3))))
def test_row_swap_leaves_every_posterior_unchanged(table):
    swapped = _swapped(table)
    for i, j in ((0, 1), (1, 0)):
        a = _outcome(lambda t: bayes_posterior(t, i), table)
        b = _outcome(lambda t: bayes_posterior(t, j), swapped)
        np.testing.assert_array_equal(a, b)
    for name, call in _estimators(table).items():
        a, b = _outcome(call, table), _outcome(call, swapped)
        if isinstance(a, type) or isinstance(b, type):
            assert a is b, name
        else:
            np.testing.assert_allclose(a, b, rtol=0.0, atol=SWAP_TOL, err_msg=name)


# ------------------------------------------------- block-sum loop reference


def reference_block_sum_posterior(table, overlap):
    """The block-sum posterior one hypothesis at a time, in the kernel's
    summation order: each column's cells added in order, plus the
    off-diagonal terms ``s[i] * c[a][i][j] * s[j]`` added in row order."""
    blocks = []
    for a in range(table.n):
        column = [table.x[i][a] for i in range(table.m)]
        roots = [math.sqrt(v) for v in column]
        terms = [
            roots[i] * overlap.c[a][i][j] * roots[j]
            for i in range(table.m)
            for j in range(table.m)
            if i != j
        ]
        total = functools.reduce(operator.add, column, 0.0)
        blocks.append(total + functools.reduce(operator.add, terms, 0.0))
    for a, block in enumerate(blocks):
        if block <= 0.0:
            raise DegenerateRange(f"hypothesis {a} block sum {block!r} is not positive")
    return PosteriorDistribution.from_weights(
        [table.priors[a] * table.n * blocks[a] for a in range(table.n)], "quantum"
    )


@st.composite
def tables_with_overlaps(draw):
    """1-4 or 8-16 features (up to 240 off-diagonal terms in one block),
    2-4 hypotheses, cells anywhere in (0, 1] and symmetric unit-diagonal
    overlaps, some large enough to overflow a block."""
    features = (1, 2, 3, 4, 8, 9, 12, 16)
    table = draw(tables(shapes=tuple((m, n) for m in features for n in range(2, 5))))
    scale = draw(st.sampled_from((0.5, 1.0, 1e300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = scale * np.tril(rng.uniform(-1.0, 1.0, (table.n, table.m, table.m)), -1)
    c += c.transpose(0, 2, 1)
    c[:, np.arange(table.m), np.arange(table.m)] = 1.0
    return table, OverlapMatrix(c)


@PROPERTY_SETTINGS
@given(tables_with_overlaps())
def test_block_sums_equal_the_per_hypothesis_loop(case):
    table, overlap = case
    expected = _outcome(lambda t: reference_block_sum_posterior(t, overlap), table)
    got = _outcome(lambda t: posterior_general(t, overlap), table)
    if isinstance(expected, type):
        assert got is expected
    else:
        assert got.tolist() == expected.tolist()


# ----------------------------------------------- positive-definite rule

# Within this distance of the tolerance an eigenvalue solver and a
# factorisation round to either side, so the rule is asserted beyond it.
PD_MARGIN = 1e-13


def _eigenvalue_flags(overlap):
    """The positive-definite rule read off the eigenvalues themselves."""
    return tuple((np.linalg.eigvalsh(overlap.c) > PD_EIGENVALUE_TOL).all(axis=1).tolist())


@st.composite
def overlap_stacks(draw):
    """1-4 symmetric unit-diagonal blocks of 1-6 features: off-diagonals
    anywhere in [-1, 1], or the Gram matrix of unit vectors two of which
    nearly coincide, so the smallest eigenvalue lands on either side of the
    tolerance."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        c = np.tril(rng.uniform(-1.0, 1.0, (n, m, m)), -1)
        c += c.transpose(0, 2, 1)
    else:
        v = rng.standard_normal((n, m, m + 1))
        gap = 10.0 ** draw(st.floats(-9.0, -3.0))
        v[:, -1] = v[:, 0] + gap * rng.standard_normal((n, m + 1))
        v /= np.linalg.norm(v, axis=2, keepdims=True)
        c = v @ v.transpose(0, 2, 1)
        c = (c + c.transpose(0, 2, 1)) / 2.0
    c[:, np.arange(m), np.arange(m)] = 1.0
    return OverlapMatrix(c)


@PROPERTY_SETTINGS
@given(overlap_stacks())
def test_positive_definite_flags_follow_the_smallest_eigenvalue(overlap):
    flags = positive_definite(overlap)
    assert isinstance(flags, tuple) and all(type(flag) is bool for flag in flags)
    assert len(flags) == len(overlap.c)
    for a, flag in enumerate(flags):
        smallest = float(np.linalg.eigvalsh(overlap.c[a]).min())
        if abs(smallest - PD_EIGENVALUE_TOL) > PD_MARGIN:
            assert flag == (smallest > PD_EIGENVALUE_TOL), (a, smallest)


def test_positive_definite_flags_agree_across_the_tolerance():
    # Off-diagonals stepping two ulps at a time through 1 - PD_EIGENVALUE_TOL,
    # where the smallest eigenvalue 1 - c crosses the tolerance.
    disagreements, seen = [], set()
    for k in range(-2000, 2001):
        overlap = OverlapMatrix.from_pair(1 - 1e-12 + k * 2**-52, 0.5)
        flags = positive_definite(overlap)
        seen.add(flags)
        if flags != _eigenvalue_flags(overlap):
            disagreements.append(k)
    assert disagreements == []
    assert seen == {(True, True), (False, True)}


@pytest.mark.parametrize("big", [1e300, -1e300, sys.float_info.max])
def test_huge_overlaps_are_not_positive_definite(big):
    assert positive_definite(OverlapMatrix.from_pair(big, 0.5)) == (False, True)
    # Only features 0 and 2 overlap: at the float maximum the factor entry
    # overflows to inf, times the zero above it, so the last pivot is NaN.
    c = np.eye(3)[None].copy()
    c[0, 0, 2] = c[0, 2, 0] = big
    assert positive_definite(OverlapMatrix(c)) == (False,)


@st.composite
def wide_overlap_cases(draw):
    """A table of 2 or 3 features and 2-4 hypotheses, with overlaps whose
    off-diagonals are uniform on (-1.5, 1.5), so that many are indefinite."""
    m, n = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    table = draw(tables(shapes=((m, n),)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = np.tril(rng.uniform(-1.5, 1.5, (n, m, m)), -1)
    c += c.transpose(0, 2, 1)
    c[:, np.arange(m), np.arange(m)] = 1.0
    return table, OverlapMatrix(c)


@PROPERTY_SETTINGS
@given(wide_overlap_cases())
def test_state_vector_path_refuses_at_the_gate_or_matches_the_block_sums(case):
    # The gate is the path's one feasibility rule: a refusal names the first
    # False flag, and past an all-True gate the posterior matches the
    # block-sum posterior within the residual ceiling.
    table, overlap = case
    flags = positive_definite(overlap)
    try:
        wf = posterior_via_wavefunction(table, overlap)
    except NotPositiveDefinite as exc:
        assert not all(flags)
        assert exc.hypothesis == flags.index(False)
        return
    assert all(flags)
    general = posterior_general(table, overlap).probabilities
    assert max(abs(p - q) for p, q in zip(wf.probabilities, general)) <= RESIDUAL_TOL


@PROPERTY_SETTINGS
@given(st.integers(0, 2**64), st.integers(1, 8))
def test_cross_path_draw_gives_valid_tables_and_well_conditioned_overlaps(seed, count):
    samples = draw_cross_path_samples(count, seed)
    assert len(samples) == count
    for sample in samples:
        table, overlap = sample.table, sample.overlap
        assert 2 <= table.m <= 3 and 2 <= table.n <= 4
        assert 0 <= sample.feature < table.m
        assert all(0.0 < v <= 1.0 for row in table.x for v in row)
        assert all(p > 0.0 for p in table.priors)
        assert abs(math.fsum(table.priors) - 1.0) <= SUM_TOL
        assert np.array(overlap.c).shape == (table.n, table.m, table.m)
        # (G G^T + I) / 2 of unit rows: eigenvalues in [1/2, (m + 1)/2].
        eigenvalues = np.linalg.eigvalsh(overlap.c)
        assert eigenvalues.min() >= 0.5 - 1e-12
        assert eigenvalues.max() <= (table.m + 1) / 2 + 1e-12


# ------------------------------------------------ products loop reference


def reference_products(rows):
    """``_products`` with every factor taken apart by frexp: the running
    product is a mantissa in [0.5, 1) times a power of two, so each step
    multiplies two mantissas and stays normal however small the product."""
    mantissas, exponents = [], []
    for row in rows:
        mantissa, exponent = 1.0, 0
        for factor in row:
            f, e = math.frexp(factor)
            mantissa, k = math.frexp(mantissa * f)
            exponent += e + k
        mantissas.append(mantissa)
        exponents.append(exponent)
    top = min(0, max((e for mantissa, e in zip(mantissas, exponents) if mantissa), default=0))
    return [math.ldexp(mantissa, e - top) for mantissa, e in zip(mantissas, exponents)]


# Factors over the whole of [0, 1]: a mantissa times 2^-0..2^-1074 reaches
# every binade, subnormals included, so long rows underflow as plain products;
# the fixed values are the exact ends and the binades beside the rescale point.
FACTORS = st.one_of(
    st.sampled_from((0.0, 1.0, 5e-324, 2.0**-1022, 2.0**-511, 2.0**-512, 2.0**-600)),
    st.builds(
        lambda mantissa, exponent: math.ldexp(mantissa, -exponent),
        st.floats(0.5, 1.0, exclude_max=True),
        st.integers(0, 1074),
    ),
    st.floats(0.0, 1.0, allow_subnormal=True),
)


@PROPERTY_SETTINGS
@given(st.lists(st.lists(FACTORS, min_size=1, max_size=16), min_size=1, max_size=4))
def test_products_equal_the_frexp_per_factor_loop_bit_for_bit(rows):
    got = _products(rows)
    assert list(map(float.hex, got)) == list(map(float.hex, reference_products(rows)))


# ----------------------------------------------------------- count tables


@st.composite
def count_tables(draw):
    """1-4 features, 1-4 hypotheses, populations 1..10^6, counts 0..population,
    handed over as int64, int32 or uint32 arrays."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    populations = draw(st.lists(st.integers(1, MAX_POPULATION), min_size=n, max_size=n))
    counts = [[draw(st.integers(0, p)) for p in populations] for _ in range(m)]
    dtype = draw(st.sampled_from((np.int64, np.int32, np.uint32)))
    return CountTable(np.array(counts, dtype=dtype), np.array(populations, dtype=dtype))


def _assert_fields_hold_python_ints(ct, shares=True):
    """Counts and populations are tuples of Python ints, one row per
    feature, and, when ``shares``, the default priors, the shares, are
    numpy's division bit for bit."""
    assert type(ct.counts) is tuple
    assert all(type(row) is tuple and len(row) == ct.n for row in ct.counts)
    assert all(type(v) is int for row in ct.counts for v in row)
    assert type(ct.populations) is tuple
    assert all(type(v) is int for v in ct.populations)
    assert (ct.m, ct.n) == (len(ct.counts), len(ct.populations))
    if shares:
        populations = np.array(ct.populations)
        reference = (populations / populations.sum()).tolist()
        assert list(map(float.hex, ct.priors)) == list(map(float.hex, reference))


@PROPERTY_SETTINGS
@given(count_tables())
def test_count_fields_hold_the_validated_integers(ct):
    _assert_fields_hold_python_ints(ct)
    for a in range(ct.n):
        for i in range(ct.m):
            for j in range(ct.m):
                if i == j:
                    continue
                c_i, c_j, p = ct.counts[i][a], ct.counts[j][a], ct.populations[a]
                r = intersection_range(ct, a, i, j)
                assert (r.lo, r.hi) == (max(0, c_i + c_j - p), min(c_i, c_j))


@PROPERTY_SETTINGS
@given(count_tables())
def test_replace_rederives_the_count_fields(ct):
    _assert_fields_hold_python_ints(ct)  # the original's fields, before replacing
    complement = dataclasses.replace(ct, counts=np.subtract(ct.populations, ct.counts))
    _assert_fields_hold_python_ints(complement)
    assert complement.counts == tuple(
        tuple(p - c for c, p in zip(row, ct.populations)) for row in ct.counts
    )
    grown = dataclasses.replace(
        ct, populations=np.minimum(np.multiply(2, ct.populations), MAX_POPULATION)
    )
    # replace converts the new populations but keeps the stored priors.
    _assert_fields_hold_python_ints(grown, shares=False)
    assert grown.populations == tuple(min(2 * p, MAX_POPULATION) for p in ct.populations)
    assert grown.priors == ct.priors
    assert grown.counts == ct.counts
    # A new table from the same fields defaults to the new shares.
    _assert_fields_hold_python_ints(CountTable(grown.counts, grown.populations))


# ------------------------------------------------ numeric argument contract

# Values no numeric argument should turn into an untyped error: non-finite
# floats, ints beyond the float range, non-numbers, sequences, edge
# integers, a subnormal, bools, a fraction, numpy scalars and numeric
# strings, which numpy and float() would convert.
ARGUMENT_JUNK = [
    math.nan, math.inf, -math.inf, 10**400, -(10**400), "a", None, [], [1, 2],
    -1, 0, 1e-320, True, 1.5, np.int64(1), np.float64(1.0),
    "0.5", np.str_("0.5"), b"0.5", np.True_,
]
ARGUMENT_VALUES = st.one_of(
    st.sampled_from(ARGUMENT_JUNK),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=3),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
)
_TABLE = new_table([[0.6, 0.3], [0.5, 0.4]])
_COUNTS = CountTable([[3, 2], [4, 5]], [6, 7])

# Each public numeric argument slot, as a call with the value in that slot.
# The result-type constructors PosteriorDistribution and IntegerRange are
# left out: qlr builds them from values it has already checked, so a bad
# value there is a fault in qlr, reported with a plain ValueError, not an
# input to refuse.
ARGUMENT_SLOTS = {
    "new_table.cell": lambda v: new_table([[v, 0.5], [0.5, 0.5]]),
    "new_table.prior": lambda v: new_table([[0.5, 0.5]], [v, 0.5]),
    "CountTable.count": lambda v: CountTable([[v, 1], [1, 1]], [2, 2]),
    "CountTable.population": lambda v: CountTable([[1, 1], [1, 1]], [v, 2]),
    "CountTable.prior": lambda v: CountTable([[1, 1], [1, 1]], [2, 2], [v, 0.5]),
    "bayes_posterior.feature": lambda v: bayes_posterior(_TABLE, v),
    "posterior_independent.feature": lambda v: posterior_independent(_TABLE, v),
    "intersection_range.hypothesis": lambda v: intersection_range(_COUNTS, v, 0, 1),
    "intersection_range.i": lambda v: intersection_range(_COUNTS, 0, v, 1),
    "intersection_range.j": lambda v: intersection_range(_COUNTS, 0, 0, v),
    "enumerate_joint_counts.hypothesis": lambda v: enumerate_joint_counts(_COUNTS, v, 0, 1),
    "enumerate_joint_counts.i": lambda v: enumerate_joint_counts(_COUNTS, 0, v, 1),
    "enumerate_joint_counts.j": lambda v: enumerate_joint_counts(_COUNTS, 0, 0, v),
    "posterior_2x2.hbar": lambda v: posterior_2x2(_TABLE, v),
    "moderation_scale.hbar": moderation_scale,
    "hbar_moderated_coefficients.c1": lambda v: hbar_moderated_coefficients(v, 0.5, 1.0),
    "OverlapMatrix.from_pair.c1": lambda v: OverlapMatrix.from_pair(v, 0.5),
    "posterior_general.overlap": lambda v: posterior_general(_TABLE, [[[1.0, v], [v, 1.0]]] * 2),
    "verify_constraint_suite.samples": lambda v: verify_constraint_suite(v, 1),
    "verify_constraint_suite.seed": lambda v: verify_constraint_suite(2, v),
    "cross_path_suite.samples": lambda v: cross_path_suite(v, 1),
    "cross_path_suite.seed": lambda v: cross_path_suite(2, v),
}

# A huge but valid sample count is a request for work, not junk:
# verify_constraint_suite(10**400, 1) simply never ends.  Counts above this
# cap are left out of the property.
SUITE_SAMPLE_CAP = 8


def _with_junk_examples(test):
    """Run ``test`` on every value of ``ARGUMENT_JUNK`` besides its draws."""
    for value in ARGUMENT_JUNK:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("slot", sorted(ARGUMENT_SLOTS))
@settings(PROPERTY_SETTINGS, max_examples=40)
@_with_junk_examples
@given(value=ARGUMENT_VALUES)
def test_every_numeric_argument_gives_a_result_or_a_typed_error(slot, value):
    if slot.endswith(".samples") and isinstance(value, (int, np.integer)):
        assume(value <= SUITE_SAMPLE_CAP)
    # No slot takes a bool, a string, bytes or None for a number, save the
    # documented default hbar=None of the closed form.
    refused = value is None or isinstance(value, (bool, np.bool_, str, bytes))
    refused &= not (slot == "posterior_2x2.hbar" and value is None)
    try:
        ARGUMENT_SLOTS[slot](value)
    except QlrError:
        return
    assert not refused, f"{slot} accepted {value!r}"


# ------------------------------------------ naive Bayes as a special case

# The closed form and naive Bayes agree for every prior on the surface
# x1*y1*(1 - x2 - y2) = x2*y2*(1 - x1 - y1) (see the quantum module), up to
# the roundings of the two formulas and of the cell solved onto the surface.
NAIVE_SURFACE_TOL = 4 * math.ulp(1.0)
SURFACE_CELLS = st.floats(min_value=2.0**-10, max_value=1.0)


def on_naive_surface(rows) -> bool:
    """Whether rows ``(x1, x2); (y1, y2)`` satisfy the surface equation."""
    (x1, x2), (y1, y2) = rows
    return x1 * y1 * (1 - x2 - y2) == x2 * y2 * (1 - x1 - y1)


@PROPERTY_SETTINGS
@given(SURFACE_CELLS, SURFACE_CELLS, SURFACE_CELLS, st.floats(0.0, 1.0, exclude_min=True))
def test_closed_form_is_naive_bayes_on_the_surface(x1, y1, x2, w):
    # y2 solves the surface equation for the other three cells.
    scale = x2 * (1.0 - x1 - y1) + x1 * y1
    assume(scale > 0.0)
    y2 = x1 * y1 * (1.0 - x2) / scale
    assume(0.0 < y2 <= 1.0)
    table = new_table([[x1, x2], [y1, y2]], [w, 1.0 - w])
    closed = posterior_2x2(table).probabilities
    naive = naive_posterior(table).probabilities
    np.testing.assert_allclose(closed, naive, rtol=0.0, atol=NAIVE_SURFACE_TOL)


def known_value_rows():
    """Each known-value family of the constraint suite as rows of ``1``,
    ``m`` and ``n``, read from its description in CONSTRAINT_CHECKS."""
    families = {}
    for name, description, _ in CONSTRAINT_CHECKS:
        if name.startswith("known_"):
            found = re.match(r"rows \((\w),(\w)\);\((\w),(\w)\) give", description)
            assert found, description
            families[name] = found.groups()
    return families


def test_every_known_value_family_is_read():
    assert sorted(known_value_rows()) == [
        "known_antisymmetric", "known_bottom_ones", "known_constant",
        "known_equal_columns", "known_top_ones",
    ]


@PROPERTY_SETTINGS
@given(
    st.fractions(0, 1).filter(lambda f: f > 0),
    st.fractions(0, 1).filter(lambda f: f > 0),
)
def test_known_value_families_lie_on_the_surface_exactly(m, n):
    values = {"1": Fraction(1), "m": m, "n": n}
    for name, (a, b, c, d) in known_value_rows().items():
        rows = [[values[a], values[b]], [values[c], values[d]]]
        assert on_naive_surface(rows), (name, rows)


# --------------------------------------------------------------- CLI fuzz

INPUTS = {
    name: (REPO_ROOT / "docs" / name).read_bytes() for name in ("streets.csv", "streets.json")
}


@st.composite
def mutated_inputs(draw):
    """One of the two example files with a few bytes replaced, inserted or
    deleted, and the flags of one command line."""
    name = draw(st.sampled_from(sorted(INPUTS)))
    data = bytearray(INPUTS[name])
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        byte = draw(st.sampled_from(b"0123456789.-+eE,\n\"[]{}: \x00\xff") | st.integers(0, 255))
        if edit == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if edit == "replace":
                data[at] = byte
            else:
                del data[at]
    command = draw(st.sampled_from(("analyze", "ranges")))
    flags = []
    if command == "analyze":
        method = draw(st.sampled_from((None, "all", "quantum", "wavefunction", "naive")))
        if method is not None:
            flags += ["--method", method]
        hbar = draw(st.none() | st.sampled_from(("0", "0.5", "-1", "nan", "inf")))
        if hbar is not None:
            flags.append(f"--hbar={hbar}")
    return name, bytes(data), [command, *flags, "--format", draw(st.sampled_from(("json", "text")))]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@PROPERTY_SETTINGS
@given(case=mutated_inputs())
def test_cli_exits_0_2_or_3_on_mutated_files(fuzz_dir, case):
    name, data, argv = case
    path = fuzz_dir / name
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    # In process, an escaping exception (a traceback) fails the test itself.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@st.composite
def two_by_two_files(draw):
    """The rows of a 2x2 probability file and an optional ``--hbar`` value."""
    rows = [[draw(CELLS), draw(CELLS)] for _ in range(2)]
    return rows, draw(st.none() | st.sampled_from(("0.1", "1", "5")))


@PROPERTY_SETTINGS
@given(case=two_by_two_files())
@example(case=([[0.7199999927999999, 0.6], [0.7199999927999999, 0.6]], None))
def test_cli_reports_wavefunction_exactly_when_the_gram_flags_are_all_true(fuzz_dir, case):
    # The example's solved pair is c1 = 1 - 1e-8: positive definite, but
    # ill-conditioned.  No diagnostics means no overlap was solved.
    rows, hbar = case
    path = fuzz_dir / "pair.csv"
    lines = [f"d{i},{a!r},{b!r}\n" for i, (a, b) in enumerate(rows, 1)]
    path.write_text("feature,A,B\n" + "".join(lines), encoding="utf-8")
    argv = ["analyze", str(path), "--format", "json"]
    if hbar is not None:
        argv += ["--hbar", hbar]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    report = json.loads(out.getvalue())
    flags = report.get("diagnostics", {}).get("gram_positive_definite", [False])
    assert all(flags) == ("wavefunction" in report["methods"])
