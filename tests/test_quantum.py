"""Overlap coefficients, the closed-form 2x2 posterior, the general
block-sum posterior, moderation, and the randomized constraint suite."""

import dataclasses
import math

import numpy as np
import pytest

import qlr.quantum
from qlr import (
    BadShape,
    CountTable,
    DegenerateRange,
    InvalidHbar,
    InvalidOverlap,
    OverlapMatrix,
    OverlapUnderflow,
    PosteriorDistribution,
    Unsupported,
    from_counts,
    hbar_moderated_coefficients,
    new_table,
    overlap_coefficients,
    positive_definite,
    posterior_2x2,
    posterior_general,
    verify_constraint_suite,
)

STREET = from_counts(CountTable(np.array([[8, 7], [6, 5]]), np.array([10, 10])))

# Computed from the coefficient formula by an independent script before this
# module existed; the worked-example posterior and normalization depend on
# them.
STREET_C1 = 0.9897433186107871
STREET_C2 = 0.6162583107395433
STREET_P1 = 0.5895909839179435


def identity_overlap(n: int, m: int) -> OverlapMatrix:
    """All m features orthogonal (independent) under each of n hypotheses."""
    return OverlapMatrix(np.broadcast_to(np.eye(m), (n, m, m)))


class TestOverlapMatrix:
    def test_identity(self):
        overlap = identity_overlap(3, 4)
        assert np.array(overlap.c).shape == (3, 4, 4)
        np.testing.assert_array_equal(overlap.c[1], np.eye(4))

    def test_from_pair(self):
        overlap = OverlapMatrix.from_pair(0.3, -0.2)
        assert overlap.c[0][0][1] == 0.3
        assert overlap.c[1][1][0] == -0.2

    @pytest.mark.parametrize(
        "c1, c2", [(-0.0, 0.3), (5e-324, -5e-324), (1.5, -1.5), (1e308, 0.0), (0.2, np.float64(0.7))]
    )
    def test_from_pair_is_the_generic_overlap(self, c1, c2):
        overlap = OverlapMatrix.from_pair(c1, c2)
        generic = OverlapMatrix([[[1.0, c1], [c1, 1.0]], [[1.0, c2], [c2, 1.0]]])
        assert overlap == generic and hash(overlap) == hash(generic)
        hexes = [[list(map(float.hex, row)) for row in block] for block in overlap.c]
        assert hexes == [[list(map(float.hex, row)) for row in block] for block in generic.c]
        assert all(type(v) is float for block in overlap.c for row in block for v in row)

    @pytest.mark.parametrize("bad", [True, "0.3", None, math.nan, math.inf, -math.inf, 10**400])
    @pytest.mark.parametrize("first", [True, False])
    def test_from_pair_refuses_as_the_generic_overlap_does(self, bad, first):
        c1, c2 = (bad, 0.5) if first else (0.5, bad)
        with pytest.raises(InvalidOverlap) as generic:
            OverlapMatrix([[[1.0, c1], [c1, 1.0]], [[1.0, c2], [c2, 1.0]]])
        with pytest.raises(InvalidOverlap) as caught:
            OverlapMatrix.from_pair(c1, c2)
        assert type(caught.value) is type(generic.value)
        assert str(caught.value) == str(generic.value)

    def test_read_only(self):
        overlap = identity_overlap(2, 2)
        assert overlap.c == (((1.0, 0.0), (0.0, 1.0)),) * 2
        assert all(type(v) is float for block in overlap.c for row in block for v in row)
        with pytest.raises(dataclasses.FrozenInstanceError):
            overlap.c = ()

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidOverlap):
            OverlapMatrix(np.zeros((2, 2)))
        with pytest.raises(InvalidOverlap):
            OverlapMatrix(np.zeros((2, 2, 3)))

    def test_rejects_bad_diagonal(self):
        c = np.stack([np.eye(2), np.eye(2)])
        c[0, 0, 0] = 0.9
        with pytest.raises(InvalidOverlap):
            OverlapMatrix(c)

    def test_rejects_asymmetry(self):
        c = np.stack([np.eye(2), np.eye(2)])
        c[0, 0, 1] = 0.5
        with pytest.raises(InvalidOverlap):
            OverlapMatrix(c)

    def test_rejects_non_finite(self):
        c = np.stack([np.eye(2)])
        c[0, 0, 1] = c[0, 1, 0] = float("inf")
        with pytest.raises(InvalidOverlap):
            OverlapMatrix(c)

    def test_magnitude_above_one_is_allowed(self):
        OverlapMatrix.from_pair(1.2, 0.4)

    def test_overlaps_compare_by_value(self):
        overlap = OverlapMatrix.from_pair(0.2, 0.3)
        twin = OverlapMatrix(np.array([[[1.0, 0.2], [0.2, 1.0]], [[1.0, 0.3], [0.3, 1.0]]]))
        assert overlap == twin and hash(overlap) == hash(twin)
        assert overlap != OverlapMatrix.from_pair(0.2, 0.4)
        assert len({overlap, twin}) == 1
        # replace builds a new overlap, validated again.
        assert dataclasses.replace(overlap, c=twin.c) == overlap
        with pytest.raises(InvalidOverlap, match="symmetric"):
            dataclasses.replace(overlap, c=[[[1.0, 0.2], [0.5, 1.0]]])


class TestOverlapCoefficients:
    def test_street_values(self):
        solution = overlap_coefficients(STREET)
        np.testing.assert_allclose(solution.c1, STREET_C1, atol=1e-15)
        np.testing.assert_allclose(solution.c2, STREET_C2, atol=1e-15)

    def test_diagnostics_within_unit_interval(self):
        solution = overlap_coefficients(STREET)
        assert solution.within_unit_interval
        assert positive_definite(OverlapMatrix.from_pair(solution.c1, solution.c2)) == (True, True)
        assert (solution.c1, solution.c2) == (STREET_C1, STREET_C2)

    def test_diagnostics_flag_out_of_interval(self):
        table = new_table([[0.9, 0.1], [0.9, 0.2]])
        solution = overlap_coefficients(table)
        assert not solution.within_unit_interval
        assert positive_definite(OverlapMatrix.from_pair(solution.c1, solution.c2))[0] is False

    def test_matches_formula_on_random_tables(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            x = 1.0 - rng.random((2, 2))
            solution = overlap_coefficients(new_table(x))
            c1 = math.sqrt(x[0, 0] * x[1, 0]) / (2 * x[0, 1] * x[1, 1])
            c2 = math.sqrt(x[0, 1] * x[1, 1]) / (2 * x[0, 0] * x[1, 0])
            assert solution.c1 == c1
            assert solution.c2 == c2

    def test_rejects_non_2x2(self):
        with pytest.raises(Unsupported):
            overlap_coefficients(new_table([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]))
        with pytest.raises(Unsupported):
            overlap_coefficients(new_table([[0.5, 0.5]]))

    @pytest.mark.parametrize(
        "call, overflow",
        [
            (overlap_coefficients, OverlapUnderflow),
            (posterior_2x2, DegenerateRange),
            (lambda table: posterior_2x2(table, hbar=0.5), DegenerateRange),
        ],
        ids=["coefficients", "posterior", "posterior_hbar"],
    )
    def test_tiny_cells_raise_unsupported(self, call, overflow):
        # x1*y1 = 1e-316 is subnormal but nonzero, so the second coefficient
        # and block overflow to inf; x2*y2 = 1e-400 underflows to zero.  An
        # infinite block leaves the posterior's weights no finite total.
        for cells, expected in (
            ([[1e-158, 0.5], [1e-158, 0.5]], overflow),
            ([[0.5, 1e-200], [0.5, 1e-200]], OverlapUnderflow),
        ):
            with pytest.raises(Unsupported) as info:
                call(new_table(cells))
            # The table is valid, so the command line skips these methods.
            assert type(info.value) is expected
            assert info.value.exit_code == 3

    def test_weighted_block_overflow_raises_degenerate_range(self):
        # The first block, about 1.35e308, is finite; times 2 * 0.7 it is
        # not, so normalizing would give a NaN posterior.
        table = new_table([[0.75, 0.25], [0.5, 1.11253693e-308]], [0.7, 0.3])
        with pytest.raises(DegenerateRange) as info:
            posterior_2x2(table)
        assert info.value.exit_code == 3

    def test_overlap_matrix_round_trip(self):
        solution = overlap_coefficients(STREET)
        overlap = OverlapMatrix.from_pair(solution.c1, solution.c2)
        assert overlap.c[0][0][1] == solution.c1
        assert overlap.c[1][0][1] == solution.c2


class TestPosterior2x2:
    def test_street_value(self):
        pd = posterior_2x2(STREET)
        np.testing.assert_allclose(pd.probabilities[0], STREET_P1, atol=1e-12)
        assert pd.method == "quantum"
        assert pd.argmax_index == 0

    def test_zero_hbar_on_tiny_cells_gives_column_sums(self):
        # x1*y1 is subnormal, so the overlap ratio overflows; at hbar = 0 the
        # posterior is the prior-weighted column sums and needs no ratio.
        table = new_table([[1e-158, 0.5], [1e-158, 0.5]], [0.3, 0.7])
        w1, w2 = 2.0 * 0.3, 2.0 * 0.7
        block1, block2 = 1e-158 + 1e-158, 0.5 + 0.5
        total = w1 * block1 + w2 * block2
        pd = posterior_2x2(table, 0.0)
        assert pd.probabilities == (w1 * block1 / total, w2 * block2 / total)

    def test_known_value_families(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            m = 1.0 - rng.random()
            n = 1.0 - rng.random()
            expected = m / (m + n)
            for rows, want in (
                ([[1.0, 1.0], [m, n]], expected),
                ([[m, n], [1.0, 1.0]], expected),
                ([[n, m], [m, n]], 0.5),
                ([[n, n], [m, m]], 0.5),
                ([[m, m], [m, m]], 0.5),
            ):
                p1 = posterior_2x2(new_table(rows)).probabilities[0]
                assert abs(p1 - want) <= 1e-10

    def test_prior_weighting(self):
        uniform = posterior_2x2(new_table(STREET.x))
        weighted = posterior_2x2(new_table(STREET.x, [0.75, 0.25]))
        b1 = uniform.probabilities[0] / uniform.probabilities[1]
        expected = 0.75 * b1 / (0.75 * b1 + 0.25)
        np.testing.assert_allclose(weighted.probabilities[0], expected, rtol=1e-12)

    def test_column_swap_is_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            x = 1.0 - rng.random((2, 2))
            base = posterior_2x2(new_table(x))
            swapped = posterior_2x2(new_table(x[:, ::-1]))
            assert swapped.probabilities == base.probabilities[::-1]

    def test_row_swap_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            x = 1.0 - rng.random((2, 2))
            base = posterior_2x2(new_table(x))
            swapped = posterior_2x2(new_table(x[::-1, :]))
            np.testing.assert_allclose(
                swapped.probabilities, base.probabilities, atol=1e-12
            )

    def test_rejects_non_2x2(self):
        with pytest.raises(Unsupported):
            posterior_2x2(new_table([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]))


@pytest.mark.parametrize(
    "call, result",
    [(overlap_coefficients, "coefficients exist"), (posterior_2x2, "posterior exists")],
)
@pytest.mark.parametrize("x", [[[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]], [[0.5, 0.5]], [[0.5, 0.5]] * 3])
def test_closed_form_refuses_other_shapes_with_its_own_message(call, result, x):
    table = new_table(x)
    with pytest.raises(Unsupported) as caught:
        call(table)
    assert str(caught.value) == (
        f"closed-form {result} only for 2x2 tables, got {table.m}x{table.n}"
    )


class TestHbarModeration:
    def test_zero_switches_overlap_off(self):
        assert hbar_moderated_coefficients(0.7, 0.3, 0.0) == (0.0, 0.0)

    def test_log_two_halves_the_coefficients(self):
        c1m, c2m = hbar_moderated_coefficients(0.7, 0.3, math.log(2.0))
        np.testing.assert_allclose((c1m, c2m), (0.35, 0.15), rtol=1e-15)

    def test_large_hbar_is_identity(self):
        c1m, c2m = hbar_moderated_coefficients(0.7, 0.3, 40.0)
        np.testing.assert_allclose((c1m, c2m), (0.7, 0.3), atol=1e-12)

    def test_rejects_negative_or_non_finite(self):
        with pytest.raises(InvalidHbar):
            hbar_moderated_coefficients(0.7, 0.3, -0.1)
        with pytest.raises(InvalidHbar):
            hbar_moderated_coefficients(0.7, 0.3, float("nan"))
        with pytest.raises(InvalidHbar):
            hbar_moderated_coefficients(0.7, 0.3, float("inf"))

    def test_posterior_at_zero_equals_column_sum_reduction(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            x = 1.0 - rng.random((2, 2))
            table = new_table(x)
            moderated = posterior_2x2(table, hbar=0.0)
            cols = x.sum(axis=0)
            expected = cols / cols.sum()
            np.testing.assert_allclose(
                moderated.probabilities, expected, atol=1e-14
            )

    def test_moderated_closed_form_matches_block_sum_kernel(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            table = new_table(1.0 - rng.random((2, 2)), [0.3, 0.7])
            solution = overlap_coefficients(table)
            for hbar in (0.1, 0.5, 1.5, 5.0):
                moderated = hbar_moderated_coefficients(solution.c1, solution.c2, hbar)
                general = posterior_general(table, OverlapMatrix.from_pair(*moderated))
                np.testing.assert_allclose(
                    posterior_2x2(table, hbar=hbar).probabilities,
                    general.probabilities,
                    atol=1e-12,
                )

    def test_posterior_at_large_hbar_matches_closed_form(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            table = new_table(1.0 - rng.random((2, 2)))
            closed = posterior_2x2(table)
            moderated = posterior_2x2(table, hbar=60.0)
            np.testing.assert_allclose(
                moderated.probabilities, closed.probabilities, atol=1e-12
            )


class TestPosteriorGeneral:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_block_is_a_typed_error(self):
        # The solved c1 is about 1.6e308, so the first block overflows to
        # inf, and inf weights have no posterior.
        table = new_table([[1.0, 1.0], [0.5, 2.2250738585e-309]])
        s = overlap_coefficients(table)
        with pytest.raises(DegenerateRange):
            posterior_general(table, OverlapMatrix.from_pair(s.c1, s.c2))

    def test_three_feature_example(self):
        # Frozen from an explicit double-loop script independent of this
        # module: x rows (0.8, 0.5), (0.5, 0.5), (0.5, 0.5); every
        # off-diagonal overlap 0.1.
        x = [[0.8, 0.5], [0.5, 0.5], [0.5, 0.5]]
        c = np.stack([np.full((3, 3), 0.1), np.full((3, 3), 0.1)])
        c[:, np.arange(3), np.arange(3)] = 1.0
        pd = posterior_general(new_table(x), OverlapMatrix(c))
        np.testing.assert_allclose(pd.probabilities[0], 0.5446475842554122, atol=1e-12)

    def test_identity_overlap_reduces_to_column_sums(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(2, 5))
            x = 1.0 - rng.random((m, n))
            raw = 1.0 - rng.random(n)
            table = new_table(x, raw / raw.sum())
            pd = posterior_general(table, identity_overlap(n, m))
            expected = table.priors * x.sum(axis=0)
            expected = expected / expected.sum()
            np.testing.assert_allclose(pd.probabilities, expected, atol=1e-13)

    def test_matches_closed_form_on_2x2(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            table = new_table(1.0 - rng.random((2, 2)))
            solution = overlap_coefficients(table)
            general = posterior_general(
                table, OverlapMatrix.from_pair(solution.c1, solution.c2)
            )
            closed = posterior_2x2(table)
            np.testing.assert_allclose(
                general.probabilities, closed.probabilities, atol=1e-12
            )

    def test_accepts_raw_arrays(self):
        table = new_table([[0.5, 0.5], [0.5, 0.5]])
        pd = posterior_general(table, np.stack([np.eye(2), np.eye(2)]))
        np.testing.assert_allclose(pd.probabilities, (0.5, 0.5), atol=1e-15)

    def test_shape_mismatch(self):
        table = new_table([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(BadShape):
            posterior_general(table, identity_overlap(2, 3))
        with pytest.raises(BadShape):
            posterior_general(table, identity_overlap(3, 2))

    def test_non_positive_block_sum(self):
        table = new_table([[0.5, 0.5], [0.5, 0.5]])
        c = np.stack([np.eye(2), np.eye(2)])
        c[0, 0, 1] = c[0, 1, 0] = -1.0
        with pytest.raises(DegenerateRange):
            posterior_general(table, OverlapMatrix(c))


class TestConstraintSuite:
    def test_all_checks_pass(self):
        report = verify_constraint_suite(300, 42)
        assert report.passed
        assert max(c.max_deviation for c in report.checks) < 1e-10
        assert {c.name for c in report.checks} == {
            "known_top_ones",
            "known_bottom_ones",
            "known_antisymmetric",
            "known_equal_columns",
            "known_constant",
            "row_swap",
            "column_swap",
            "complementarity",
        }
        for check in report.checks:
            assert check.passes == check.samples == 300

    def test_deterministic_across_runs(self):
        a = verify_constraint_suite(100, 7)
        b = verify_constraint_suite(100, 7)
        assert a.to_dict() == b.to_dict()

    def test_to_dict_shape(self):
        report = verify_constraint_suite(5, 1)
        data = report.to_dict()
        assert data["sample_count"] == 5
        assert data["seed"] == 1
        assert data["passed"] is True
        assert all(
            set(entry)
            == {
                "name",
                "description",
                "samples",
                "passes",
                "max_deviation",
                "tolerance",
                "passed",
            }
            for entry in data["checks"]
        )

    def test_rejects_non_positive_sample_count(self):
        with pytest.raises(ValueError):
            verify_constraint_suite(0, 42)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_a_seed_that_is_not_a_nonnegative_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            verify_constraint_suite(5, seed)

    def test_detects_a_corrupted_posterior(self, monkeypatch):
        def corrupted(table, hbar=None):
            return PosteriorDistribution((0.25, 0.75), "quantum", 1)

        monkeypatch.setattr(qlr.quantum, "posterior_2x2", corrupted)
        report = qlr.checks.verify_constraint_suite(20, 42)
        assert not report.passed
