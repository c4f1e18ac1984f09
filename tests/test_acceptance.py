"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line naming its criterion; run

    pytest tests/test_acceptance.py -v -s

to see the lines alongside the pytest verdicts.  These tests pin the
package-level guarantees: the worked street/garage example, the feasible
joint-count ranges, the randomized constraint and cross-path suites, the
symmetry and complementarity properties of every estimator, equivalence
with the brute-force enumeration oracle, the non-homogeneity witness that
separates the overlap posterior from the naive product, and the moderation
limits."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from qlr import (
    CountTable,
    DegenerateRange,
    NotPositiveDefinite,
    OverlapMatrix,
    bayes_posterior,
    cross_path_suite,
    enumerate_joint_counts,
    from_counts,
    intersection_range,
    mean_frequency_posterior,
    mean_range_posterior,
    naive_posterior,
    new_table,
    oracle_mean_estimators,
    overlap_coefficients,
    posterior_2x2,
    posterior_general,
    posterior_via_wavefunction,
    verify_constraint_suite,
)

STREET_COUNTS = CountTable(np.array([[8, 7], [6, 5]]), np.array([10, 10]))


@contextmanager
def _criterion(number: int, description: str):
    """Print one summary line per criterion, keeping the pytest failure."""
    notes: dict[str, str] = {}
    try:
        yield notes
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    suffix = f" [{notes['note']}]" if "note" in notes else ""
    print(f"PASS criterion {number}: {description}{suffix}")


def test_criterion_1_worked_example_values():
    with _criterion(
        1, "street/garage table reproduces all five estimator values within 5e-4"
    ) as notes:
        started = time.perf_counter()
        table = from_counts(STREET_COUNTS)
        bayes = bayes_posterior(table, 0)
        naive = naive_posterior(table)
        mean_freq = mean_frequency_posterior(STREET_COUNTS)
        mean_range = mean_range_posterior(STREET_COUNTS)
        quantum = posterior_2x2(table)
        elapsed_ms = (time.perf_counter() - started) * 1000.0

        assert abs(bayes.probabilities[0] - 0.5333) < 5e-4
        assert abs(bayes.probabilities[1] - 0.4667) < 5e-4
        assert abs(naive.probabilities[0] - 0.578) < 5e-4
        assert abs(mean_freq.probabilities[0] - 0.588) < 5e-4
        assert abs(mean_range.probabilities[0] - 0.597) < 5e-4
        assert abs(quantum.probabilities[0] - 0.5896) < 5e-4
        assert elapsed_ms < 1000.0
        notes["note"] = f"runtime {elapsed_ms:.2f} ms"


def test_criterion_2_joint_count_ranges():
    with _criterion(
        2, "feasible joint-count ranges are {4,5,6} and {2,3,4,5} exactly"
    ):
        first = intersection_range(STREET_COUNTS, 0, 0, 1)
        second = intersection_range(STREET_COUNTS, 1, 0, 1)
        assert (first.lo, first.hi) == (4, 6)
        assert (second.lo, second.hi) == (2, 5)
        assert enumerate_joint_counts(STREET_COUNTS, 0, 0, 1) == [4, 5, 6]
        assert enumerate_joint_counts(STREET_COUNTS, 1, 0, 1) == [2, 3, 4, 5]


def test_criterion_3_known_value_constraint_suite():
    with _criterion(
        3,
        "10^4 randomized known-value tables give the required posteriors "
        "within 1e-10 in under 5 s",
    ) as notes:
        started = time.perf_counter()
        report = verify_constraint_suite(10_000, 42)
        elapsed = time.perf_counter() - started
        known = [c for c in report.checks if c.name.startswith("known_")]
        assert len(known) == 5
        for check in known:
            assert check.tolerance == 1e-10
            assert check.passed, check.name
            assert check.max_deviation < 1e-10
        assert elapsed < 5.0
        notes["note"] = f"max deviation {report.max_deviation:.3e}, {elapsed:.2f} s"


def test_criterion_4_symmetry_suite():
    with _criterion(
        4,
        "10^4 random 2x2 tables: row-swap within 1e-12, column-swap exact, "
        "complementarity within 1e-12 for every method",
    ) as notes:
        rng = np.random.default_rng(42)
        worst_row = 0.0
        worst_comp = 0.0
        wavefunction_valid = 0
        mean_freq_valid = 0
        mean_range_valid = 0
        oracle_valid = 0

        def comp(pd) -> None:
            nonlocal worst_comp
            worst_comp = max(worst_comp, abs(sum(pd.probabilities) - 1.0))

        for _ in range(10_000):
            x = 1.0 - rng.random((2, 2))
            table = new_table(x)
            base = posterior_2x2(table)

            swapped_rows = posterior_2x2(new_table(x[::-1, :]))
            worst_row = max(
                worst_row,
                max(
                    abs(p - q)
                    for p, q in zip(base.probabilities, swapped_rows.probabilities)
                ),
            )
            swapped_cols = posterior_2x2(new_table(x[:, ::-1]))
            assert swapped_cols.probabilities == base.probabilities[::-1]

            comp(bayes_posterior(table, 0))
            comp(naive_posterior(table))
            comp(base)
            s = overlap_coefficients(table)
            try:
                wf = posterior_via_wavefunction(table, OverlapMatrix.from_pair(s.c1, s.c2))
            except NotPositiveDefinite:
                pass
            else:
                wavefunction_valid += 1
                comp(wf)

            pops = rng.integers(1, 21, size=2)
            cells = np.stack([rng.integers(0, p + 1, size=2) for p in pops], axis=1)
            counts = CountTable(cells, pops)
            try:
                mf = mean_frequency_posterior(counts)
            except DegenerateRange:
                pass
            else:
                mean_freq_valid += 1
                comp(mf)
            try:
                mr = mean_range_posterior(counts)
            except DegenerateRange:
                pass
            else:
                mean_range_valid += 1
                comp(mr)
            try:
                estimates = oracle_mean_estimators(counts)
            except DegenerateRange:
                pass
            else:
                oracle_valid += 1
                comp(estimates.mean_frequency)
                comp(estimates.mean_range)

        assert worst_row < 1e-12
        assert worst_comp < 1e-12
        # The state-vector path needs both overlap coefficients inside the
        # unit interval, which uniform random tables satisfy less than a
        # tenth of the time; the count estimators skip only degenerate
        # all-zero draws.
        assert wavefunction_valid > 500
        assert mean_freq_valid > 5000
        assert mean_range_valid > 5000
        assert oracle_valid > 5000
        notes["note"] = (
            f"row dev {worst_row:.3e}, comp dev {worst_comp:.3e}, "
            f"wavefunction on {wavefunction_valid} tables"
        )


def test_criterion_5_cross_path_suite():
    with _criterion(
        5,
        "10^3 random tables with random positive-definite overlaps: "
        "state-vector and block-sum posteriors agree within 1e-10, "
        "orthonormality and back-substitution residuals below 1e-10",
    ) as notes:
        report = cross_path_suite(1000, 42)
        assert report.passed
        by_name = {check.name: check for check in report.checks}
        for name in ("paths_agree", "orthonormality", "back_substitution"):
            assert by_name[name].max_deviation < 1e-10
        notes["note"] = f"max deviation {report.max_deviation:.3e}"


def test_criterion_6_oracle_equivalence_sweep():
    with _criterion(
        6,
        "count-table sweep (exhaustive populations <= 12, random to 30): "
        "closed-form mean estimators match the enumeration oracle within "
        "1e-14 and ranges match exactly, in under 60 s",
    ) as notes:
        started = time.perf_counter()
        checked = 0
        worst = 0.0

        def check(counts: CountTable) -> None:
            nonlocal checked, worst
            checked += 1
            for a in range(2):
                r = intersection_range(counts, a, 0, 1)
                assert enumerate_joint_counts(counts, a, 0, 1) == list(
                    range(r.lo, r.hi + 1)
                )
            closed_raised = False
            closed_mf = closed_mr = None
            try:
                closed_mf = mean_frequency_posterior(counts)
                closed_mr = mean_range_posterior(counts)
            except DegenerateRange:
                closed_raised = True
            try:
                estimates = oracle_mean_estimators(counts)
                oracle_raised = False
            except DegenerateRange:
                oracle_raised = True
            assert closed_raised == oracle_raised
            if closed_raised:
                return
            for closed, oracle in (
                (closed_mf, estimates.mean_frequency),
                (closed_mr, estimates.mean_range),
            ):
                deviation = max(
                    abs(p - q)
                    for p, q in zip(closed.probabilities, oracle.probabilities)
                )
                worst = max(worst, deviation)
                assert deviation < 1e-14

        for p in range(1, 13):
            pops = np.array([p, p])
            for a1 in range(p + 1):
                for a2 in range(p + 1):
                    for b1 in range(p + 1):
                        for b2 in range(p + 1):
                            check(CountTable(np.array([[a1, b1], [a2, b2]]), pops))
        exhaustive = checked

        rng = np.random.default_rng(42)
        for _ in range(2000):
            pops = rng.integers(1, 31, size=2)
            cells = np.stack([rng.integers(0, p + 1, size=2) for p in pops], axis=1)
            check(CountTable(cells, pops))

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        notes["note"] = (
            f"{checked} tables ({exhaustive} exhaustive), "
            f"max deviation {worst:.3e}, {elapsed:.1f} s"
        )


def test_criterion_7_non_homogeneity_witness():
    with _criterion(
        7,
        "scaling a table changes the overlap posterior (0.6667 vs 0.7059) "
        "while the naive product stays at 0.6667",
    ):
        full = new_table([[1.0, 1.0], [1.0, 0.5]])
        halved = new_table([[0.5, 0.5], [0.5, 0.25]])
        assert abs(posterior_2x2(full).probabilities[0] - 0.6667) < 1e-4
        assert abs(posterior_2x2(halved).probabilities[0] - 0.7059) < 1e-4
        assert abs(naive_posterior(full).probabilities[0] - 0.6667) < 1e-4
        assert abs(naive_posterior(halved).probabilities[0] - 0.6667) < 1e-4


def test_criterion_8_moderation_limits():
    with _criterion(
        8,
        "hbar=0 reproduces the zero-overlap reduction within 1e-12 and "
        "hbar >= 40 reproduces the unmoderated posterior within 1e-10",
    ) as notes:
        rng = np.random.default_rng(42)
        tables = [from_counts(STREET_COUNTS)]
        tables.extend(new_table(1.0 - rng.random((2, 2))) for _ in range(200))
        worst_zero = 0.0
        worst_large = 0.0
        for table in tables:
            at_zero = posterior_2x2(table, hbar=0.0)
            cols = table.priors * np.asarray(table.x).sum(axis=0)
            reduction = cols / cols.sum()
            via_identity = posterior_general(table, OverlapMatrix.identity(2, 2))
            worst_zero = max(
                worst_zero,
                max(abs(p - q) for p, q in zip(at_zero.probabilities, reduction)),
                max(
                    abs(p - q)
                    for p, q in zip(
                        at_zero.probabilities, via_identity.probabilities
                    )
                ),
            )
            unmoderated = posterior_2x2(table)
            for hbar in (40.0, 100.0):
                moderated = posterior_2x2(table, hbar=hbar)
                worst_large = max(
                    worst_large,
                    max(
                        abs(p - q)
                        for p, q in zip(
                            moderated.probabilities, unmoderated.probabilities
                        )
                    ),
                )
        assert worst_zero < 1e-12
        assert worst_large < 1e-10
        notes["note"] = (
            f"zero-limit dev {worst_zero:.3e}, large-limit dev {worst_large:.3e}"
        )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
