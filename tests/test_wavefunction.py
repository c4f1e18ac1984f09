"""State-vector path: Cholesky factors, amplitudes, the squared amplitude
posterior, the single-feature projection, and the cross-path suite."""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qlr.classical as classical
import qlr.cli
import qlr.quantum as quantum
import qlr.wavefunction as wavefunction
from qlr import (
    BadIndex,
    BadShape,
    CountTable,
    NotPositiveDefinite,
    OverlapMatrix,
    PosteriorDistribution,
    bayes_posterior,
    cholesky_factors,
    cross_path_suite,
    from_counts,
    new_table,
    overlap_coefficients,
    positive_definite,
    posterior_2x2,
    posterior_general,
    posterior_independent,
    posterior_via_wavefunction,
)
from qlr.checks import (
    CrossPathSample,
    check_cross_path_sample,
    draw_cross_path_samples,
    random_positive_definite_overlap,
)
from qlr.wavefunction import RESIDUAL_TOL, amplitudes

STREET = from_counts(CountTable(np.array([[8, 7], [6, 5]]), np.array([10, 10])))

# Sum of squared amplitudes for the worked example, frozen from an
# independent script before this module existed.
STREET_NORMALIZATION = 4.7005952380952385
STREET_P1 = 0.5895909839179435


def identity_overlap(n: int, m: int) -> OverlapMatrix:
    """All m features orthogonal (independent) under each of n hypotheses."""
    return OverlapMatrix(np.broadcast_to(np.eye(m), (n, m, m)))


def street_overlap() -> OverlapMatrix:
    s = overlap_coefficients(STREET)
    return OverlapMatrix.from_pair(s.c1, s.c2)


def square(factor) -> np.ndarray:
    """The ``m x m`` lower-triangular matrix whose rows ``factor`` holds."""
    lower = np.zeros((len(factor), len(factor)))
    for i, row in enumerate(factor):
        lower[i, : i + 1] = row
    return lower


def table_amplitudes(table, overlap: OverlapMatrix) -> np.ndarray:
    """The ``(n, m)`` amplitudes of ``table`` in the bases of ``overlap``."""
    roots = np.sqrt(np.array(table.x))
    return np.array(
        [amplitudes(f, roots[:, a].tolist()) for a, f in enumerate(cholesky_factors(overlap))]
    )


def paths_gap(table, overlap) -> float:
    """The largest difference between the state-vector and block-sum
    posteriors."""
    wf = posterior_via_wavefunction(table, overlap).probabilities
    return max(abs(p - q) for p, q in zip(wf, posterior_general(table, overlap).probabilities))


# Loop references: one hypothesis (and one amplitude column) at a time.  The
# factor path must match them within REFERENCE_TOL, set from float64
# rounding on unit-scale overlaps: 1e-12 is about 4,500 ulps of 1, far above
# the rounding of the m <= 4 term sums both versions form.
REFERENCE_TOL = 1e-12


def reference_gram_schmidt(overlap: OverlapMatrix) -> np.ndarray:
    c = np.array(overlap.c)
    n, m, _ = c.shape
    basis = np.zeros((n, m, m))
    for a in range(n):
        gram = c[a]
        rows = basis[a]
        for i in range(m):
            v = np.zeros(m)
            v[i] = 1.0
            for _ in range(2):
                for k in range(i):
                    v = v - (v @ gram @ rows[k]) * rows[k]
            rows[i] = v / math.sqrt(float(v @ gram @ v))
    return basis


def reference_amplitudes(x: np.ndarray, basis: np.ndarray, c: np.ndarray) -> np.ndarray:
    b = np.zeros((x.shape[1], x.shape[0]))
    for a in range(x.shape[1]):
        b[a] = basis[a] @ c[a] @ np.sqrt(x[:, a])
    return b


def reference_cases():
    """Random positive-definite overlaps for every (n, m) in {2,3,4}^2, the
    identity overlap and the street overlap, each with a table to fit."""
    rng = np.random.default_rng(36)
    draws = random.Random(36)
    cases = []
    for n in (2, 3, 4):
        for m in (2, 3, 4):
            for k in range(5):
                x = 1.0 - rng.random((m, n))
                raw = 1.0 - rng.random(n)
                overlap = random_positive_definite_overlap(draws, n, m)
                table = new_table(x, raw / raw.sum())
                cases.append(pytest.param(table, overlap, id=f"random-n{n}-m{m}-{k}"))
    identity = identity_overlap(3, 4)
    cases.append(pytest.param(new_table(1.0 - rng.random((4, 3))), identity, id="identity"))
    cases.append(pytest.param(STREET, street_overlap(), id="street"))
    return cases


@pytest.mark.parametrize("table,overlap", reference_cases())
def test_state_vector_path_matches_loop_reference(table, overlap):
    # The factor inverts the loop Gram-Schmidt basis A, so its amplitudes
    # L^T sqrt(x) are the basis's A c sqrt(x).
    expected_basis = reference_gram_schmidt(overlap)
    for a, factor in enumerate(cholesky_factors(overlap)):
        np.testing.assert_allclose(
            expected_basis[a] @ square(factor), np.eye(table.m), rtol=0, atol=REFERENCE_TOL
        )
    b = table_amplitudes(table, overlap)
    expected_b = reference_amplitudes(np.array(table.x), expected_basis, np.array(overlap.c))
    np.testing.assert_allclose(b, expected_b, rtol=0, atol=REFERENCE_TOL)
    norms = np.sum(expected_b * expected_b, axis=1)
    expected = PosteriorDistribution.from_weights(
        [float(table.priors[a] * table.n) * norms[a] for a in range(table.n)], "wavefunction"
    )
    np.testing.assert_allclose(
        posterior_via_wavefunction(table, overlap).probabilities,
        expected.probabilities,
        rtol=0,
        atol=1e-14,
    )


def factor_gap(overlap: OverlapMatrix) -> float:
    """The largest entry of ``L L^T - c`` over every hypothesis."""
    return max(
        float(np.abs(square(f) @ square(f).T - np.array(c)).max())
        for f, c in zip(cholesky_factors(overlap), overlap.c)
    )


class TestCholeskyFactors:
    def test_identity_overlap_gives_identity_factors(self):
        identity = ((1.0,), (0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0))
        assert cholesky_factors(identity_overlap(3, 4)) == (identity,) * 3

    def test_factor_reproduces_the_overlap(self):
        assert factor_gap(OverlapMatrix.from_pair(0.5, -0.3)) < 1e-15
        assert factor_gap(street_overlap()) < 1e-15

    def test_factors_are_lower_triangle_rows_of_floats(self):
        factors = cholesky_factors(random_positive_definite_overlap(random.Random(2), 3, 4))
        assert len(factors) == 3
        for factor in factors:
            assert isinstance(factor, tuple)
            assert [len(row) for row in factor] == [1, 2, 3, 4]
            for i, row in enumerate(factor):
                assert isinstance(row, tuple)
                assert all(type(v) is float for v in row)
                assert row[i] > 0.0

    def test_degenerate_overlap_names_the_hypothesis(self):
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky_factors(OverlapMatrix.from_pair(1.0, 0.3))
        assert info.value.hypothesis == 0
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky_factors(OverlapMatrix.from_pair(0.3, 1.0))
        assert info.value.hypothesis == 1
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky_factors(OverlapMatrix.from_pair(1.0, 1.0))
        assert info.value.hypothesis == 0

    def test_random_positive_definite_overlaps_pass(self):
        rng = np.random.default_rng(31)
        draws = random.Random(31)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 4))
            overlap = random_positive_definite_overlap(draws, n, m)
            offdiag = np.array(overlap.c)
            offdiag[:, np.arange(m), np.arange(m)] = 0.0
            assert np.abs(offdiag).max() < 0.5
            for a in range(n):
                assert np.linalg.eigvalsh(overlap.c[a]).min() > 0.49
            assert factor_gap(overlap) < 1e-12


def near_singular_block(rng: np.random.Generator, m: int, rank: int, t: float) -> np.ndarray:
    """``(1 - t) G + t I`` with ``G`` the Gram matrix of m random unit
    vectors in ``rank < m`` dimensions: unit diagonal, smallest eigenvalue
    ``t``."""
    g = rng.standard_normal((m, rank))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    c = (1.0 - t) * (g @ g.T) + t * np.eye(m)
    c = (c + c.T) / 2.0
    c[np.arange(m), np.arange(m)] = 1.0
    return c


def check_one_rule(table, overlap: OverlapMatrix) -> str:
    """The state-vector path's one feasibility rule on one stack: it refuses
    exactly when a gate flag is False, naming the first such hypothesis,
    and otherwise matches the block sums within RESIDUAL_TOL.  Returns the
    route taken, ``"gate"`` or ``"basis"``."""
    flags = positive_definite(overlap)
    try:
        gap = paths_gap(table, overlap)
    except NotPositiveDefinite as exc:
        assert exc.hypothesis == flags.index(False)
        assert exc.exit_code == 3
        return "gate"
    assert all(flags)
    assert gap <= RESIDUAL_TOL
    return "basis"


@st.composite
def gram_cases(draw):
    """A table with n in 2..4 hypotheses (a table needs two) and m in 1..5
    features, and a unit-diagonal Gram stack to fit it whose smallest
    eigenvalues go down to 1e-9."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in range(n):
        t = 10.0 ** -draw(st.floats(0.0, 9.0))
        if m == 1:
            blocks.append(np.ones((1, 1)))
        else:
            blocks.append(near_singular_block(rng, m, draw(st.integers(1, m - 1)), t))
    return new_table(1.0 - rng.random((m, n))), OverlapMatrix(np.array(blocks))


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(gram_cases())
def test_near_singular_overlap_gives_the_block_sums_or_a_gate_refusal(case):
    """Past the eigenvalue gate the path never refuses, however
    ill-conditioned the Gram matrix: its posterior is the block sums'."""
    check_one_rule(*case)


def near_singular_stacks():
    """Stacks with one hypothesis whose smallest eigenvalue sweeps from 1e-5
    across the 1e-12 gate down to exactly singular; the other hypotheses
    are well conditioned."""
    rng = np.random.default_rng(37)
    draws = random.Random(37)
    cases = []
    for e in np.linspace(5.0, 17.0, 49):
        t = 10.0 ** -e
        cases.append((OverlapMatrix.from_pair(1.0 - t, 0.3), 0))
        cases.append((OverlapMatrix.from_pair(0.3, 1.0 - t), 1))
        for m in (3, 4, 5):
            stack = np.array(random_positive_definite_overlap(draws, 3, m).c)
            stack[1] = near_singular_block(rng, m, m - 1, t)
            cases.append((OverlapMatrix(stack), 1))
    return cases


def test_near_singular_sweep_gives_the_block_sums_or_a_gate_refusal():
    # No untyped error escapes, a refusal names the one ill-conditioned
    # hypothesis, and the sweep reaches both sides of the gate.
    rng = np.random.default_rng(38)
    routes = set()
    for overlap, ill in near_singular_stacks():
        n, m = len(overlap.c), len(overlap.c[0])
        route = check_one_rule(new_table(1.0 - rng.random((m, n))), overlap)
        assert route == "basis" or not positive_definite(overlap)[ill]
        routes.add(route)
    assert routes == {"basis", "gate"}


def test_seeded_near_singular_corpus_has_one_feasibility_rule():
    # 2,000 stacks of 2-4 hypotheses and 2-5 features, each block's smallest
    # eigenvalue log-uniform down to 1e-13, so about one block in thirteen
    # falls below the 1e-12 gate.  The state-vector path refuses exactly the
    # stacks with a False flag and matches the block sums on all others.
    rng = np.random.default_rng(5)
    routes = {"gate": 0, "basis": 0}
    for _ in range(2000):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        blocks = [
            near_singular_block(rng, m, int(rng.integers(1, m)), 10.0 ** -rng.uniform(0.0, 13.0))
            for _ in range(n)
        ]
        table = new_table(1.0 - rng.random((m, n)))
        routes[check_one_rule(table, OverlapMatrix(np.array(blocks)))] += 1
    assert min(routes.values()) > 100


class TestAmplitudes:
    def test_identity_overlap_returns_root_cells(self):
        x = np.array([[0.64, 0.25], [0.09, 0.81], [0.36, 0.49]])
        table = new_table(x)
        b = table_amplitudes(table, identity_overlap(2, 3))
        np.testing.assert_array_equal(b, np.sqrt(x).T)

    def test_one_amplitude_row_per_hypothesis(self):
        table = new_table([[0.64, 0.25, 0.5], [0.09, 0.81, 0.5]])
        assert table_amplitudes(table, identity_overlap(3, 2)).shape == (table.n, table.m)

    def test_amplitudes_are_the_transposed_factor_times_the_roots(self):
        factor = cholesky_factors(random_positive_definite_overlap(random.Random(4), 1, 3))[0]
        roots = [0.3, 0.9, 0.6]
        b = amplitudes(factor, roots)
        assert all(type(v) is float for v in b)
        np.testing.assert_allclose(b, square(factor).T @ roots, rtol=0, atol=1e-15)

    def test_street_normalization(self):
        b = table_amplitudes(STREET, street_overlap())
        np.testing.assert_allclose(np.sum(b * b), STREET_NORMALIZATION, atol=1e-10)

    def test_back_substitution_recovers_root_cells(self):
        # A^T b = sqrt(x) with A the loop Gram-Schmidt basis.
        rng = np.random.default_rng(33)
        draws = random.Random(33)
        for _ in range(100):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 5))
            x = 1.0 - rng.random((m, n))
            table = new_table(x)
            overlap = random_positive_definite_overlap(draws, n, m)
            basis = reference_gram_schmidt(overlap)
            b = table_amplitudes(table, overlap)
            for a in range(n):
                recovered = basis[a].T @ b[a]
                np.testing.assert_allclose(
                    recovered, np.sqrt(x[:, a]), atol=1e-12
                )


class TestPosteriorViaWavefunction:
    def test_street_matches_closed_form(self):
        pd = posterior_via_wavefunction(STREET, street_overlap())
        np.testing.assert_allclose(pd.probabilities[0], STREET_P1, atol=1e-10)
        assert pd.method == "wavefunction"
        closed = posterior_2x2(STREET)
        np.testing.assert_allclose(
            pd.probabilities, closed.probabilities, atol=1e-10
        )

    def test_identity_overlap_reduces_to_column_sums(self):
        x = np.array([[0.7, 0.2], [0.4, 0.9]])
        table = new_table(x, [0.3, 0.7])
        pd = posterior_via_wavefunction(table, identity_overlap(2, 2))
        expected = table.priors * x.sum(axis=0)
        expected = expected / expected.sum()
        np.testing.assert_allclose(pd.probabilities, expected, atol=1e-14)

    def test_matches_block_sum_posterior(self):
        rng = np.random.default_rng(34)
        draws = random.Random(34)
        for _ in range(100):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 5))
            x = 1.0 - rng.random((m, n))
            raw = 1.0 - rng.random(n)
            table = new_table(x, raw / raw.sum())
            overlap = random_positive_definite_overlap(draws, n, m)
            wf = posterior_via_wavefunction(table, overlap)
            general = posterior_general(table, overlap)
            np.testing.assert_allclose(
                wf.probabilities, general.probabilities, atol=1e-10
            )

    def test_shape_mismatch(self):
        with pytest.raises(BadShape):
            posterior_via_wavefunction(STREET, identity_overlap(2, 3))

    def test_accepts_what_posterior_general_accepts(self):
        nested = [[list(row) for row in block] for block in street_overlap().c]
        wf = posterior_via_wavefunction(STREET, nested)
        assert wf == posterior_via_wavefunction(STREET, street_overlap())
        np.testing.assert_allclose(
            wf.probabilities, posterior_general(STREET, nested).probabilities, atol=1e-12
        )
        ragged = [[[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.2], [0.2]]]
        for call in (posterior_via_wavefunction, posterior_general):
            with pytest.raises(BadShape):
                call(STREET, ragged)

    def test_degenerate_overlap_propagates(self):
        with pytest.raises(NotPositiveDefinite):
            posterior_via_wavefunction(STREET, OverlapMatrix.from_pair(1.0, 0.2))

    @pytest.mark.parametrize("pair", [(1 - 1e-8, 0.3), (0.3, 1 - 1e-8)])
    def test_ill_conditioned_overlap_matches_the_block_sums(self, pair):
        # Positive definite, so it passes the eigenvalue gate, however
        # ill-conditioned: the posterior is the block sums'.
        table = new_table([[0.5, 0.4], [0.3, 0.6]])
        overlap = OverlapMatrix.from_pair(*pair)
        assert positive_definite(overlap) == (True, True)
        assert paths_gap(table, overlap) <= RESIDUAL_TOL


class TestPosteriorIndependent:
    def test_street_blue_door(self):
        pd = posterior_independent(STREET, 0)
        np.testing.assert_allclose(pd.probabilities, (8 / 15, 7 / 15), atol=1e-14)
        assert pd.method == "wavefunction"

    def test_equal_row_is_uniform(self):
        table = new_table([[0.4, 0.4, 0.4], [0.2, 0.9, 0.1]])
        pd = posterior_independent(table, 0)
        np.testing.assert_allclose(pd.probabilities, (1 / 3, 1 / 3, 1 / 3), atol=1e-15)

    def test_row_normalizes_to_itself_under_uniform_priors(self):
        table = new_table([[0.2, 0.3, 0.5], [0.6, 0.6, 0.6]])
        pd = posterior_independent(table, 0)
        np.testing.assert_allclose(pd.probabilities, (0.2, 0.3, 0.5), atol=1e-14)

    def test_matches_direct_update(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(2, 5))
            x = 1.0 - rng.random((m, n))
            raw = 1.0 - rng.random(n)
            table = new_table(x, raw / raw.sum())
            feature = int(rng.integers(0, m))
            projected = posterior_independent(table, feature)
            direct = bayes_posterior(table, feature)
            np.testing.assert_allclose(
                projected.probabilities, direct.probabilities, atol=1e-14
            )

    def test_bad_feature_index(self):
        with pytest.raises(BadIndex):
            posterior_independent(STREET, 2)
        with pytest.raises(BadIndex):
            posterior_independent(STREET, -1)


class TestCrossPathSuite:
    def test_all_checks_pass(self):
        report = cross_path_suite(100, 42)
        assert report.passed
        assert {c.name for c in report.checks} == {
            "paths_agree",
            "orthonormality",
            "back_substitution",
            "normalization",
            "projection_single_feature",
            "complementarity",
        }
        for check in report.checks:
            assert check.samples == 100
            assert check.passes == 100

    def test_deterministic_across_runs(self):
        assert cross_path_suite(50, 3).to_dict() == cross_path_suite(50, 3).to_dict()

    def test_orthonormality_compares_every_entry_of_the_square(self):
        # The check forms each entry of L L^T once but compares it with both
        # c[i][j] and c[j][i]: an overlap asymmetric within tolerance must
        # read the same as the full m x m comparison.
        def full_square(sample):
            return max(
                abs(math.fsum([p * q for p, q in zip(left, right)]) - cij)
                for c, factor in zip(sample.overlap.c, cholesky_factors(sample.overlap))
                for row, left in zip(c, factor)
                for cij, right in zip(row, factor)
            )

        skewed = [[[1.0, 0.3, 0.1], [0.3 + 6e-13, 1.0, -0.2], [0.1, -0.2 - 9e-13, 1.0]]] * 2
        table = new_table([[0.5, 0.4], [0.3, 0.6], [0.7, 0.2]])
        samples = [CrossPathSample(table, OverlapMatrix(skewed), 0)]
        samples += draw_cross_path_samples(40, 5)
        for sample in samples:
            assert check_cross_path_sample(sample)["orthonormality"] == full_square(sample)

    def test_rejects_non_positive_sample_count(self):
        with pytest.raises(ValueError):
            cross_path_suite(0, 42)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_a_seed_that_is_not_a_nonnegative_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            cross_path_suite(5, seed)

    def test_detects_a_perturbed_block_sum_posterior(self, monkeypatch):
        real = quantum.posterior_general

        def perturbed(table, overlap):
            p = list(real(table, overlap).probabilities)
            p[0], p[1] = p[0] + 1e-6, p[1] - 1e-6
            return PosteriorDistribution(tuple(p), "quantum")

        monkeypatch.setattr(quantum, "posterior_general", perturbed)
        report = cross_path_suite(20, 42)
        assert not report.passed
        by_name = {check.name: check for check in report.checks}
        assert not by_name["paths_agree"].passed
        assert by_name["paths_agree"].passes == 0
        assert all(check.passed for name, check in by_name.items() if name != "paths_agree")

    def test_detects_a_perturbed_single_feature_update(self, monkeypatch):
        real = classical.bayes_posterior

        def perturbed(table, feature):
            p = list(real(table, feature).probabilities)
            p[0], p[1] = p[0] + 1e-6, p[1] - 1e-6
            return PosteriorDistribution(tuple(p), "bayes")

        monkeypatch.setattr(classical, "bayes_posterior", perturbed)
        report = cross_path_suite(20, 42)
        by_name = {check.name: check for check in report.checks}
        assert by_name["projection_single_feature"].passes == 0
        assert all(
            check.passed for name, check in by_name.items() if name != "projection_single_feature"
        )

    def test_verify_runs_the_state_vector_posterior(self, capsys, monkeypatch):
        # A readout that squares every hypothesis's amplitudes of column 0
        # instead of its own column: verify must score the function that
        # analyze reports as wavefunction, not a copy of its readout.
        def column_zero(table, overlap):
            n = table.n
            weights = []
            for p, factor in zip(table.priors, cholesky_factors(overlap)):
                b = amplitudes(factor, [math.sqrt(row[0]) for row in table.x])
                weights.append(p * n * math.fsum([v * v for v in b]))
            return PosteriorDistribution.from_weights(weights, "wavefunction")

        monkeypatch.setattr(wavefunction, "posterior_via_wavefunction", column_zero)
        code = qlr.cli.main(["verify", "--samples", "50", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL cross-path/paths_agree" in out

    def test_detects_a_uniform_projection_posterior(self, monkeypatch):
        def uniform(table, feature):
            return PosteriorDistribution.from_weights([1.0] * table.n, "wavefunction")

        monkeypatch.setattr(wavefunction, "posterior_independent", uniform)
        by_name = {check.name: check for check in cross_path_suite(20, 42).checks}
        assert not by_name["projection_single_feature"].passed
        assert all(
            check.passed for name, check in by_name.items() if name != "projection_single_feature"
        )
