"""State-vector path: Gram-Schmidt bases, amplitude solving, the squared
amplitude posterior, the single-feature projection, and the cross-path
suite."""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qlr.quantum as quantum
from qlr import (
    BadIndex,
    CountTable,
    InvalidBasis,
    InvalidOverlap,
    NotPositiveDefinite,
    OrthonormalBasis,
    OverlapMatrix,
    PosteriorDistribution,
    ShapeMismatch,
    bayes_posterior,
    cross_path_suite,
    from_counts,
    gram_schmidt_basis,
    new_table,
    overlap_coefficients,
    posterior_2x2,
    posterior_general,
    posterior_independent,
    posterior_via_wavefunction,
    solve_b_coefficients,
)
from qlr.quantum import PD_EIGENVALUE_TOL
from qlr.checks import random_positive_definite_overlap
from qlr.wavefunction import RESIDUAL_TOL

STREET = from_counts(CountTable(np.array([[8, 7], [6, 5]]), np.array([10, 10])))

# Sum of squared amplitudes for the worked example, frozen from an
# independent script before this module existed.
STREET_NORMALIZATION = 4.7005952380952385
STREET_P1 = 0.5895909839179435


def street_overlap() -> OverlapMatrix:
    s = overlap_coefficients(STREET)
    return OverlapMatrix.from_pair(s.c1, s.c2)


# Loop references: one hypothesis (and one amplitude column) at a time.  The
# stacked code must match them within STACKED_TOL, set from float64 rounding
# on unit-scale overlaps: 1e-12 is about 4,500 ulps of 1, far above the
# rounding of the m <= 4 term sums both versions form.
STACKED_TOL = 1e-12


def reference_gram_schmidt(overlap: OverlapMatrix) -> np.ndarray:
    c = overlap.c
    basis = np.zeros((overlap.n, overlap.m, overlap.m))
    for a in range(overlap.n):
        gram = c[a]
        rows = basis[a]
        for i in range(overlap.m):
            v = np.zeros(overlap.m)
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
    identity = OverlapMatrix.identity(3, 4)
    cases.append(pytest.param(new_table(1.0 - rng.random((4, 3))), identity, id="identity"))
    cases.append(pytest.param(STREET, street_overlap(), id="street"))
    return cases


@pytest.mark.parametrize("table,overlap", reference_cases())
def test_stacked_path_matches_loop_reference(table, overlap):
    basis = gram_schmidt_basis(overlap)
    expected_basis = reference_gram_schmidt(overlap)
    np.testing.assert_allclose(basis.matrices, expected_basis, rtol=0, atol=STACKED_TOL)
    b = solve_b_coefficients(table, basis)
    expected_b = reference_amplitudes(np.array(table.x), expected_basis, overlap.c)
    np.testing.assert_allclose(b, expected_b, rtol=0, atol=STACKED_TOL)
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


class TestGramSchmidtBasis:
    def test_identity_overlap_gives_identity_basis(self):
        basis = gram_schmidt_basis(OverlapMatrix.identity(3, 4))
        for a in range(3):
            np.testing.assert_array_equal(basis.matrices[a], np.eye(4))

    def test_orthonormality_residual(self):
        basis = gram_schmidt_basis(OverlapMatrix.from_pair(0.5, -0.3))
        assert basis.residual() < 1e-14

    def test_street_basis_residual(self):
        assert gram_schmidt_basis(street_overlap()).residual() < 1e-13

    def test_degenerate_overlap_names_the_hypothesis(self):
        with pytest.raises(NotPositiveDefinite) as info:
            gram_schmidt_basis(OverlapMatrix.from_pair(1.0, 0.3))
        assert info.value.hypothesis == 0
        with pytest.raises(NotPositiveDefinite) as info:
            gram_schmidt_basis(OverlapMatrix.from_pair(0.3, 1.0))
        assert info.value.hypothesis == 1
        with pytest.raises(NotPositiveDefinite) as info:
            gram_schmidt_basis(OverlapMatrix.from_pair(1.0, 1.0))
        assert info.value.hypothesis == 0

    def test_random_positive_definite_overlaps_pass(self):
        rng = np.random.default_rng(31)
        draws = random.Random(31)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 4))
            overlap = random_positive_definite_overlap(draws, n, m)
            offdiag = overlap.c.copy()
            offdiag[:, np.arange(m), np.arange(m)] = 0.0
            assert np.abs(offdiag).max() < 0.5
            for a in range(n):
                assert np.linalg.eigvalsh(overlap.c[a]).min() > 0.49
            basis = gram_schmidt_basis(overlap)
            assert basis.residual() < 1e-12


# The basis is computed as L^-1 of a Cholesky factorisation, the loop
# reference by Gram-Schmidt; their rounding differs, and the condition number
# kappa of c[a] amplifies it.  Over 100,000 draws of the stacks below the
# bases differed by at most 0.81 * eps * kappa * max|R|, and no hypothesis was
# refused with eps * kappa below 2.4 * RESIDUAL_TOL.
BASIS_KAPPA_FACTOR = 8.0
REFUSAL_KAPPA_FACTOR = 0.1


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


@st.composite
def gram_stacks(draw):
    """(n, m, m) unit-diagonal Gram stacks, n in 1..4 and m in 1..5, whose
    smallest eigenvalues go down to 1e-9."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in range(n):
        t = 10.0 ** -draw(st.floats(0.0, 9.0))
        if m == 1:
            blocks.append(np.ones((1, 1)))
        else:
            blocks.append(near_singular_block(rng, m, draw(st.integers(1, m - 1)), t))
    return OverlapMatrix(np.array(blocks))


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(gram_stacks())
def test_basis_is_the_gram_schmidt_basis_near_singularity(overlap):
    """Either both refuse at the eigenvalue gate naming the same hypothesis,
    or the returned basis is the loop basis within a tolerance scaled by the
    condition number.  Whether an ill-conditioned basis meets RESIDUAL_TOL is
    decided by rounding, which differs between the two algorithms, so a
    residual refusal is checked against the refused Gram matrix's condition
    number: it must be ill-conditioned enough for its residual to reach the
    ceiling."""
    flags = overlap.positive_definite
    try:
        basis = gram_schmidt_basis(overlap)
    except NotPositiveDefinite as exc:
        if not all(flags):
            assert exc.hypothesis == flags.index(False)
        else:
            kappa = np.linalg.cond(overlap.c[exc.hypothesis])
            assert np.finfo(float).eps * kappa > REFUSAL_KAPPA_FACTOR * RESIDUAL_TOL
        return
    assert all(flags)
    expected = reference_gram_schmidt(overlap)
    for a in range(overlap.n):
        kappa = np.linalg.cond(overlap.c[a])
        tol = BASIS_KAPPA_FACTOR * np.finfo(float).eps * kappa * np.abs(expected[a]).max()
        np.testing.assert_allclose(basis.matrices[a], expected[a], rtol=0, atol=tol)


def near_singular_stacks():
    """Stacks with one hypothesis whose smallest eigenvalue sweeps across
    the residual ceiling's range (1e-5..1e-10) and the 1e-12 gate, down to
    exactly singular; the other hypotheses are well conditioned."""
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


def test_near_singular_sweep_gives_a_basis_or_a_typed_refusal():
    # No LinAlgError (or any untyped error) escapes around the gate or the
    # residual route, and a refusal names the one ill-conditioned hypothesis.
    routes = set()
    for overlap, ill in near_singular_stacks():
        try:
            basis = gram_schmidt_basis(overlap)
        except NotPositiveDefinite as exc:
            assert exc.hypothesis == ill
            routes.add("gate" if not all(overlap.positive_definite) else "residual")
        else:
            assert basis.residual() <= RESIDUAL_TOL
            routes.add("basis")
    assert routes == {"basis", "residual", "gate"}


def test_failed_factorisation_is_a_typed_refusal(monkeypatch):
    # Past the gate every Cholesky pivot exceeds PD_EIGENVALUE_TOL; should
    # the factorisation fail regardless, the refusal names the hypothesis
    # with the smallest eigenvalue.
    def failing(c):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    overlap = OverlapMatrix.from_pair(0.2, 0.9)
    assert np.linalg.eigvalsh(overlap.c).min() > PD_EIGENVALUE_TOL
    with pytest.raises(NotPositiveDefinite, match="Cholesky") as info:
        gram_schmidt_basis(overlap)
    assert info.value.hypothesis == 1
    assert info.value.exit_code == 3


class TestOrthonormalBasis:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidBasis):
            OrthonormalBasis(np.eye(2), OverlapMatrix.identity(2, 2))

    def test_rejects_non_orthonormal_rows(self):
        overlap = OverlapMatrix.identity(2, 2)
        with pytest.raises(InvalidBasis, match="residual"):
            OrthonormalBasis(2.0 * np.stack([np.eye(2), np.eye(2)]), overlap)
        with pytest.raises(InvalidBasis, match="residual"):
            OrthonormalBasis(np.full((2, 2, 2), np.nan), overlap)

    def test_matrices_are_read_only(self):
        basis = gram_schmidt_basis(OverlapMatrix.identity(2, 2))
        with pytest.raises(ValueError):
            basis.matrices[0, 0, 0] = 2.0

    def test_overlaps_and_bases_compare_by_identity(self):
        overlap = OverlapMatrix.from_pair(0.2, 0.3)
        twin = OverlapMatrix.from_pair(0.2, 0.3)
        assert overlap == overlap and overlap != twin
        assert len({overlap, twin}) == 2
        basis, other = gram_schmidt_basis(overlap), gram_schmidt_basis(overlap)
        assert basis == basis and basis != other
        assert len({basis, other}) == 2


class TestSolveBCoefficients:
    def test_identity_overlap_returns_root_cells(self):
        x = np.array([[0.64, 0.25], [0.09, 0.81], [0.36, 0.49]])
        table = new_table(x)
        basis = gram_schmidt_basis(OverlapMatrix.identity(2, 3))
        b = solve_b_coefficients(table, basis)
        np.testing.assert_array_equal(b, np.sqrt(x).T)

    def test_amplitudes_are_read_only(self):
        table = new_table([[0.64, 0.25], [0.09, 0.81]])
        b = solve_b_coefficients(table, gram_schmidt_basis(street_overlap()))
        assert b.shape == (table.n, table.m)
        with pytest.raises(ValueError):
            b[0, 0] = 2.0

    def test_street_normalization(self):
        basis = gram_schmidt_basis(street_overlap())
        b = solve_b_coefficients(STREET, basis)
        np.testing.assert_allclose(np.sum(b * b), STREET_NORMALIZATION, atol=1e-10)

    def test_back_substitution_recovers_root_cells(self):
        rng = np.random.default_rng(33)
        draws = random.Random(33)
        for _ in range(100):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 5))
            x = 1.0 - rng.random((m, n))
            table = new_table(x)
            overlap = random_positive_definite_overlap(draws, n, m)
            basis = gram_schmidt_basis(overlap)
            b = solve_b_coefficients(table, basis)
            for a in range(n):
                recovered = basis.matrices[a].T @ b[a]
                np.testing.assert_allclose(
                    recovered, np.sqrt(x[:, a]), atol=1e-12
                )

    def test_shape_mismatch(self):
        basis = gram_schmidt_basis(OverlapMatrix.identity(2, 2))
        table = new_table([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ShapeMismatch):
            solve_b_coefficients(table, basis)


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
        pd = posterior_via_wavefunction(table, OverlapMatrix.identity(2, 2))
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
        with pytest.raises(ShapeMismatch):
            posterior_via_wavefunction(STREET, OverlapMatrix.identity(2, 3))

    def test_accepts_what_posterior_general_accepts(self):
        nested = street_overlap().c.tolist()
        wf = posterior_via_wavefunction(STREET, nested)
        assert wf == posterior_via_wavefunction(STREET, street_overlap())
        np.testing.assert_allclose(
            wf.probabilities, posterior_general(STREET, nested).probabilities, atol=1e-12
        )
        ragged = [[[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.2], [0.2]]]
        for call in (posterior_via_wavefunction, posterior_general):
            with pytest.raises(InvalidOverlap):
                call(STREET, ragged)

    def test_degenerate_overlap_propagates(self):
        with pytest.raises(NotPositiveDefinite):
            posterior_via_wavefunction(STREET, OverlapMatrix.from_pair(1.0, 0.2))

    @pytest.mark.parametrize("pair, hypothesis", [((1 - 1e-8, 0.3), 0), ((0.3, 1 - 1e-8), 1)])
    def test_ill_conditioned_overlap_is_an_exit_3_error(self, pair, hypothesis):
        # Positive definite, so it passes the eigenvalue gate, but too
        # ill-conditioned for the Gram-Schmidt basis to meet RESIDUAL_TOL:
        # a capability gap of the method (exit 3), not a bad basis (exit 2).
        table = new_table([[0.5, 0.4], [0.3, 0.6]])
        overlap = OverlapMatrix.from_pair(*pair)
        assert overlap.positive_definite == (True, True)
        with pytest.raises(NotPositiveDefinite, match="residual") as info:
            posterior_via_wavefunction(table, overlap)
        assert info.value.exit_code == 3
        assert info.value.hypothesis == hypothesis


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
            return PosteriorDistribution.from_probabilities(p, "quantum")

        monkeypatch.setattr(quantum, "posterior_general", perturbed)
        report = cross_path_suite(20, 42)
        assert not report.passed
        by_name = {check.name: check for check in report.checks}
        assert not by_name["paths_agree"].passed
        assert by_name["paths_agree"].passes == 0
        assert all(check.passed for name, check in by_name.items() if name != "paths_agree")
