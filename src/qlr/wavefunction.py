"""State-vector verification path for the overlap posterior.

This module reconstructs the block-sum posterior of :mod:`qlr.quantum`
through explicit mechanics instead of the closed-form ratio: orthonormalize
each hypothesis's feature states against its overlap metric (Gram-Schmidt),
solve for the ``(n, m)`` amplitude array ``b`` the contingency table
demands (:func:`solve_b_coefficients`), and read posteriors off squared
amplitudes.  Agreement between the two paths is the package's core
correctness check, exercised by :func:`cross_path_suite`.

The linear algebra runs on stacks of K per-hypothesis ``m x m`` matrices,
shape ``(K, m, m)``.  The positive-definite gate,
:attr:`~qlr.quantum.OverlapMatrix.positive_definite`, is decided per block in
plain Python by the overlap itself.  After it comes a fixed number of
stacked numpy calls whatever K and m are: one Cholesky factorisation
``c[a] = L[a] @ L[a].T`` and its inverse, one stacked product ``A @ c``
that the residual and the amplitudes share, and one more product each to
finish them.  The basis is the Gram-Schmidt basis of the
feature states in the ``c[a]`` inner product, taken in index order; its rows
are exactly the rows of ``L[a]^-1``, the unique lower-triangular matrix with
a positive diagonal that orthonormalizes ``c[a]``.  A single table is the
case K = n; :func:`cross_path_suite` stacks the hypotheses of all its
samples that share a feature count and runs the path once per count.

Per hypothesis ``a`` the basis rows ``A[a] = L[a]^-1`` satisfy

    A[a] @ c[a] @ A[a].T = I          (orthonormality)

and the amplitudes ``b[a] = A[a] @ c[a] @ sqrt(x[:, a])`` satisfy the
back-substitution identity ``A[a].T @ b[a] = sqrt(x[:, a])``.  The sum of
squares of ``b[a]`` then equals the direct double sum
``sum_{i,j} sqrt(x[i,a] x[j,a]) c[a][i][j]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .checks import ConstraintReport, check_sample_count
from .classical import PosteriorDistribution
from .errors import BadIndex, InvalidBasis, NotPositiveDefinite, ShapeMismatch
from .quantum import OverlapMatrix, posterior_general
from .tables import ContingencyTable, new_table

# Residual ceiling for the orthonormality and back-substitution identities.
RESIDUAL_TOL = 1e-10


def _orthonormality_residuals(ac: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Per k, the largest absolute entry of ``ac[k] @ a[k].T - I``, where
    ``ac[k] = a[k] @ c[k]``."""
    product = ac @ a.transpose(0, 2, 1)
    return np.abs(product - np.eye(a.shape[1])).max(axis=(1, 2), initial=0.0)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Per-hypothesis change-of-basis matrices orthonormalizing an overlap.

    ``matrices`` is a ``(K, m, m)`` stack; ``matrices[a]`` holds basis row
    vectors for hypothesis ``a`` expressed in the original (overlapping)
    feature states.

    Computed at construction, read-only:

    - ``metric_rows``: the stacked product ``A @ c``, which both the
      orthonormality residual ``(A @ c) @ A.T`` and the amplitudes
      ``(A @ c) @ sqrt(x)`` start from.  numpy evaluates ``A @ c @ B`` as
      ``(A @ c) @ B``, so sharing it changes no bit.
    - ``hypothesis_residuals``: per hypothesis, the largest absolute entry of
      ``A c A^T - I``.
    """

    matrices: np.ndarray
    source_overlap: OverlapMatrix
    metric_rows: np.ndarray = field(init=False, repr=False, compare=False)
    hypothesis_residuals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.matrices, dtype=float)
        c = self.source_overlap.c
        if a.shape != c.shape:
            raise InvalidBasis(
                f"basis shape {a.shape} does not match overlap shape {c.shape}"
            )
        a = a.copy()
        ac = a @ c
        worst = _orthonormality_residuals(ac, a)
        for array in (a, ac, worst):
            array.setflags(write=False)
        object.__setattr__(self, "matrices", a)
        object.__setattr__(self, "metric_rows", ac)
        object.__setattr__(self, "hypothesis_residuals", worst)
        residual = self.residual()
        if not residual <= RESIDUAL_TOL:
            raise InvalidBasis(
                f"orthonormality residual {residual!r} exceeds {RESIDUAL_TOL}"
            )

    @property
    def n(self) -> int:
        return self.matrices.shape[0]

    @property
    def m(self) -> int:
        return self.matrices.shape[1]

    def residual(self) -> float:
        """Largest absolute entry of ``A c A^T - I`` over all hypotheses."""
        return float(self.hypothesis_residuals.max(initial=0.0))


def _quadratic_forms(u: np.ndarray, c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``u[k] @ c[k] @ w[k]`` for every k of a ``(K, m)``, ``(K, m, m)``,
    ``(K, m)`` stack."""
    return (u[:, None, :] @ c @ w[:, :, None])[:, 0, 0]


def gram_schmidt_basis(overlap: OverlapMatrix) -> OrthonormalBasis:
    """Orthonormalize each hypothesis's feature states against its metric.

    The basis is the Gram-Schmidt basis of the feature states ``e_1..e_m``
    in the ``c[a]`` inner product, processed in index order.  It is computed
    as ``L[a]^-1`` from one Cholesky factorisation ``c[a] = L[a] @ L[a].T``
    of the whole ``(K, m, m)`` stack: Gram-Schmidt in index order yields the
    unique lower-triangular ``A[a]`` with a positive diagonal and
    ``A[a] @ c[a] @ A[a].T = I``, and that matrix is ``L[a]^-1``.  The
    gate in front of it is :attr:`OverlapMatrix.positive_definite`, the
    overlap's once-computed flags; the basis keeps numpy's factorisation.

    Raises:
        NotPositiveDefinite: some hypothesis's Gram matrix has an eigenvalue
            at or below ``PD_EIGENVALUE_TOL``, so no real orthonormal basis
            exists; names the smallest such hypothesis.  Also raised when the
            Gram matrices pass that gate but are too ill-conditioned for the
            basis to meet ``RESIDUAL_TOL``, or to have a Cholesky factor in
            floating point; names the hypothesis with the largest residual,
            or the smallest eigenvalue.  The block-sum posterior remains
            available.
    """
    flags = overlap.positive_definite
    if not all(flags):
        raise NotPositiveDefinite(flags.index(False))
    c = overlap.c
    try:
        lower = np.linalg.cholesky(c)
    except np.linalg.LinAlgError as exc:
        # Every Cholesky pivot is at least the smallest eigenvalue, which
        # the gate put above PD_EIGENVALUE_TOL, far above the pivots'
        # rounding on unit-diagonal matrices; this is the route for a
        # factorisation that fails regardless.
        worst = int(np.argmin(np.linalg.eigvalsh(c).min(axis=1)))
        raise NotPositiveDefinite(
            worst,
            f"Gram matrix for hypothesis {worst} has no Cholesky factor in floating point",
        ) from exc
    rows = np.linalg.inv(lower)
    try:
        return OrthonormalBasis(rows, overlap)
    except InvalidBasis as exc:
        residuals = _orthonormality_residuals(rows @ c, rows)
        worst = int(np.argmax(residuals))
        raise NotPositiveDefinite(
            worst,
            f"Gram matrix for hypothesis {worst} is too ill-conditioned for an "
            f"orthonormal basis: orthonormality residual {float(residuals[worst])!r} "
            f"exceeds {RESIDUAL_TOL}",
        ) from exc


def _amplitudes(basis: OrthonormalBasis, roots: np.ndarray) -> np.ndarray:
    """``b[k] = A[k] @ c[k] @ roots[k]`` over the basis stack; ``roots`` is
    ``(K, m)`` with one row of root cells per hypothesis."""
    return (basis.metric_rows @ roots[:, :, None])[:, :, 0]


def _squared_readout(priors: np.ndarray, norms: np.ndarray) -> PosteriorDistribution:
    """``P(H_a) ∝ priors[a] * n * norms[a]`` from per-hypothesis sums of
    squared amplitudes."""
    w = priors * len(priors)
    return PosteriorDistribution.from_weights((w * norms).tolist(), "wavefunction")


def solve_b_coefficients(table: ContingencyTable, basis: OrthonormalBasis) -> np.ndarray:
    """Amplitudes the contingency table requires in the orthonormal basis.

    Returns the read-only ``(n, m)`` array ``b`` with
    ``b[a] = A[a] @ c[a] @ sqrt(x[:, a])``, one stacked product over all
    hypotheses, which back-substitutes to the original feature amplitudes:
    ``A[a].T @ b[a] = sqrt(x[:, a])``.

    Raises:
        ShapeMismatch: basis dimensions disagree with the table.
    """
    if (basis.n, basis.m) != (table.n, table.m):
        raise ShapeMismatch(
            f"basis covers {basis.m} features x {basis.n} hypotheses, "
            f"table is {table.m}x{table.n}"
        )
    b = _amplitudes(basis, np.sqrt(table.x.T))
    b.setflags(write=False)
    return b


def posterior_via_wavefunction(
    table: ContingencyTable, overlap: OverlapMatrix | Any
) -> PosteriorDistribution:
    """Posterior from squared amplitudes, prior-weighted per hypothesis.

    ``P(H_a) ∝ w_a * sum_i b[a][i]**2`` with ``w_a = priors[a] * n``, the
    same weighting as :func:`qlr.quantum.posterior_general`; the two must
    agree within ``RESIDUAL_TOL`` whenever the overlap is positive definite.
    This is the state-vector path on a stack of K = n hypotheses.  The
    overlap may be anything :class:`OverlapMatrix` accepts.

    Raises:
        InvalidOverlap: coefficients violate unit-diagonal/symmetry rules.
        ShapeMismatch: overlap dimensions disagree with the table.
        NotPositiveDefinite: no orthonormal basis exists for some hypothesis.
    """
    overlap = OverlapMatrix.coerce(overlap)
    overlap.check_fits(table)
    b = solve_b_coefficients(table, gram_schmidt_basis(overlap))
    return _squared_readout(table.priors, (b * b).sum(axis=1))


def posterior_independent(table: ContingencyTable, feature: int) -> PosteriorDistribution:
    """Single-feature posterior via explicit projection and collapse.

    Builds the joint state with amplitudes ``sqrt(priors[a]) * sqrt(x[i, a])``
    over orthogonal hypothesis-feature states, projects onto the observed
    feature's subspace, and renormalizes the squared amplitudes.  Agrees with
    the direct single-feature update to rounding error; realizing that
    agreement is this function's purpose.

    Raises:
        BadIndex: feature index out of range.
    """
    if not 0 <= feature < table.m:
        raise BadIndex(f"feature index {feature} out of range for {table.m} features")
    amplitudes = [
        math.sqrt(float(table.priors[a])) * math.sqrt(float(table.x[feature, a]))
        for a in range(table.n)
    ]
    return PosteriorDistribution.from_weights([amp * amp for amp in amplitudes], "wavefunction")


def _random_positive_definite_overlap(
    rng: np.random.Generator, n: int, m: int
) -> OverlapMatrix:
    """Random per-hypothesis overlaps with eigenvalues at least 1/2.

    Averaging a unit-diagonal Gram matrix of unit rows with the identity
    keeps every eigenvalue in [1/2, 3/2] and every off-diagonal inside
    (-1/2, 1/2).
    """
    g = rng.standard_normal((n, m, m + 1))
    g /= np.linalg.norm(g, axis=2, keepdims=True)
    gram = (g @ g.transpose(0, 2, 1) + np.eye(m)) / 2.0
    gram = (gram + gram.transpose(0, 2, 1)) / 2.0
    gram[:, np.arange(m), np.arange(m)] = 1.0
    return OverlapMatrix(gram)


def _random_table(rng: np.random.Generator, m: int, n: int) -> ContingencyTable:
    x = 1.0 - rng.random((m, n))
    raw = 1.0 - rng.random(n)
    return new_table(x, raw / raw.sum())


def cross_path_suite(sample_count: int, seed: int) -> ConstraintReport:
    """Randomized agreement checks between the two posterior paths.

    Per sample, draws a random table (2-3 features, 2-4 hypotheses), random
    positive-definite overlaps, and random priors, then checks:

    - the state-vector posterior matches the block-sum posterior (1e-10);
    - orthonormality residual of the constructed basis (1e-10);
    - back-substitution residual ``A^T b - sqrt(x)`` (1e-10);
    - the sum of squared amplitudes matches the explicit double sum
      ``sum sqrt(x_i x_j) c_ij`` (1e-10);
    - the single-feature projection path matches the direct single-feature
      update (1e-14);
    - complementarity of the state-vector posterior (1e-12).

    All samples are drawn first.  The basis, amplitudes, residuals and
    squared readout then run once per feature count, on the ``(K, m, m)``
    stack of every hypothesis of the samples with that count, through the
    same code as :func:`posterior_via_wavefunction`; each sample's basis is
    built once.  The block-sum side stays one :func:`posterior_general` call
    per sample, the way users call it.
    """
    check_sample_count(sample_count)
    rng = np.random.default_rng(seed)
    specs = (
        ("paths_agree", "state-vector posterior equals block-sum posterior", RESIDUAL_TOL),
        ("orthonormality", "A c A^T = I for every hypothesis", RESIDUAL_TOL),
        ("back_substitution", "A^T b recovers sqrt(x)", RESIDUAL_TOL),
        (
            "normalization",
            "sum of squared amplitudes equals the explicit double sum",
            RESIDUAL_TOL,
        ),
        (
            "projection_single_feature",
            "projection-collapse posterior equals the direct single-feature update",
            1e-14,
        ),
        ("complementarity", "state-vector posterior sums to 1", 1e-12),
    )
    deviations: dict[str, list[float]] = {name: [] for name, _, _ in specs}
    samples = []
    for _ in range(sample_count):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        table = _random_table(rng, m, n)
        overlap = _random_positive_definite_overlap(rng, n, m)
        samples.append((table, overlap, int(rng.integers(0, m))))

    for m in sorted({table.m for table, _, _ in samples}):
        group = [sample for sample in samples if sample[0].m == m]
        stacked = OverlapMatrix(np.concatenate([overlap.c for _, overlap, _ in group]))
        roots = np.concatenate([np.sqrt(table.x.T) for table, _, _ in group])
        basis = gram_schmidt_basis(stacked)
        b = _amplitudes(basis, roots)
        squares = b * b
        norms = np.sum(squares, axis=1)
        back = (basis.matrices.transpose(0, 2, 1) @ b[:, :, None])[:, :, 0] - roots
        back = np.abs(back).max(axis=1)
        double_sums = _quadratic_forms(roots, stacked.c, roots)

        lo = 0
        for table, overlap, feature in group:
            hi = lo + table.n
            deviations["orthonormality"].append(float(basis.hypothesis_residuals[lo:hi].max()))
            deviations["back_substitution"].append(float(back[lo:hi].max()))
            deviations["normalization"].append(
                abs(float(np.sum(squares[lo:hi])) - sum(double_sums[lo:hi].tolist()))
            )

            wf = _squared_readout(table.priors, norms[lo:hi])
            general = posterior_general(table, overlap)
            deviations["paths_agree"].append(
                max(
                    abs(p - q)
                    for p, q in zip(wf.probabilities, general.probabilities)
                )
            )
            deviations["complementarity"].append(abs(sum(wf.probabilities) - 1.0))

            projected = posterior_independent(table, feature)
            direct = np.array(
                [float(table.priors[a]) * float(table.x[feature, a]) for a in range(table.n)]
            )
            direct /= direct.sum()
            deviations["projection_single_feature"].append(
                max(abs(p - q) for p, q in zip(projected.probabilities, direct))
            )
            lo = hi

    return ConstraintReport.from_deviations(specs, deviations, sample_count, seed)
