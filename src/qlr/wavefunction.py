"""State-vector verification path for the overlap posterior.

This module reconstructs the block-sum posterior of :mod:`qlr.quantum`
through explicit mechanics instead of the closed-form ratio: orthonormalize
each hypothesis's feature states against its overlap metric (Gram-Schmidt),
solve for the ``(n, m)`` amplitude array ``b`` the contingency table
demands (:func:`solve_b_coefficients`), and read posteriors off squared
amplitudes.  Agreement between the two paths is the package's core
correctness check, exercised by :func:`qlr.checks.cross_path_suite`.  The
module imports only :class:`~qlr.quantum.OverlapMatrix` from the code it
checks.

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
case K = n; :func:`qlr.checks.cross_path_suite` stacks the hypotheses of
all its samples that share a feature count and runs the path once per count,
through :func:`gram_schmidt_basis`, :func:`stacked_amplitudes` and
:func:`squared_readout`.

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
from typing import Any, Sequence

import numpy as np

from .classical import PosteriorDistribution
from .errors import InvalidBasis, NotPositiveDefinite, ShapeMismatch
from .quantum import OverlapMatrix
from .tables import ContingencyTable, check_index

# Residual ceiling for the orthonormality and back-substitution identities.
RESIDUAL_TOL = 1e-10


def _orthonormality_residuals(ac: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Per k, the largest absolute entry of ``ac[k] @ a[k].T - I``, where
    ``ac[k] = a[k] @ c[k]``."""
    product = ac @ a.transpose(0, 2, 1)
    return np.abs(product - np.eye(a.shape[1])).max(axis=(1, 2), initial=0.0)


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Per-hypothesis change-of-basis matrices orthonormalizing an overlap.

    ``matrices`` is a ``(K, m, m)`` stack; ``matrices[a]`` holds basis row
    vectors for hypothesis ``a`` expressed in the original (overlapping)
    feature states.  ``==`` and ``hash`` go by identity.

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
    metric_rows: np.ndarray = field(init=False, repr=False)
    hypothesis_residuals: np.ndarray = field(init=False, repr=False)

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


def stacked_amplitudes(basis: OrthonormalBasis, roots: np.ndarray) -> np.ndarray:
    """``b[k] = A[k] @ c[k] @ roots[k]`` over the basis stack; ``roots`` is
    ``(K, m)`` with one row of root cells per hypothesis.  The amplitudes of
    :func:`solve_b_coefficients` and of the cross-path suite."""
    return (basis.metric_rows @ roots[:, :, None])[:, :, 0]


def squared_readout(priors: Sequence[float], norms: np.ndarray) -> PosteriorDistribution:
    """``P(H_a) ∝ priors[a] * n * norms[a]`` from per-hypothesis sums of
    squared amplitudes: the readout of :func:`posterior_via_wavefunction`
    and of the cross-path suite."""
    n = len(priors)
    return PosteriorDistribution.from_weights(
        [p * n * norm for p, norm in zip(priors, norms.tolist())], "wavefunction"
    )


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
    b = stacked_amplitudes(basis, np.sqrt(np.array(table.x).T))
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
    return squared_readout(table.priors, (b * b).sum(axis=1))


def posterior_independent(table: ContingencyTable, feature: int) -> PosteriorDistribution:
    """Single-feature posterior via explicit projection and collapse.

    Builds the joint state with amplitudes ``sqrt(priors[a]) * sqrt(x[i][a])``
    over orthogonal hypothesis-feature states, projects onto the observed
    feature's subspace, and renormalizes the squared amplitudes.  Agrees with
    the direct single-feature update to rounding error; realizing that
    agreement is this function's purpose.

    Raises:
        BadIndex: ``feature`` breaks :func:`~qlr.tables.check_index`.
    """
    check_index(feature, len(table.features), "feature index")
    amplitudes = [math.sqrt(w) * math.sqrt(v) for w, v in zip(table.priors, table.x[feature])]
    return PosteriorDistribution.from_weights([amp * amp for amp in amplitudes], "wavefunction")

