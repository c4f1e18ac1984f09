"""State-vector verification path for the overlap posterior.

This module reconstructs the block-sum posterior of :mod:`qlr.quantum`
through explicit mechanics instead of the closed-form ratio: orthonormalize
each hypothesis's feature states against its overlap metric (Gram-Schmidt),
form the ``(n, m)`` amplitude array ``b`` the contingency table demands
(:func:`stacked_amplitudes`), and read posteriors off squared amplitudes.
Agreement between the two paths is the package's core correctness check,
exercised by :func:`qlr.checks.cross_path_suite`.  The module imports only
:class:`~qlr.quantum.OverlapMatrix` from the code it checks, and owns the
feasibility rule, :func:`positive_definite`, that decides whether the path
applies at all.

The linear algebra runs on stacks of K per-hypothesis ``m x m`` matrices,
shape ``(K, m, m)``.  The positive-definite gate is decided per block in
plain Python, on the overlap's tuples; then the stack becomes one array, and
a fixed number of stacked numpy calls follow whatever K and m are: one
Cholesky factorisation ``c[a] = L[a] @ L[a].T`` and its inverse, one stacked
product ``A @ c`` that the residual and the amplitudes share, and one more
product each to finish them.  The basis is the Gram-Schmidt basis of the
feature states in the ``c[a]`` inner product, taken in index order; its rows
are exactly the rows of ``L[a]^-1``, the unique lower-triangular matrix with
a positive diagonal that orthonormalizes ``c[a]``.  A single table is the
case K = n; :func:`qlr.checks.cross_path_suite` stacks the hypotheses of all
its samples that share a feature count and runs the path once per count,
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
from typing import Any

import numpy as np

from .classical import PosteriorDistribution
from .errors import NotPositiveDefinite
from .quantum import OverlapMatrix
from .tables import ContingencyTable, check_index

# A Gram matrix counts as positive definite when every eigenvalue clears this.
PD_EIGENVALUE_TOL = 1e-12

# Residual ceiling for the orthonormality and back-substitution identities.
RESIDUAL_TOL = 1e-10


def _clears_tolerance(block: tuple[tuple[float, ...], ...]) -> bool:
    """Whether every eigenvalue of the symmetric ``block`` exceeds
    ``PD_EIGENVALUE_TOL``: whether ``block - PD_EIGENVALUE_TOL * I`` has a
    Cholesky factor.

    Reads the lower triangle, as ``eigvalsh`` does, and stops at the first
    pivot that is not ``> 0.0``, which also refuses a block whose entries
    near the float limit make a pivot -inf or NaN.
    """
    lower: list[list[float]] = []
    for i, row in enumerate(block):
        factor_row = []
        for j in range(i):
            earlier = lower[j]
            s = row[j]
            for k in range(j):
                s -= factor_row[k] * earlier[k]
            factor_row.append(s / earlier[j])
        pivot = row[i] - PD_EIGENVALUE_TOL
        for v in factor_row:
            pivot -= v * v
        if not pivot > 0.0:
            return False
        factor_row.append(math.sqrt(pivot))
        lower.append(factor_row)
    return True


def positive_definite(overlap: OverlapMatrix) -> tuple[bool, ...]:
    """Per hypothesis, whether every eigenvalue of ``c[a]`` clears
    ``PD_EIGENVALUE_TOL``: the gate of :func:`gram_schmidt_basis`.

    Decided without computing an eigenvalue: ``c[a]`` passes exactly when
    ``c[a] - PD_EIGENVALUE_TOL * I`` has a Cholesky factor, which a
    plain-Python factorisation of each block finds out.
    """
    return tuple([_clears_tolerance(block) for block in overlap.c])


def gram_schmidt_basis(overlap: OverlapMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormalize each hypothesis's feature states against its metric.

    Returns three read-only arrays over the ``(K, m, m)`` stack ``c``:

    - ``rows``, shape ``(K, m, m)``: ``rows[a]`` holds the basis row vectors
      ``A[a]`` of hypothesis ``a``, expressed in the original (overlapping)
      feature states;
    - ``metric_rows``, shape ``(K, m, m)``: the product ``A @ c``, which
      both the orthonormality residual ``(A @ c) @ A.T`` and the amplitudes
      ``(A @ c) @ sqrt(x)`` start from.  numpy evaluates ``A @ c @ B`` as
      ``(A @ c) @ B``, so sharing it changes no bit;
    - ``residuals``, shape ``(K,)``: per hypothesis, the largest absolute
      entry of ``A c A^T - I``, each at most ``RESIDUAL_TOL``.

    The basis is the Gram-Schmidt basis of the feature states ``e_1..e_m``
    in the ``c[a]`` inner product, processed in index order.  It is computed
    as ``L[a]^-1`` from one Cholesky factorisation ``c[a] = L[a] @ L[a].T``
    of the whole stack: Gram-Schmidt in index order yields the unique
    lower-triangular ``A[a]`` with a positive diagonal and
    ``A[a] @ c[a] @ A[a].T = I``, and that matrix is ``L[a]^-1``.  The gate
    in front of it is :func:`positive_definite`; the basis keeps numpy's
    factorisation.

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
    flags = positive_definite(overlap)
    if not all(flags):
        raise NotPositiveDefinite(flags.index(False))
    c = np.array(overlap.c)
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
    metric_rows = rows @ c
    product = metric_rows @ rows.transpose(0, 2, 1)
    residuals = np.abs(product - np.eye(c.shape[1])).max(axis=(1, 2), initial=0.0)
    # A NaN residual fails the ceiling too, and argmax names its hypothesis.
    if not residuals.max(initial=0.0) <= RESIDUAL_TOL:
        worst = int(np.argmax(residuals))
        raise NotPositiveDefinite(
            worst,
            f"Gram matrix for hypothesis {worst} is too ill-conditioned for an "
            f"orthonormal basis: orthonormality residual {float(residuals[worst])!r} "
            f"exceeds {RESIDUAL_TOL}",
        )
    for array in (rows, metric_rows, residuals):
        array.setflags(write=False)
    return rows, metric_rows, residuals


def stacked_amplitudes(metric_rows: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Amplitudes the contingency table requires in the orthonormal basis:
    ``b[k] = A[k] @ c[k] @ roots[k]`` over a ``(K, m, m)`` stack of
    ``metric_rows`` ``A @ c`` from :func:`gram_schmidt_basis`, with ``roots``
    the ``(K, m)`` root cells ``sqrt(x[:, a])``, one row per hypothesis.

    They back-substitute to the original feature amplitudes,
    ``A[k].T @ b[k] = roots[k]``.  The amplitudes of
    :func:`posterior_via_wavefunction` and of the cross-path suite.
    """
    return (metric_rows @ roots[:, :, None])[:, :, 0]


def squared_readout(table: ContingencyTable, norms: np.ndarray) -> PosteriorDistribution:
    """``P(H_a) ∝ priors[a] * n * norms[a]``, under the table's priors, from
    per-hypothesis sums of squared amplitudes: the readout of
    :func:`posterior_via_wavefunction` and of the cross-path suite."""
    n = table.n
    return PosteriorDistribution.from_weights(
        [p * n * norm for p, norm in zip(table.priors, norms.tolist())], "wavefunction"
    )


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
        BadShape: a ragged overlap, or overlap dimensions that disagree
            with the table.
        InvalidOverlap: coefficients violate unit-diagonal/symmetry rules.
        NotPositiveDefinite: no orthonormal basis exists for some hypothesis.
    """
    overlap = OverlapMatrix.coerce(overlap)
    overlap.check_fits(table)
    _, metric_rows, _ = gram_schmidt_basis(overlap)
    b = stacked_amplitudes(metric_rows, np.sqrt(np.array(table.x).T))
    return squared_readout(table, (b * b).sum(axis=1))


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

