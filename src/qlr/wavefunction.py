"""State-vector verification path for the overlap posterior.

This module reconstructs the block-sum posterior of :mod:`qlr.quantum`
through explicit mechanics instead of the closed-form ratio: orthonormalize
each hypothesis's feature states against its overlap metric, form the
amplitudes the contingency table demands in that basis
(:func:`amplitudes`), and read posteriors off squared amplitudes
(:func:`posterior_via_wavefunction`).  Agreement between the two paths is
the package's core correctness check: :func:`qlr.checks.cross_path_suite`
compares :func:`posterior_via_wavefunction` with
:func:`qlr.quantum.posterior_general`, both called the way users call
them.  The module imports only
:class:`~qlr.quantum.OverlapMatrix` from the code it checks, and owns the
feasibility rule, :func:`positive_definite`, that decides whether the path
applies at all.

Everything runs per hypothesis in plain Python, on the overlap's tuples,
through one Cholesky loop used twice: shifted by ``PD_EIGENVALUE_TOL`` it
is the feasibility gate, and unshifted it is the factor
``c[a] = L[a] @ L[a].T`` of :func:`cholesky_factors`.  The orthonormal
basis is the Gram-Schmidt basis of the feature states in the ``c[a]``
inner product, taken in index order; its rows are exactly the rows of
``A[a] = L[a]^-1``, the unique lower-triangular matrix with a positive
diagonal that orthonormalizes ``c[a]``:

    A[a] @ c[a] @ A[a].T = I          (orthonormality)

The amplitudes of the root cells ``s = sqrt(x[:, a])`` in that basis are
``b[a] = A[a] @ c[a] @ s = L[a].T @ s``, so the path needs the factor and
never the inverse.  They satisfy the back-substitution identity
``A[a].T @ b[a] = s``, and the sum of squares of ``b[a]`` equals the
direct double sum ``sum_{i,j} sqrt(x[i,a] x[j,a]) c[a][i][j]``.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from .classical import PosteriorDistribution
from .errors import NotPositiveDefinite
from .quantum import OverlapMatrix
from .tables import ContingencyTable, check_index

# A Gram matrix counts as positive definite when every eigenvalue clears this.
PD_EIGENVALUE_TOL = 1e-12

# Ceiling for the two paths' disagreement and the basis identities.
RESIDUAL_TOL = 1e-10

# The rows of a lower-triangular factor, row i holding its i + 1 entries.
Factor = tuple[tuple[float, ...], ...]


def _cholesky(block: Sequence[Sequence[float]], shift: float) -> Factor | None:
    """Rows of the lower-triangular Cholesky factor of the symmetric
    ``block - shift * I``, row ``i`` holding its ``i + 1`` entries up to the
    diagonal; None when that matrix has no such factor.

    Reads the lower triangle, as ``eigvalsh`` does, and stops at the first
    pivot that is not ``> 0.0``, which also refuses a block whose entries
    near the float limit make a pivot -inf or NaN.
    """
    lower: list[tuple[float, ...]] = []
    for i, row in enumerate(block):
        factor_row = []
        for j in range(i):
            earlier = lower[j]
            s = row[j]
            for k in range(j):
                s -= factor_row[k] * earlier[k]
            factor_row.append(s / earlier[j])
        pivot = row[i] - shift
        for v in factor_row:
            pivot -= v * v
        if not pivot > 0.0:
            return None
        factor_row.append(math.sqrt(pivot))
        lower.append(tuple(factor_row))
    return tuple(lower)


def positive_definite(overlap: OverlapMatrix) -> tuple[bool, ...]:
    """Per hypothesis, whether every eigenvalue of ``c[a]`` clears
    ``PD_EIGENVALUE_TOL``: the gate of :func:`cholesky_factors`.

    Decided without computing an eigenvalue: ``c[a]`` passes exactly when
    ``c[a] - PD_EIGENVALUE_TOL * I`` has a Cholesky factor.
    """
    return tuple([_cholesky(block, PD_EIGENVALUE_TOL) is not None for block in overlap.c])


def cholesky_factors(overlap: OverlapMatrix) -> tuple[Factor, ...]:
    """Per hypothesis, the Cholesky factor ``L[a]`` of ``c[a] = L[a] @ L[a].T``
    as the rows of its lower triangle: row ``i`` holds ``L[a][i][0..i]``.

    ``L[a]^-1`` is the Gram-Schmidt basis of the feature states in the
    ``c[a]`` inner product; :func:`amplitudes` reads the table's amplitudes
    in that basis off ``L[a]`` without forming the inverse.

    Raises:
        NotPositiveDefinite: some hypothesis's Gram matrix has an eigenvalue
            at or below ``PD_EIGENVALUE_TOL`` (a :func:`positive_definite`
            flag is False), so no orthonormal basis exists; names the
            smallest such hypothesis.  The block-sum posterior remains
            available.
    """
    factors = []
    for a, block in enumerate(overlap.c):
        # Past the gate every unshifted pivot exceeds the gate's by
        # PD_EIGENVALUE_TOL, far above rounding on a unit-diagonal block,
        # so the factor exists; one raise covers both.
        gate = _cholesky(block, PD_EIGENVALUE_TOL)
        factor = None if gate is None else _cholesky(block, 0.0)
        if factor is None:
            raise NotPositiveDefinite(a)
        factors.append(factor)
    return tuple(factors)


def amplitudes(factor: Factor, roots: Sequence[float]) -> list[float]:
    """Amplitudes the contingency table requires in the orthonormal basis of
    one hypothesis: ``b = L.T @ roots``, which is ``A @ c @ roots`` with
    ``A = L^-1``, for ``factor`` ``L`` from :func:`cholesky_factors` and
    ``roots`` the root cells ``sqrt(x[:, a])``.

    They back-substitute to the original feature amplitudes,
    ``A.T @ b = roots``.  The amplitudes of
    :func:`posterior_via_wavefunction` and of the cross-path suite's
    identity checks.
    """
    b = [0.0] * len(roots)
    for row, root in zip(factor, roots):
        for k, v in enumerate(row):
            b[k] += v * root
    return b


def posterior_via_wavefunction(
    table: ContingencyTable, overlap: OverlapMatrix | Any
) -> PosteriorDistribution:
    """Posterior from squared amplitudes, prior-weighted per hypothesis.

    ``P(H_a) ∝ w_a * sum_i b[a][i]**2`` with ``w_a = priors[a] * n``, the
    same weighting as :func:`qlr.quantum.posterior_general`; the two must
    agree within ``RESIDUAL_TOL`` whenever the overlap is positive definite.
    The overlap may be anything :class:`OverlapMatrix` accepts.

    Raises:
        BadShape: a ragged overlap, or overlap dimensions that disagree
            with the table.
        InvalidOverlap: coefficients violate unit-diagonal/symmetry rules.
        NotPositiveDefinite: no orthonormal basis exists for some hypothesis.
    """
    overlap = OverlapMatrix.coerce(overlap)
    overlap.check_fits(table)
    n = table.n
    weights = []
    for a, (p, factor) in enumerate(zip(table.priors, cholesky_factors(overlap))):
        b = amplitudes(factor, [math.sqrt(row[a]) for row in table.x])
        weights.append(p * n * math.fsum([v * v for v in b]))
    return PosteriorDistribution.from_weights(weights, "wavefunction")


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
    state = [math.sqrt(w) * math.sqrt(v) for w, v in zip(table.priors, table.x[feature])]
    return PosteriorDistribution.from_weights([amp * amp for amp in state], "wavefunction")

