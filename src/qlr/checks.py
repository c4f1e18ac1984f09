"""Randomized self-check suites and the report types they produce.

Two suites stand behind ``qlr verify``:

- :func:`verify_constraint_suite` re-derives the constraints that pin the
  2x2 closed form of :func:`qlr.quantum.posterior_2x2` (known-value
  tables, row/column exchange symmetry, complementarity);
- :func:`cross_path_suite` rebuilds the block-sum posterior of
  :func:`qlr.quantum.posterior_general` through the state-vector path of
  :mod:`qlr.wavefunction` and checks that the two agree.

Each suite is a public seeded draw (:func:`draw_constraint_samples`,
:func:`draw_cross_path_samples`) plus a check of the drawn samples, whose
per-sample deviations :meth:`ConstraintReport.from_deviations` turns into
a report.  The draws come from ``random.Random(seed)`` through
``random()``, ``randrange()`` and ``gauss()`` only, whose streams are the
same on every supported Python.  Every float sum whose result is reported
is a ``math.fsum``, since the built-in ``sum`` of floats rounds
differently from Python 3.12 on.

The suites read the kernels they check as attributes of
:mod:`qlr.quantum` at call time, so a kernel patched in its home module is
the one the suites check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from . import quantum
from .errors import ParseError
from .tables import ContingencyTable, is_integer, new_table
from .wavefunction import (
    RESIDUAL_TOL,
    gram_schmidt_basis,
    posterior_independent,
    squared_readout,
    stacked_amplitudes,
)


def suite_arguments(sample_count: int, seed: int) -> tuple[int, int]:
    """The suites' argument rule: both as Python ints; raises ParseError
    unless each is an int (not a bool) or a numpy integer, ``samples`` at
    least 1 and ``seed`` at least 0.  ``random.Random`` would take a
    negative seed as its absolute value, repeating another seed's draws."""
    for name, value, minimum in (("samples", sample_count, 1), ("seed", seed, 0)):
        if not (is_integer(value) and value >= minimum):
            raise ParseError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(sample_count), int(seed)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one randomized constraint check."""

    name: str
    description: str
    samples: int
    passes: int
    max_deviation: float
    tolerance: float

    @classmethod
    def from_deviations(
        cls, name: str, description: str, tolerance: float, deviations: Sequence[float]
    ) -> "CheckResult":
        """Result of one check from its per-sample deviations.

        A sample passes when its deviation is at most ``tolerance``, so a NaN
        deviation fails.  ``max_deviation`` is the largest deviation above
        zero (0.0 when there is none); NaN never raises it.
        """
        passes = sum(1 for d in deviations if d <= tolerance)
        return cls(name, description, len(deviations), passes, max([0.0, *deviations]), tolerance)

    @property
    def passed(self) -> bool:
        return self.passes == self.samples

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "samples": self.samples,
            "passes": self.passes,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ConstraintReport:
    """Aggregate of all constraint checks from one suite run."""

    checks: tuple[CheckResult, ...]
    sample_count: int
    seed: int

    @classmethod
    def from_deviations(
        cls,
        specs: Sequence[tuple[str, str, float]],
        per_sample: Sequence[Mapping[str, float]],
        sample_count: int,
        seed: int,
    ) -> "ConstraintReport":
        """One :class:`CheckResult` per ``(name, description, tolerance)``
        spec, in spec order, from each sample's deviations by check name."""
        return cls(
            checks=tuple(
                CheckResult.from_deviations(name, description, tol, [s[name] for s in per_sample])
                for name, description, tol in specs
            ),
            sample_count=sample_count,
            seed=seed,
        )

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def max_deviation(self) -> float:
        return max(check.max_deviation for check in self.checks)

    def to_dict(self) -> dict[str, Any]:
        return {
            "checks": [check.to_dict() for check in self.checks],
            "sample_count": self.sample_count,
            "seed": self.seed,
            "passed": self.passed,
        }


def _unit(rng: random.Random) -> float:
    """A uniform draw from (0, 1]."""
    return 1.0 - rng.random()


# ---------------------------------------------------------------- constraints

_KNOWN_TOL = 1e-10

CONSTRAINT_CHECKS = (
    ("known_top_ones", "rows (1,1);(m,n) give P1 = m/(m+n)", _KNOWN_TOL),
    ("known_bottom_ones", "rows (m,n);(1,1) give P1 = m/(m+n)", _KNOWN_TOL),
    ("known_antisymmetric", "rows (n,m);(m,n) give P1 = 1/2", _KNOWN_TOL),
    ("known_equal_columns", "rows (n,n);(m,m) give P1 = 1/2", _KNOWN_TOL),
    ("known_constant", "rows (m,m);(m,m) give P1 = 1/2", _KNOWN_TOL),
    ("row_swap", "swapping the two feature rows leaves P unchanged", 1e-12),
    ("column_swap", "swapping hypothesis columns exchanges P1 and P2", 0.0),
    ("complementarity", "P1 + P2 = 1", 1e-12),
)


@dataclass(frozen=True)
class ConstraintSample:
    """One draw of the constraint suite: the known-value pair ``m, n`` and
    the cells ``(x1, x2, y1, y2)`` of a random 2x2 table, rows first, all
    in (0, 1]."""

    m: float
    n: float
    cells: tuple[float, float, float, float]


def draw_constraint_samples(sample_count: int, seed: int) -> list[ConstraintSample]:
    """The constraint suite's samples for ``seed``: per sample ``m``, ``n``
    and four cells, each uniform on (0, 1].

    Raises:
        ParseError: ``sample_count`` or ``seed`` breaks :func:`suite_arguments`.
    """
    sample_count, seed = suite_arguments(sample_count, seed)
    rng = random.Random(seed)
    return [
        ConstraintSample(_unit(rng), _unit(rng), (_unit(rng), _unit(rng), _unit(rng), _unit(rng)))
        for _ in range(sample_count)
    ]


def check_constraint_sample(sample: ConstraintSample) -> dict[str, float]:
    """Each constraint check's deviation on one sample, by check name.

    - known-value tables: rows ``(1,1);(m,n)`` and ``(m,n);(1,1)`` must give
      ``P(H_1) = m / (m + n)``; rows ``(n,m);(m,n)``, ``(n,n);(m,m)`` and
      ``(m,m);(m,m)`` must give 1/2;
    - row-swap invariance of the random table;
    - column-swap exchange ``P1 <-> P2``;
    - complementarity ``P1 + P2 = 1``.
    """
    m, n = sample.m, sample.n

    def posterior(rows) -> tuple[float, ...]:
        return quantum.posterior_2x2(new_table(rows)).probabilities

    expected = m / (m + n)
    u = sample.cells
    base = posterior([[u[0], u[1]], [u[2], u[3]]])
    swapped_rows = posterior([[u[2], u[3]], [u[0], u[1]]])
    swapped_cols = posterior([[u[1], u[0]], [u[3], u[2]]])
    return {
        "known_top_ones": abs(posterior([[1.0, 1.0], [m, n]])[0] - expected),
        "known_bottom_ones": abs(posterior([[m, n], [1.0, 1.0]])[0] - expected),
        "known_antisymmetric": abs(posterior([[n, m], [m, n]])[0] - 0.5),
        "known_equal_columns": abs(posterior([[n, n], [m, m]])[0] - 0.5),
        "known_constant": abs(posterior([[m, m], [m, m]])[0] - 0.5),
        "row_swap": max(abs(p - q) for p, q in zip(base, swapped_rows)),
        "column_swap": max(abs(swapped_cols[0] - base[1]), abs(swapped_cols[1] - base[0])),
        "complementarity": abs(math.fsum(base) - 1.0),
    }


def verify_constraint_suite(sample_count: int, seed: int) -> ConstraintReport:
    """Randomized verification of the constraints that pin the closed form.

    Draws ``sample_count`` samples with :func:`draw_constraint_samples` and
    checks each with :func:`check_constraint_sample`, against tolerances of
    1e-10 for the known values, 1e-12 for the row swap and
    complementarity, and 0 (exact) for the column swap.

    Returns per-check pass counts and max deviations; raises ParseError
    when ``sample_count`` or ``seed`` breaks :func:`suite_arguments`.
    """
    sample_count, seed = suite_arguments(sample_count, seed)
    samples = draw_constraint_samples(sample_count, seed)
    per_sample = [check_constraint_sample(sample) for sample in samples]
    return ConstraintReport.from_deviations(CONSTRAINT_CHECKS, per_sample, sample_count, seed)


# ----------------------------------------------------------------- cross path

CROSS_PATH_CHECKS = (
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


@dataclass(frozen=True)
class CrossPathSample:
    """One draw of the cross-path suite: a table, overlaps that fit it, and
    the feature its single-feature projection observes."""

    table: ContingencyTable
    overlap: quantum.OverlapMatrix
    feature: int


def _unit_row(rng: random.Random, size: int) -> list[float]:
    """A Gaussian row of ``size`` entries scaled to unit length; a row whose
    squares sum to zero is drawn again."""
    while True:
        row = [rng.gauss(0.0, 1.0) for _ in range(size)]
        norm = math.sqrt(math.fsum(v * v for v in row))
        if norm > 0.0:
            return [v / norm for v in row]


def random_positive_definite_overlap(
    rng: random.Random, n: int, m: int
) -> quantum.OverlapMatrix:
    """Random overlaps ``(G G^T + I) / 2`` per hypothesis, each ``G`` an
    ``m x (m + 1)`` matrix of unit Gaussian rows.

    ``G G^T`` is a Gram matrix with unit diagonal and trace m, so its
    eigenvalues lie in [0, m]: every overlap eigenvalue lies in
    [1/2, (m + 1)/2] and every off-diagonal in [-1/2, 1/2].
    """
    blocks = []
    for _ in range(n):
        g = [_unit_row(rng, m + 1) for _ in range(m)]
        block = [[1.0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i):
                block[i][j] = block[j][i] = math.fsum(p * q for p, q in zip(g[i], g[j])) / 2.0
        blocks.append(block)
    return quantum.OverlapMatrix(blocks)


def _random_table(rng: random.Random, m: int, n: int) -> ContingencyTable:
    x = [[_unit(rng) for _ in range(n)] for _ in range(m)]
    raw = [_unit(rng) for _ in range(n)]
    total = math.fsum(raw)
    return new_table(x, [r / total for r in raw])


def draw_cross_path_samples(sample_count: int, seed: int) -> list[CrossPathSample]:
    """The cross-path suite's samples for ``seed``: per sample a table of
    2-3 features and 2-4 hypotheses with cells in (0, 1] and random
    priors, overlaps from :func:`random_positive_definite_overlap`, and a
    feature index.

    Raises:
        ParseError: ``sample_count`` or ``seed`` breaks :func:`suite_arguments`.
    """
    sample_count, seed = suite_arguments(sample_count, seed)
    rng = random.Random(seed)
    samples = []
    for _ in range(sample_count):
        m = rng.randrange(2, 4)
        n = rng.randrange(2, 5)
        table = _random_table(rng, m, n)
        overlap = random_positive_definite_overlap(rng, n, m)
        samples.append(CrossPathSample(table, overlap, rng.randrange(m)))
    return samples


def _quadratic_forms(u: np.ndarray, c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``u[k] @ c[k] @ w[k]`` for every k of a ``(K, m)``, ``(K, m, m)``,
    ``(K, m)`` stack."""
    return (u[:, None, :] @ c @ w[:, :, None])[:, 0, 0]


def check_cross_path_samples(samples: Sequence[CrossPathSample]) -> list[dict[str, float]]:
    """Each sample's deviation per cross-path check, by check name, in
    sample order.

    - the state-vector posterior matches the block-sum posterior;
    - orthonormality residual of the constructed basis;
    - back-substitution residual ``A^T b - sqrt(x)``;
    - the sum of squared amplitudes matches the explicit double sum
      ``sum sqrt(x_i x_j) c_ij``;
    - the single-feature projection path matches the direct single-feature
      update;
    - complementarity of the state-vector posterior.

    The basis, amplitudes, residuals and squared readout run once per
    feature count, on the ``(K, m, m)`` stack of every hypothesis of the
    samples with that count, through the same code as
    :func:`qlr.wavefunction.posterior_via_wavefunction`; each sample's
    basis is built once.  The block-sum side stays one
    :func:`qlr.quantum.posterior_general` call per sample, the way users
    call it.
    """
    deviations: list[dict[str, float]] = [{} for _ in samples]
    for m in sorted({sample.table.m for sample in samples}):
        group = [k for k, sample in enumerate(samples) if sample.table.m == m]
        stacked = quantum.OverlapMatrix(np.concatenate([samples[k].overlap.c for k in group]))
        roots = np.concatenate([np.sqrt(np.array(samples[k].table.x).T) for k in group])
        basis = gram_schmidt_basis(stacked)
        b = stacked_amplitudes(basis, roots)
        squares = b * b
        norms = np.sum(squares, axis=1)
        back = (basis.matrices.transpose(0, 2, 1) @ b[:, :, None])[:, :, 0] - roots
        back = np.abs(back).max(axis=1)
        double_sums = _quadratic_forms(roots, stacked.c, roots)

        lo = 0
        for k in group:
            table, feature = samples[k].table, samples[k].feature
            hi = lo + table.n
            wf = squared_readout(table.priors, norms[lo:hi])
            general = quantum.posterior_general(table, samples[k].overlap)
            projected = posterior_independent(table, feature)
            direct = [p * v for p, v in zip(table.priors, table.x[feature])]
            total = math.fsum(direct)
            deviations[k] = {
                "paths_agree": max(
                    abs(p - q) for p, q in zip(wf.probabilities, general.probabilities)
                ),
                "orthonormality": float(basis.hypothesis_residuals[lo:hi].max()),
                "back_substitution": float(back[lo:hi].max()),
                "normalization": abs(
                    math.fsum(squares[lo:hi].ravel().tolist())
                    - math.fsum(double_sums[lo:hi].tolist())
                ),
                "projection_single_feature": max(
                    abs(p - d / total) for p, d in zip(projected.probabilities, direct)
                ),
                "complementarity": abs(math.fsum(wf.probabilities) - 1.0),
            }
            lo = hi
    return deviations


def cross_path_suite(sample_count: int, seed: int) -> ConstraintReport:
    """Randomized agreement checks between the two posterior paths.

    Draws ``sample_count`` samples with :func:`draw_cross_path_samples` and
    checks them with :func:`check_cross_path_samples`, against tolerances
    of ``RESIDUAL_TOL`` (1e-10) for the two paths, the two residuals and
    the normalization, 1e-14 for the single-feature projection and 1e-12
    for complementarity.  Raises ParseError when ``sample_count`` or
    ``seed`` breaks :func:`suite_arguments`.
    """
    sample_count, seed = suite_arguments(sample_count, seed)
    per_sample = check_cross_path_samples(draw_cross_path_samples(sample_count, seed))
    return ConstraintReport.from_deviations(CROSS_PATH_CHECKS, per_sample, sample_count, seed)
