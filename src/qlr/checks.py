"""Randomized self-check suites and the report types they produce.

The suites of :data:`SUITES` stand behind ``qlr verify``:

- :func:`verify_constraint_suite` checks the constraints behind the 2x2
  closed form of :func:`qlr.quantum.posterior_2x2` (known-value tables,
  row/column exchange symmetry, complementarity), which pin it only inside
  the ansatz ``c_a = K * p_a**alpha * p_b**beta``: naive-Bayes blocks
  ``x*y`` and comonotone blocks ``min(x, y)`` pass them too;
- :func:`cross_path_suite` rebuilds the block-sum posterior of
  :func:`qlr.quantum.posterior_general` through the state-vector path of
  :mod:`qlr.wavefunction` and checks that the two agree.

Each suite is a check table, a public seeded draw and a check of one
sample (:func:`draw_constraint_samples` with :func:`check_constraint_sample`,
:func:`draw_cross_path_samples` with :func:`check_cross_path_sample`), which
one runner maps over the draw into a :class:`ConstraintReport`.  The draws
come from ``random.Random(seed)`` through ``random()``, ``randrange()`` and
``gauss()`` only, whose streams are the same on every supported Python.
Every float sum whose result is reported is a ``math.fsum``, since the
built-in ``sum`` of floats rounds differently from Python 3.12 on.

The suites read the kernels they check as attributes of
:mod:`qlr.quantum`, :mod:`qlr.classical` and :mod:`qlr.wavefunction` at
call time, so a kernel patched in its home module is the one the suites
check.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from typing import Any, Callable, Mapping, Sequence

from . import classical, quantum, wavefunction
from .errors import ParseError
from .tables import ContingencyTable, is_integer, new_table
from .wavefunction import RESIDUAL_TOL, Factor


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
        return {**asdict(self), "passed": self.passed}


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

    def to_dict(self) -> dict[str, Any]:
        return {
            "checks": [check.to_dict() for check in self.checks],
            "sample_count": self.sample_count,
            "seed": self.seed,
            "passed": self.passed,
        }


def _run_suite(
    checks: Sequence[tuple[str, str, float]],
    draw: Callable[[int, int], Sequence[Any]],
    check_sample: Callable[[Any], Mapping[str, float]],
    sample_count: int,
    seed: int,
) -> ConstraintReport:
    """The report of ``check_sample`` on each of ``draw(sample_count, seed)``
    against ``checks``; raises ParseError as :func:`suite_arguments` does."""
    sample_count, seed = suite_arguments(sample_count, seed)
    per_sample = [check_sample(sample) for sample in draw(sample_count, seed)]
    return ConstraintReport.from_deviations(checks, per_sample, sample_count, seed)


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
    """Randomized verification of the constraints behind the closed form.

    Draws ``sample_count`` samples with :func:`draw_constraint_samples` and
    checks each with :func:`check_constraint_sample`, against tolerances of
    1e-10 for the known values, 1e-12 for the row swap and
    complementarity, and 0 (exact) for the column swap.

    Returns per-check pass counts and max deviations; raises ParseError
    when ``sample_count`` or ``seed`` breaks :func:`suite_arguments`.
    """
    return _run_suite(
        CONSTRAINT_CHECKS, draw_constraint_samples, check_constraint_sample, sample_count, seed
    )


# ----------------------------------------------------------------- cross path

CROSS_PATH_CHECKS = (
    ("paths_agree", "state-vector posterior equals block-sum posterior", RESIDUAL_TOL),
    (
        "orthonormality",
        "L L^T = c for every hypothesis, so A = L^-1 gives A c A^T = I",
        RESIDUAL_TOL,
    ),
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


def _back_substitute(factor: Factor, b: Sequence[float]) -> list[float]:
    """The solution ``y`` of ``L.T @ y = b`` for the lower-triangular rows
    ``factor`` of ``L``: ``A.T @ b`` with ``A = L^-1``, formed without the
    inverse."""
    m = len(b)
    y = [0.0] * m
    for k in reversed(range(m)):
        s = b[k]
        for i in range(k + 1, m):
            s -= factor[i][k] * y[i]
        y[k] = s / factor[k][k]
    return y


def check_cross_path_sample(sample: CrossPathSample) -> dict[str, float]:
    """Each cross-path check's deviation on one sample, by check name.

    - the state-vector posterior of
      :func:`qlr.wavefunction.posterior_via_wavefunction` matches the
      block-sum posterior of :func:`qlr.quantum.posterior_general`;
    - orthonormality: the largest entry of ``L L^T - c`` over the factors
      ``L`` of the basis ``A = L^-1``, which is ``A c A^T = I`` without the
      inverse;
    - back-substitution residual ``A^T b - sqrt(x)``, solving
      ``L^T y = b``;
    - the sum of squared amplitudes matches the explicit double sum
      ``sum sqrt(x_i x_j) c_ij``;
    - the single-feature projection path of
      :func:`qlr.wavefunction.posterior_independent` matches the direct
      single-feature update of :func:`qlr.classical.bayes_posterior`;
    - complementarity of the state-vector posterior.

    Every posterior is one call of its public function, the way users call
    it; the suite forms none of its own.  The three identity checks read
    the sample's overlap ``c`` as it is and test the factors of
    :func:`qlr.wavefunction.cholesky_factors` and the amplitudes of
    :func:`qlr.wavefunction.amplitudes` against it, without either
    posterior.
    """
    table, overlap = sample.table, sample.overlap
    squares, forms, gaps, misses = [], [], [], []
    for a, (c, factor) in enumerate(zip(overlap.c, wavefunction.cholesky_factors(overlap))):
        roots = [math.sqrt(row[a]) for row in table.x]
        b = wavefunction.amplitudes(factor, roots)
        for i, (row, left, root) in enumerate(zip(c, factor, roots)):
            for j, (cij, right, other) in enumerate(zip(row, factor, roots)):
                forms.append(root * cij * other)
                # fsum is correctly rounded and p * q == q * p, so entry
                # (j, i) of L L^T is entry (i, j): it is formed once, below
                # the diagonal, and compared with both c[i][j] and c[j][i].
                if j < i:
                    entry = math.fsum([p * q for p, q in zip(left, right)])
                    gaps.append(abs(entry - cij))
                    gaps.append(abs(entry - c[j][i]))
                elif j == i:
                    gaps.append(abs(math.fsum([p * p for p in left]) - cij))
        misses.extend(abs(y - root) for y, root in zip(_back_substitute(factor, b), roots))
        squares.extend(v * v for v in b)
    wf = wavefunction.posterior_via_wavefunction(table, overlap)
    general = quantum.posterior_general(table, overlap)
    projected = wavefunction.posterior_independent(table, sample.feature)
    direct = classical.bayes_posterior(table, sample.feature)
    return {
        "paths_agree": max(abs(p - q) for p, q in zip(wf.probabilities, general.probabilities)),
        "orthonormality": max(gaps),
        "back_substitution": max(misses),
        "normalization": abs(math.fsum(squares) - math.fsum(forms)),
        "projection_single_feature": max(
            abs(p - q) for p, q in zip(projected.probabilities, direct.probabilities)
        ),
        "complementarity": abs(math.fsum(wf.probabilities) - 1.0),
    }


def cross_path_suite(sample_count: int, seed: int) -> ConstraintReport:
    """Randomized agreement checks between the two posterior paths.

    Draws ``sample_count`` samples with :func:`draw_cross_path_samples` and
    checks each with :func:`check_cross_path_sample`, against tolerances
    of ``RESIDUAL_TOL`` (1e-10) for the two paths, the two residuals and
    the normalization, 1e-14 for the single-feature projection and 1e-12
    for complementarity.  Raises ParseError when ``sample_count`` or
    ``seed`` breaks :func:`suite_arguments`.
    """
    return _run_suite(
        CROSS_PATH_CHECKS, draw_cross_path_samples, check_cross_path_sample, sample_count, seed
    )


# The suites behind ``qlr verify``, by report key, in report order.
SUITES = {"constraints": verify_constraint_suite, "cross_path": cross_path_suite}
