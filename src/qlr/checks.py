"""Result types shared by the randomized self-check suites.

:func:`qlr.quantum.verify_constraint_suite` and
:func:`qlr.wavefunction.cross_path_suite` both feed per-sample deviations
into a :class:`CheckAccumulator` and report a :class:`ConstraintReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one randomized constraint check."""

    name: str
    description: str
    samples: int
    passes: int
    max_deviation: float
    tolerance: float

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


@dataclass
class CheckAccumulator:
    """Running pass count and worst deviation of one check."""

    name: str
    description: str
    tolerance: float
    samples: int = 0
    passes: int = 0
    max_deviation: float = 0.0

    def record(self, deviation: float) -> None:
        self.samples += 1
        if deviation <= self.tolerance:
            self.passes += 1
        if deviation > self.max_deviation:
            self.max_deviation = deviation

    def result(self) -> CheckResult:
        return CheckResult(
            self.name,
            self.description,
            self.samples,
            self.passes,
            self.max_deviation,
            self.tolerance,
        )


def accumulators(*specs: tuple[str, str, float]) -> dict[str, CheckAccumulator]:
    """One accumulator per ``(name, description, tolerance)``, keyed by name
    in the given order."""
    return {name: CheckAccumulator(name, description, tol) for name, description, tol in specs}
