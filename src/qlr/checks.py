"""Result types shared by the randomized self-check suites.

:func:`qlr.quantum.verify_constraint_suite` and
:func:`qlr.wavefunction.cross_path_suite` both collect per-sample deviations
for each check, build one :class:`CheckResult` per check from them, and
report a :class:`ConstraintReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence


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
