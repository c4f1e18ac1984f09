"""One table through every estimator ``qlr analyze`` reports: :func:`analyze`
returns an :class:`Analysis`, which the command line renders."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterable

from .classical import PosteriorDistribution, bayes_posterior, naive_posterior
from .classical import mean_frequency_posterior, mean_range_posterior
from .errors import BadIndex, OverlapUnderflow, ParseError, Unsupported
from .quantum import OverlapMatrix, hbar_moderated_coefficients, moderation_scale
from .quantum import overlap_coefficients, posterior_2x2
from .tables import ContingencyTable, CountTable, from_counts
from .wavefunction import positive_definite, posterior_via_wavefunction

_INT_RE = re.compile(r"^[+-]?\d+$")

# Expansion order of ``all`` after the ``bayes:<k>`` selectors.
_BASE_METHODS = ("naive", "mean-freq", "mean-range", "quantum", "wavefunction")


@dataclass(frozen=True)
class Analysis:
    """Each selector's posterior in first-request order, the solved pair's
    diagnostics (None without a successful solve), and the warnings in order."""

    posteriors: dict[str, PosteriorDistribution]
    diagnostics: dict[str, Any] | None
    warnings: tuple[str, ...]


def _expand_selectors(methods: Iterable[str], m: int) -> tuple[list[str], set[str]]:
    """Canonical selectors in first-request order, and the set named
    explicitly (skipping one of those is an error, not a warning)."""
    order: dict[str, None] = {}
    explicit: set[str] = set()
    for raw in methods:
        sel = raw.strip()
        if sel == "all":
            order.update(dict.fromkeys([*(f"bayes:{k}" for k in range(1, m + 1)), *_BASE_METHODS]))
            continue
        if sel.startswith("bayes:"):
            suffix = sel[len("bayes:"):]
            try:
                feature = int(suffix) if _INT_RE.match(suffix) else 0
            except ValueError:  # more digits than the interpreter converts
                raise ParseError(
                    f"--method bayes feature index of {len(suffix)} digits is too long"
                ) from None
            if feature < 1:
                raise ParseError(f"--method bayes needs a 1-based feature index, got {raw!r}")
            sel = f"bayes:{feature}"
        elif sel == "bayes":
            raise ParseError("--method bayes needs a feature index, e.g. bayes:1")
        elif sel not in _BASE_METHODS:
            raise ParseError(f"unknown method {raw!r}")
        order[sel] = None
        explicit.add(sel)
    return list(order), explicit


def _solve(table: ContingencyTable, hbar: float | None,
           warnings: list[str]) -> tuple[OverlapMatrix, dict[str, Any]]:
    """The solved pair, moderated under ``hbar``, as an overlap, and its
    diagnostics; warns when the solved pair leaves the unit interval."""
    solution = overlap_coefficients(table)
    pair = (solution.c1, solution.c2)
    if hbar is not None:
        pair = hbar_moderated_coefficients(*pair, hbar)
    overlap = OverlapMatrix.from_pair(*pair)
    flags = positive_definite(overlap)
    diagnostics = {"c1": solution.c1, "c2": solution.c2,
                   "within_unit_interval": solution.within_unit_interval,
                   "gram_positive_definite": list(flags)}
    if hbar is not None:
        diagnostics.update(hbar=hbar, c1_moderated=pair[0], c2_moderated=pair[1])
    if not solution.within_unit_interval:
        warnings.append(
            f"overlap coefficient magnitude >= 1 (c1={solution.c1:.10g}, c2={solution.c2:.10g})"
            + ("" if all(flags) else "; state-vector cross-check may be unavailable")
        )
    return overlap, diagnostics


def analyze(table: CountTable | ContingencyTable, methods: Iterable[str] = ("all",),
            hbar: float | None = None) -> Analysis:
    """Every selected estimator on ``table``, under its priors.

    ``methods`` are ``qlr analyze --method`` selectors.  All but the mean
    estimators run on the probability view, built on first use; ``quantum``
    and ``wavefunction`` share one solve of the 2x2 pair, moderated under
    ``hbar``.  An ``Unsupported`` is a ``skipped <selector>: ...`` warning
    under ``all`` and raised for a selector named explicitly.  Raises
    InvalidHbar for a bad ``hbar`` and ParseError for a bad selector.
    """
    if hbar is not None:
        moderation_scale(hbar)
    selectors, explicit = _expand_selectors(methods, table.m)
    warnings: list[str] = []
    if hbar == 0.0 and {"quantum", "wavefunction"} & set(selectors):
        warnings.append("overlap disabled at hbar=0")
    posteriors: dict[str, PosteriorDistribution] = {}
    prob_table = overlap = diagnostics = None
    for selector in selectors:
        try:
            if selector in ("mean-freq", "mean-range"):
                if not isinstance(table, CountTable):
                    raise Unsupported(f"{selector} needs integer counts with populations")
                mean = mean_frequency_posterior if selector == "mean-freq" else mean_range_posterior
                posteriors[selector] = mean(table)
                continue
            if prob_table is None:
                prob_table = from_counts(table) if isinstance(table, CountTable) else table
            if selector.startswith("bayes:"):
                feature = int(selector[len("bayes:"):])
                if feature > prob_table.m:
                    raise BadIndex(
                        f"feature index {feature} out of range for {prob_table.m} features"
                    )
                posteriors[selector] = bayes_posterior(prob_table, feature - 1)
            elif selector == "naive":
                posteriors[selector] = naive_posterior(prob_table)
            else:
                if overlap is None:
                    try:
                        overlap, diagnostics = _solve(prob_table, hbar, warnings)
                    except OverlapUnderflow:  # posterior_2x2 refuses it, or needs none at hbar=0
                        if selector == "wavefunction":
                            raise
                posteriors[selector] = (posterior_2x2(prob_table, hbar) if selector == "quantum"
                                        else posterior_via_wavefunction(prob_table, overlap))
        except Unsupported as exc:
            if selector in explicit:
                raise
            warnings.append(f"skipped {selector}: {exc}")
    return Analysis(posteriors, diagnostics, tuple(warnings))
