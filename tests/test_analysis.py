"""``qlr.analyze``, the one route from a table to every estimator ``qlr
analyze`` reports: each posterior is a direct call of its kernel, bit for
bit; a selector the table cannot support is a ``skipped`` warning under
``all`` and the same ``Unsupported`` when named; and the solve's
diagnostics are the solved pair."""

import random

import pytest

from qlr import (
    Analysis,
    ContingencyTable,
    CountTable,
    OverlapMatrix,
    Unsupported,
    analyze,
    bayes_posterior,
    from_counts,
    hbar_moderated_coefficients,
    mean_frequency_posterior,
    mean_range_posterior,
    naive_posterior,
    new_table,
    overlap_coefficients,
    posterior_2x2,
    posterior_via_wavefunction,
)

HBARS = (None, 0.0, 0.7)


def _priors(rng: random.Random, n: int) -> list[float]:
    weights = [1.0 - rng.random() for _ in range(n)]
    return [w / sum(weights) for w in weights]


def _probability_table(rng: random.Random, m: int, n: int) -> ContingencyTable:
    return new_table([[1.0 - rng.random() for _ in range(n)] for _ in range(m)], _priors(rng, n))


def _count_table(rng: random.Random, m: int, n: int, zero: bool) -> CountTable:
    populations = [rng.randint(1, 30) for _ in range(n)]
    counts = [[rng.randint(1, p) for p in populations] for _ in range(m)]
    if zero:
        counts[rng.randrange(m)][rng.randrange(n)] = 0
    return CountTable(counts, populations)


def _tables() -> list[tuple[str, ContingencyTable | CountTable]]:
    rng = random.Random(20)
    tables = []
    for m, n in ((2, 2), (2, 3), (3, 3)):
        tables.extend((f"prob{m}x{n}-{k}", _probability_table(rng, m, n)) for k in range(3))
    for m, n, zero in ((2, 2, False), (2, 2, True), (2, 3, False), (3, 2, True)):
        tables.extend(
            (f"counts{m}x{n}{'-zero' if zero else ''}-{k}", _count_table(rng, m, n, zero))
            for k in range(2)
        )
    tables += [
        # A positive-definite solved pair, so the state-vector method runs.
        ("prob2x2-pd", new_table([[0.9, 0.8], [0.95, 0.85]], [0.4, 0.6])),
        # The solve and the closed form underflow or overflow here.
        ("prob2x2-tiny158", new_table([[1e-158, 0.5], [1e-158, 0.5]])),
        ("prob2x2-tiny200", new_table([[1e-200, 0.5], [1e-200, 0.5]])),
    ]
    return tables


TABLES = _tables()


def _selectors(m: int) -> list[str]:
    """``all`` expanded, in report order."""
    return [*(f"bayes:{k}" for k in range(1, m + 1)), "naive", "mean-freq", "mean-range",
            "quantum", "wavefunction"]


def _kernel(table, selector: str, hbar):
    """The selector's posterior by a direct call of its kernel."""
    if selector in ("mean-freq", "mean-range"):
        if not isinstance(table, CountTable):
            raise Unsupported("needs counts")
        mean = mean_frequency_posterior if selector == "mean-freq" else mean_range_posterior
        return mean(table)
    prob = from_counts(table) if isinstance(table, CountTable) else table
    if selector.startswith("bayes:"):
        return bayes_posterior(prob, int(selector[len("bayes:"):]) - 1)
    if selector == "naive":
        return naive_posterior(prob)
    if selector == "quantum":
        return posterior_2x2(prob, hbar)
    solution = overlap_coefficients(prob)
    pair = (solution.c1, solution.c2)
    if hbar is not None:
        pair = hbar_moderated_coefficients(*pair, hbar)
    return posterior_via_wavefunction(prob, OverlapMatrix.from_pair(*pair))


def _bits(posterior) -> tuple:
    return posterior.method, posterior.argmax_index, [p.hex() for p in posterior.probabilities]


@pytest.mark.parametrize("hbar", HBARS, ids=lambda h: f"hbar={h}")
@pytest.mark.parametrize("table", [t for _, t in TABLES], ids=[name for name, _ in TABLES])
def test_each_posterior_is_its_kernel_and_each_refusal_a_skip(table, hbar):
    analysis = analyze(table, hbar=hbar)
    assert isinstance(analysis, Analysis)
    reported, skipped = [], []
    for selector in _selectors(table.m):
        try:
            expected = _kernel(table, selector, hbar)
        except Unsupported as refusal:
            assert selector not in analysis.posteriors
            with pytest.raises(Unsupported) as caught:
                analyze(table, [selector], hbar)
            assert type(caught.value) is type(refusal)
            skipped.append(f"skipped {selector}: {caught.value}")
            continue
        reported.append(selector)
        assert _bits(analysis.posteriors[selector]) == _bits(expected)
        alone = analyze(table, [selector], hbar).posteriors
        assert list(alone) == [selector]
        assert _bits(alone[selector]) == _bits(expected)
    assert list(analysis.posteriors) == reported
    assert [w for w in analysis.warnings if w.startswith("skipped ")] == skipped
    assert ("overlap disabled at hbar=0" in analysis.warnings) == (hbar == 0.0)


@pytest.mark.parametrize("hbar", HBARS, ids=lambda h: f"hbar={h}")
@pytest.mark.parametrize("table", [t for _, t in TABLES], ids=[name for name, _ in TABLES])
def test_diagnostics_are_the_solved_pair(table, hbar):
    diagnostics = analyze(table, hbar=hbar).diagnostics
    try:
        prob = from_counts(table) if isinstance(table, CountTable) else table
        solution = overlap_coefficients(prob)
    except Unsupported:
        assert diagnostics is None
        return
    assert diagnostics["c1"] == solution.c1 and diagnostics["c2"] == solution.c2
    assert diagnostics["within_unit_interval"] == solution.within_unit_interval
    assert ("hbar" in diagnostics) == (hbar is not None)


def test_posteriors_keep_first_request_order():
    table = new_table([[0.3, 0.4], [0.6, 0.2]])
    assert list(analyze(table, ["naive", " bayes:2", "all", "naive"]).posteriors) == [
        "naive",
        "bayes:2",
        "bayes:1",
        "quantum",
    ]
