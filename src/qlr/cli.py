"""Command-line front end: load tables, run estimators, emit reports.

Input formats
-------------
CSV: header row names the hypotheses (first cell is a corner label and is
ignored); each following row is a feature label plus one value per
hypothesis.  If the final row's label is ``__population__`` every value in
the file must be a nonnegative integer and the file is read as counts;
otherwise values are conditional probabilities in (0, 1].

JSON: an object with ``"kind": "probabilities"`` (fields ``values``,
optional ``features``/``hypotheses``/``priors``) or ``"kind": "counts"``
(fields ``counts``, ``populations``, optional labels).

Exit codes
----------
0 success; 1 ``verify`` found a failing check; otherwise the ``exit_code``
of the :class:`~qlr.errors.QlrError` raised: 2 invalid input (unparseable
file, out-of-range values, bad flags), 3 input that is valid but cannot
support the request (wrong shape for an estimator, probability-only file
given to ``ranges``, zero counts under a probability-based method).  An
unreadable file exits 2.  Under ``--method all`` an exit-3 failure of one
estimator becomes a ``skipped <method>: ...`` warning instead.

JSON output is canonical: keys sorted, floats carrying 10 significant
digits, so identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from typing import Any, Sequence

from . import __version__
from .checks import cross_path_suite, verify_constraint_suite
from .classical import (
    bayes_posterior,
    mean_frequency_posterior,
    mean_range_posterior,
    naive_posterior,
)
from .errors import BadIndex, InvalidPriors, NotCounts, ParseError, QlrError, Unsupported
from .quantum import (
    OverlapMatrix,
    hbar_moderated_coefficients,
    moderation_scale,
    overlap_coefficients,
    posterior_2x2,
)
from .tables import ContingencyTable, CountTable, from_counts, intersection_range, new_table
from .wavefunction import posterior_via_wavefunction

_INT_RE = re.compile(r"^[+-]?\d+$")
_POPULATION_LABEL = "__population__"

# Expansion order of --method all; also the deterministic report order.
_BASE_METHODS = ("naive", "mean-freq", "mean-range", "quantum", "wavefunction")


@dataclass(frozen=True)
class _LoadedInput:
    """A parsed input file: always labels, counts when the file carries them,
    and a probability matrix when the file carries that instead.  ``values``
    and ``file_priors`` hold the file's numbers as parsed; :func:`new_table`
    applies the cell and prior rules to them."""

    path: str
    kind: str
    features: tuple[str, ...]
    hypotheses: tuple[str, ...]
    values: list[list[float]] | None = None
    count_table: CountTable | None = None
    file_priors: list[float] | None = None

    @property
    def m(self) -> int:
        return len(self.features)

    @property
    def n(self) -> int:
        return len(self.hypotheses)


def _parse_number(cell: str, line: int, column: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"{cell!r} is not a number", line=line, column=column) from None


def _parse_integer(cell: str, line: int, column: int) -> int:
    if not _INT_RE.match(cell):
        raise ParseError(
            f"{cell!r} is not an integer (count files allow integers only)",
            line=line,
            column=column,
        )
    try:
        return int(cell)
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(f"integer of {len(cell)} digits is too long", line, column) from None


def _parse_csv(text: str, path: str) -> _LoadedInput:
    reader = csv.reader(io.StringIO(text))
    rows: list[tuple[int, list[str]]] = []
    for row in reader:
        cells = [cell.strip() for cell in row]
        if not any(cells):
            continue
        rows.append((reader.line_num, cells))
    if not rows:
        raise ParseError("empty file")
    header_line, header = rows[0]
    if len(header) < 2:
        raise ParseError(
            "header must name at least one hypothesis column", line=header_line
        )
    hypotheses = tuple(header[1:])
    body = rows[1:]
    if not body:
        raise ParseError("no feature rows after the header", line=header_line)
    for line, cells in body:
        if len(cells) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, got {len(cells)}", line=line
            )
    for line, cells in body[:-1]:
        if cells[0] == _POPULATION_LABEL:
            raise ParseError(
                f"{_POPULATION_LABEL} must be the last row", line=line
            )

    is_counts = body[-1][1][0] == _POPULATION_LABEL
    if is_counts:
        feature_rows, (pop_line, pop_cells) = body[:-1], body[-1]
        if not feature_rows:
            raise ParseError("no feature rows before the population row", line=pop_line)
        features = tuple(cells[0] for _, cells in feature_rows)
        counts = [
            [_parse_integer(cell, line, col + 2) for col, cell in enumerate(cells[1:])]
            for line, cells in feature_rows
        ]
        populations = [
            _parse_integer(cell, pop_line, col + 2)
            for col, cell in enumerate(pop_cells[1:])
        ]
        table = CountTable(counts, populations)
        return _LoadedInput(path, "counts", features, hypotheses, count_table=table)

    features = tuple(cells[0] for _, cells in body)
    values = [
        [_parse_number(cell, line, col + 2) for col, cell in enumerate(cells[1:])]
        for line, cells in body
    ]
    return _LoadedInput(path, "probabilities", features, hypotheses, values=values)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _parse_json(text: str, path: str) -> _LoadedInput:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested deeper than the recursion limit") from None
    except ValueError:  # an integer with more digits than the interpreter converts
        raise ParseError("invalid JSON: an integer is too long") from None
    _require(isinstance(data, dict), "top-level JSON value must be an object")
    kind = data.get("kind")
    _require(
        kind in ("probabilities", "counts"),
        'JSON input needs "kind": "probabilities" or "counts"',
    )

    def matrix(key: str, want_int: bool) -> list[list]:
        rows = data.get(key)
        _require(
            isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows),
            f'"{key}" must be a non-empty list of rows',
        )
        width = len(rows[0])
        for r in rows:
            _require(len(r) == width, f'all "{key}" rows must have equal length')
            for v in r:
                if want_int:
                    _require(
                        isinstance(v, int) and not isinstance(v, bool),
                        f'"{key}" entries must be integers',
                    )
                else:
                    _require(
                        isinstance(v, (int, float)) and not isinstance(v, bool),
                        f'"{key}" entries must be numbers',
                    )
        return rows

    def labels(key: str, fallback_prefix: str, count: int) -> tuple[str, ...]:
        raw = data.get(key)
        if raw is None:
            return tuple(f"{fallback_prefix}{k + 1}" for k in range(count))
        _require(
            isinstance(raw, list) and all(isinstance(s, str) for s in raw),
            f'"{key}" must be a list of strings',
        )
        _require(len(raw) == count, f'"{key}" must have {count} entries')
        return tuple(raw)

    if kind == "counts":
        counts = matrix("counts", want_int=True)
        pops = data.get("populations")
        _require(
            isinstance(pops, list)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in pops),
            '"populations" must be a list of integers',
        )
        table = CountTable(counts, pops)
        return _LoadedInput(
            path,
            "counts",
            labels("features", "D", table.m),
            labels("hypotheses", "H", table.n),
            count_table=table,
        )

    values = matrix("values", want_int=False)
    priors = data.get("priors")
    if priors is not None:
        _require(
            isinstance(priors, list)
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in priors),
            '"priors" must be a list of numbers',
        )
    return _LoadedInput(
        path,
        "probabilities",
        labels("features", "D", len(values)),
        labels("hypotheses", "H", len(values[0])),
        values=values,
        file_priors=priors,
    )


def _load_input(path: str) -> _LoadedInput:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"file is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
            f"at offset {exc.start}"
        ) from None
    if path.lower().endswith(".json"):
        return _parse_json(text, path)
    return _parse_csv(text, path)


def _parse_priors_flag(raw: str | None, n: int) -> list[float] | None:
    if raw is None:
        return None
    parts = raw.split(",")
    values = []
    for part in parts:
        try:
            values.append(float(part))
        except ValueError:
            raise ParseError(f"--priors entry {part.strip()!r} is not a number") from None
    if len(values) != n:
        raise InvalidPriors(f"--priors needs {n} comma-separated values, got {len(values)}")
    return values


def _quantize(value: Any) -> Any:
    """Round every float to 10 significant digits, recursively.

    Applied before serialization so that parse + re-serialize round-trips
    byte-identically.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {k: _quantize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_quantize(v) for v in value]
    return value


def render_json(report: dict) -> str:
    """Canonical JSON: sorted keys, 2-space indent, 10-significant-digit
    floats, trailing newline."""
    return json.dumps(_quantize(report), sort_keys=True, indent=2) + "\n"


def _format_float(value: float) -> str:
    return f"{value:.10g}"


def render_text(report: dict) -> str:
    """Plain-text report, rendered from the same dict as :func:`render_json`."""
    command = report["command"]
    lines = [f"qlr {command} (version {report['version']})"]
    if command == "verify":
        lines[0] += f": samples={report['samples']} seed={report['seed']}"
        for key in ("constraints", "cross_path"):
            for check in report[key]["checks"]:
                lines.append(
                    f"{'PASS' if check['passed'] else 'FAIL'} "
                    f"{key.replace('_', '-')}/{check['name']}: "
                    f"max deviation {_format_float(check['max_deviation'])} "
                    f"(tolerance {_format_float(check['tolerance'])}, "
                    f"{check['passes']}/{check['samples']} samples)"
                )
        lines.append("result: " + ("all checks passed" if report["passed"] else "FAILURES detected"))
        return "\n".join(lines) + "\n"

    ranges = [
        f"{entry['hypothesis']}: {' & '.join(entry['features'])} "
        f"in [{entry['lo']}, {entry['hi']}]"
        for entry in report.get("ranges", [])
    ]
    if command == "ranges":
        return "\n".join(lines + ranges) + "\n"

    echo = report["input"]
    lines.append(f"input: {echo['path']} ({echo['kind']})")
    lines.append("features: " + ", ".join(echo["features"]))
    lines.append("hypotheses: " + ", ".join(echo["hypotheses"]))
    if "populations" in echo:
        lines.append("populations: " + ", ".join(str(v) for v in echo["populations"]))
    lines.append("priors: " + ", ".join(_format_float(v) for v in echo["priors"]))
    if ranges:
        lines.append("ranges:")
        lines.extend(f"  {line}" for line in ranges)
    lines.append("posteriors:")
    for selector in sorted(report["methods"]):
        entry = report["methods"][selector]
        probs = "  ".join(
            f"{h}={_format_float(p)}"
            for h, p in zip(echo["hypotheses"], entry["probabilities"])
        )
        lines.append(f"  {selector:<14} {probs}  argmax={entry['argmax']}")
    diag = report.get("diagnostics")
    if diag is not None:
        labels = {"c1": "c1", "c2": "c2", "hbar": "hbar",
                  "c1_moderated": "c1'", "c2_moderated": "c2'"}
        parts = [f"{label}={_format_float(diag[key])}"
                 for key, label in labels.items() if key in diag]
        parts.append("within unit interval: " + ("yes" if diag["within_unit_interval"] else "no"))
        lines.append("diagnostics: " + "  ".join(parts))
    if report["warnings"]:
        lines.append("warnings:")
        lines.extend(f"  - {warning}" for warning in report["warnings"])
    return "\n".join(lines) + "\n"


def _expand_selectors(raw_methods: Sequence[str], m: int) -> tuple[list[str], set[str]]:
    """Canonical selectors in first-request order, and the set the user named
    explicitly (skipping one of those is an error, not a warning)."""
    order: dict[str, None] = {}
    explicit: set[str] = set()
    for raw in raw_methods:
        sel = raw.strip()
        if sel == "all":
            order.update(dict.fromkeys([*(f"bayes:{k}" for k in range(1, m + 1)),
                                        *_BASE_METHODS]))
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
                raise ParseError(
                    f"--method bayes needs a 1-based feature index, got {raw!r}"
                )
            sel = f"bayes:{feature}"
        elif sel == "bayes":
            raise ParseError("--method bayes needs a feature index, e.g. bayes:1")
        elif sel not in _BASE_METHODS:
            raise ParseError(f"unknown method {raw!r}")
        order[sel] = None
        explicit.add(sel)
    return list(order), explicit


class _AnalysisRun:
    """Shared state while executing one analyze command."""

    def __init__(self, loaded: _LoadedInput, priors_flag: list[float] | None,
                 hbar: float | None):
        self.loaded = loaded
        self.priors_flag = priors_flag
        self.hbar = hbar
        self.warnings: list[str] = []
        # The report's diagnostics block; set by the first successful solve.
        self.diagnostics: dict[str, Any] | None = None

    @cached_property
    def prob_table(self) -> ContingencyTable:
        """The probability-matrix view of the input, built on first use.

        For counts input a zero count makes this view unavailable; that is a
        capability gap of the request, not a defect of the file, so it is
        reported as Unsupported.
        """
        loaded = self.loaded
        if loaded.kind == "counts":
            if any(0 in row for row in loaded.count_table.counts):
                raise Unsupported("probability-based methods need nonzero counts")
            base = from_counts(
                loaded.count_table,
                features=loaded.features,
                hypotheses=loaded.hypotheses,
            )
            return base if self.priors_flag is None else replace(base, priors=self.priors_flag)
        priors = loaded.file_priors if self.priors_flag is None else self.priors_flag
        return new_table(
            loaded.values, priors, features=loaded.features, hypotheses=loaded.hypotheses
        )

    @cached_property
    def overlap(self) -> OverlapMatrix:
        """The overlap the state-vector method runs on: the solved 2x2 pair,
        moderated when ``--hbar`` is given.

        The first successful solve also sets :attr:`diagnostics`, whose
        ``gram_positive_definite`` are this overlap's flags, and warns when
        the solved pair leaves the unit interval, adding that the
        state-vector cross-check may be unavailable when this overlap fails
        the positive-definiteness gate.
        """
        solution = overlap_coefficients(self.prob_table)
        pair = (solution.c1, solution.c2)
        if self.hbar is not None:
            pair = hbar_moderated_coefficients(*pair, self.hbar)
        overlap = OverlapMatrix.from_pair(*pair)
        flags = overlap.positive_definite
        self.diagnostics = {
            "c1": solution.c1,
            "c2": solution.c2,
            "within_unit_interval": solution.within_unit_interval,
            "gram_positive_definite": list(flags),
        }
        if self.hbar is not None:
            self.diagnostics.update(hbar=self.hbar, c1_moderated=pair[0], c2_moderated=pair[1])
        if not solution.within_unit_interval:
            warning = (
                "overlap coefficient magnitude >= 1 "
                f"(c1={_format_float(solution.c1)}, c2={_format_float(solution.c2)})"
            )
            if not all(flags):
                warning += "; state-vector cross-check may be unavailable"
            self.warnings.append(warning)
        return overlap

    def run_method(self, selector: str):
        loaded = self.loaded
        if selector.startswith("bayes:"):
            feature = int(selector.split(":", 1)[1])
            table = self.prob_table
            if feature > table.m:
                raise BadIndex(
                    f"feature index {feature} out of range for {table.m} features"
                )
            return bayes_posterior(table, feature - 1)
        if selector == "naive":
            return naive_posterior(self.prob_table)
        if selector in ("mean-freq", "mean-range"):
            if loaded.kind != "counts":
                raise Unsupported(f"{selector} needs integer counts with populations")
            mean = mean_frequency_posterior if selector == "mean-freq" else mean_range_posterior
            return mean(loaded.count_table, self.priors_flag)
        if selector == "quantum":
            self.overlap  # the solve: diagnostics and the unit-interval warning
            return posterior_2x2(self.prob_table, self.hbar)
        return posterior_via_wavefunction(self.prob_table, self.overlap)


def _input_echo(loaded: _LoadedInput) -> dict[str, Any]:
    echo: dict[str, Any] = {
        "path": loaded.path,
        "kind": loaded.kind,
        "features": list(loaded.features),
        "hypotheses": list(loaded.hypotheses),
    }
    if loaded.kind == "counts":
        echo["counts"] = [list(row) for row in loaded.count_table.counts]
        echo["populations"] = list(loaded.count_table.populations)
    else:
        echo["values"] = [[float(v) for v in row] for row in loaded.values]
    return echo


def _ranges_payload(loaded: _LoadedInput) -> list[dict[str, Any]]:
    table = loaded.count_table
    payload = []
    for a in range(table.n):
        for i, j in combinations(range(table.m), 2):
            r = intersection_range(table, a, i, j)
            payload.append({"hypothesis": loaded.hypotheses[a],
                            "features": [loaded.features[i], loaded.features[j]],
                            "lo": r.lo, "hi": r.hi})
    return payload


def cmd_analyze(args) -> dict[str, Any]:
    if args.hbar is not None:
        moderation_scale(args.hbar)
    loaded = _load_input(args.input)
    priors_flag = _parse_priors_flag(args.priors, loaded.n)
    run = _AnalysisRun(loaded, priors_flag, args.hbar)
    selectors, explicit = _expand_selectors(args.method or ["all"], loaded.m)

    if args.hbar == 0.0 and {"quantum", "wavefunction"} & set(selectors):
        run.warnings.append("overlap disabled at hbar=0")

    methods: dict[str, Any] = {}
    for selector in selectors:
        try:
            pd = run.run_method(selector)
        except QlrError as exc:
            if selector in explicit or exc.exit_code != 3:
                raise
            run.warnings.append(f"skipped {selector}: {exc}")
            continue
        methods[selector] = {
            "method": pd.method,
            "probabilities": list(pd.probabilities),
            "argmax_index": pd.argmax_index,
            "argmax": loaded.hypotheses[pd.argmax_index],
        }

    # The priors the estimators used: every emitted report has already
    # validated them (counts) or built the probability table (probabilities).
    if loaded.kind == "counts":
        priors = loaded.count_table.resolve_priors(priors_flag)
    else:
        priors = run.prob_table.priors
    report: dict[str, Any] = {
        "command": "analyze",
        "version": __version__,
        "input": {**_input_echo(loaded), "priors": list(priors)},
        "methods": methods,
        "warnings": run.warnings,
    }
    if run.diagnostics is not None:
        report["diagnostics"] = run.diagnostics
    if loaded.kind == "counts" and loaded.m >= 2:
        report["ranges"] = _ranges_payload(loaded)
    return report


def cmd_ranges(args) -> dict[str, Any]:
    loaded = _load_input(args.input)
    if loaded.kind != "counts":
        raise NotCounts(
            "ranges need integer counts with populations; "
            "this file carries probabilities"
        )
    if loaded.m < 2:
        raise Unsupported(f"ranges need at least 2 features, got {loaded.m}")
    return {
        "command": "ranges",
        "version": __version__,
        "input": _input_echo(loaded),
        "ranges": _ranges_payload(loaded),
    }


def cmd_verify(args) -> dict[str, Any]:
    constraints = verify_constraint_suite(args.samples, args.seed)
    cross = cross_path_suite(args.samples, args.seed)
    return {
        "command": "verify",
        "version": __version__,
        "samples": args.samples,
        "seed": args.seed,
        "constraints": constraints.to_dict(),
        "cross_path": cross.to_dict(),
        "passed": constraints.passed and cross.passed,
    }


_COMMANDS = {"analyze": cmd_analyze, "ranges": cmd_ranges, "verify": cmd_verify}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlr",
        description="Likelihood-ratio estimators for contingency tables "
        "with co-dependent features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="run estimators on a contingency table file"
    )
    analyze.add_argument("input", help="CSV or JSON table file")
    analyze.add_argument(
        "--method",
        action="append",
        metavar="M",
        help="estimator to run: bayes:<feature>, naive, mean-freq, mean-range, "
        "quantum, wavefunction, or all (may repeat; default all)",
    )
    analyze.add_argument(
        "--hbar",
        type=float,
        default=None,
        help="moderate overlap coefficients by 1 - exp(-hbar)",
    )
    analyze.add_argument(
        "--priors",
        default=None,
        metavar="P1,P2,...",
        help="comma-separated hypothesis priors (default: population shares "
        "for counts, uniform otherwise)",
    )

    ranges = sub.add_parser(
        "ranges", help="feasible joint-count ranges for each feature pair"
    )
    ranges.add_argument("input", help="CSV or JSON counts file")

    verify = sub.add_parser(
        "verify", help="run the randomized constraint and cross-path suites"
    )
    verify.add_argument("--samples", type=int, default=1000, help="samples per check")
    verify.add_argument("--seed", type=int, default=42, help="random seed, an integer >= 0")
    for command in (analyze, ranges, verify):
        command.add_argument(
            "--format", choices=("json", "text"), default="text", help="output format"
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = _COMMANDS[args.command](args)
    except (QlrError, OSError) as exc:
        print(f"qlr: error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, QlrError) else 2
    render = render_json if args.format == "json" else render_text
    sys.stdout.write(render(report))
    return 0 if report.get("passed", True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
