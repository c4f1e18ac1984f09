"""Command-line front end: load tables, run estimators, emit reports.

Input formats
-------------
CSV: header row names the hypotheses (first cell is a corner label and is
ignored); each following row is a feature label plus one value per
hypothesis.  If the final row's label is ``__population__`` every value in
the file must be a nonnegative integer and the file is read as counts;
otherwise values are conditional probabilities in (0, 1].

JSON: an object with ``"kind": "probabilities"`` (field ``values``) or
``"kind": "counts"`` (fields ``counts``, ``populations``), either with
optional ``features``/``hypotheses``/``priors``.  ``--priors`` overrides
the file's ``priors``.

The reader checks only the file's syntax and layout (and, for JSON, that
the label fields are lists of strings).  The numbers, labels and priors go
straight into one table, a CountTable for counts or a ContingencyTable for
probabilities, which holds them and whose rules refuse a bad cell, count,
population, label count or prior.  So a file is validated whole at load,
its own ``priors`` included even when ``--priors`` overrides them, before
any command decides what it can support.  ``--priors`` then replaces the
table's priors under the same rule, and its refusal names the flag.

Exit codes
----------
0 success; 1 ``verify`` found a failing check; otherwise the ``exit_code``
of the :class:`~qlr.errors.QlrError` raised: 3 for an
:class:`~qlr.errors.Unsupported`, input that is valid but cannot support
the request (wrong shape for an estimator, probability-only file given to
``ranges``, zero counts or a single hypothesis under a probability-based
method), and 2 for any other, invalid input (unparseable file, a file
breaking a table rule, bad flags).  An unreadable file exits 2.  Under
``--method all`` an ``Unsupported`` from one estimator becomes a
``skipped <method>: ...`` warning instead.

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
from dataclasses import replace
from itertools import combinations
from typing import Any, Sequence

from . import __version__
from .analysis import analyze
from .checks import SUITES
from .errors import (
    ParseError,
    QlrError,
    Unsupported,
)
from .quantum import moderation_scale
from .tables import ContingencyTable, CountTable, intersection_range, new_table

_INT_RE = re.compile(r"^[+-]?\d+$")
_POPULATION_LABEL = "__population__"


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


def _parse_csv(text: str) -> CountTable | ContingencyTable:
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
        return CountTable(counts, populations, features=features, hypotheses=hypotheses)

    features = tuple(cells[0] for _, cells in body)
    values = [
        [_parse_number(cell, line, col + 2) for col, cell in enumerate(cells[1:])]
        for line, cells in body
    ]
    return new_table(values, features=features, hypotheses=hypotheses)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _parse_json(text: str) -> CountTable | ContingencyTable:
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

    fields = ("counts", "populations") if kind == "counts" else ("values",)
    for key in fields:
        _require(key in data, f'JSON {kind} input needs a "{key}" field')

    def labels(key: str) -> list[str] | None:
        raw = data.get(key)
        _require(
            raw is None or isinstance(raw, list) and all(isinstance(s, str) for s in raw),
            f'"{key}" must be a list of strings',
        )
        return raw

    features, hypotheses, priors = labels("features"), labels("hypotheses"), data.get("priors")
    if kind == "counts":
        return CountTable(
            data["counts"], data["populations"], priors, features=features, hypotheses=hypotheses
        )
    return new_table(data["values"], priors, features=features, hypotheses=hypotheses)


def _load_input(path: str) -> CountTable | ContingencyTable:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"file is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
            f"at offset {exc.start}"
        ) from None
    if path.lower().endswith(".json"):
        return _parse_json(text)
    return _parse_csv(text)


def _with_priors_flag(
    table: CountTable | ContingencyTable, raw: str
) -> CountTable | ContingencyTable:
    """The table under the ``--priors`` values, which the table's prior
    rule checks at once; a refusal names the flag."""
    values = []
    for part in raw.split(","):
        try:
            values.append(float(part))
        except ValueError:
            raise ParseError(f"--priors entry {part.strip()!r} is not a number") from None
    try:
        return replace(table, priors=values)
    except QlrError as exc:
        raise ParseError(f"--priors: {exc}") from exc


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
        for key in SUITES:
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


def _input_echo(path: str, table: CountTable | ContingencyTable) -> dict[str, Any]:
    is_counts = isinstance(table, CountTable)
    echo: dict[str, Any] = {
        "path": path,
        "kind": "counts" if is_counts else "probabilities",
        "features": list(table.features),
        "hypotheses": list(table.hypotheses),
    }
    if is_counts:
        echo["counts"] = [list(row) for row in table.counts]
        echo["populations"] = list(table.populations)
    else:
        echo["values"] = [list(row) for row in table.x]
    return echo


def _ranges_payload(table: CountTable) -> list[dict[str, Any]]:
    payload = []
    for a in range(table.n):
        for i, j in combinations(range(table.m), 2):
            r = intersection_range(table, a, i, j)
            payload.append({"hypothesis": table.hypotheses[a],
                            "features": [table.features[i], table.features[j]],
                            "lo": r.lo, "hi": r.hi})
    return payload


def cmd_analyze(args) -> dict[str, Any]:
    if args.hbar is not None:
        moderation_scale(args.hbar)
    table = _load_input(args.input)
    if args.priors is not None:
        table = _with_priors_flag(table, args.priors)
    analysis = analyze(table, args.method or ("all",), args.hbar)
    report: dict[str, Any] = {
        "command": "analyze",
        "version": __version__,
        "input": {**_input_echo(args.input, table), "priors": list(table.priors)},
        "methods": {
            selector: {
                "method": pd.method,
                "probabilities": list(pd.probabilities),
                "argmax_index": pd.argmax_index,
                "argmax": table.hypotheses[pd.argmax_index],
            }
            for selector, pd in analysis.posteriors.items()
        },
        "warnings": list(analysis.warnings),
    }
    if analysis.diagnostics is not None:
        report["diagnostics"] = analysis.diagnostics
    if isinstance(table, CountTable) and table.m >= 2:
        report["ranges"] = _ranges_payload(table)
    return report


def cmd_ranges(args) -> dict[str, Any]:
    table = _load_input(args.input)
    if not isinstance(table, CountTable):
        raise Unsupported(
            "ranges need integer counts with populations; "
            "this file carries probabilities"
        )
    if table.m < 2:
        raise Unsupported(f"ranges need at least 2 features, got {table.m}")
    return {
        "command": "ranges",
        "version": __version__,
        "input": _input_echo(args.input, table),
        "ranges": _ranges_payload(table),
    }


def cmd_verify(args) -> dict[str, Any]:
    blocks = {key: suite(args.samples, args.seed).to_dict() for key, suite in SUITES.items()}
    return {
        "command": "verify",
        "version": __version__,
        "samples": args.samples,
        "seed": args.seed,
        **blocks,
        "passed": all(block["passed"] for block in blocks.values()),
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
        help="comma-separated hypothesis priors (default: the file's priors, else "
        "population shares for counts, uniform otherwise)",
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
