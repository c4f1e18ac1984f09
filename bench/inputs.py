"""Seeded inputs for the three benchmark workloads.

Every generator takes the workload seed plus a position (cycle, chunk or
round index) and returns plain Python data, so the same seed always yields
the same inputs and the package under test receives only what is generated
here.  Only the standard library is used: string seeds make
``random.Random`` deterministic across processes and Python versions.

Each chunk has fixed proportions of input kinds; only the values vary with
the seed, so medians from different seeds measure the same mix.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("cli-oneshot", "score-stream", "self-check")

# The three commands whose outputs are checked in as docs/golden/*.json;
# they run from the checkout root.
GOLDEN_COMMANDS = (
    (("analyze", "docs/streets.csv", "--method", "all", "--format", "json"),
     "analyze_streets.json"),
    (("ranges", "docs/streets.csv", "--format", "json"), "ranges_streets.json"),
    (("verify", "--samples", "50", "--seed", "42", "--format", "json"),
     "verify_50_42.json"),
)

CLI_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4))
GENERAL_SHAPES = ((2, 3), (3, 2), (3, 3), (2, 4), (3, 4))

SUITE_SAMPLES = 60         # samples per suite call in one self-check round
ORACLE_TABLES = 150        # oracle-swept count tables per self-check round
ORACLE_MAX_POPULATION = 300
MAX_POPULATION = 10**6     # qlr.tables.MAX_POPULATION


def rng_for(seed: int, *stream) -> random.Random:
    return random.Random("/".join(str(part) for part in (seed, *stream)))


def _log_uniform_int(rng: random.Random, hi: int) -> int:
    return max(1, min(hi, int(10 ** rng.uniform(0.0, math.log10(hi)))))


def _cell(rng: random.Random, lo: float = 0.01) -> float:
    return rng.uniform(lo, 1.0)


def _priors(rng: random.Random, n: int) -> list[float]:
    raw = [rng.uniform(0.1, 1.0) for _ in range(n)]
    total = sum(raw)
    head = [v / total for v in raw[:-1]]
    return head + [1.0 - sum(head)]


def _count_table(rng: random.Random, m: int, n: int, max_pop: int,
                 allow_zero: bool) -> tuple[list[list[int]], list[int]]:
    pops = [_log_uniform_int(rng, max_pop) for _ in range(n)]
    lo = 0 if allow_zero else 1
    counts = [[rng.randint(lo, pops[a]) for a in range(n)] for _ in range(m)]
    return counts, pops


def _overlap(rng: random.Random, n: int, m: int) -> list[list[list[float]]]:
    """Symmetric unit-diagonal overlaps with off-diagonals in [-0.3, 0.95].

    The lower limit keeps every block sum positive for m <= 3 features; the
    upper one lets some 3x3 blocks miss positive definiteness, so the
    state-vector path is sometimes refused (``NotPositiveDefinite``).
    """
    c = []
    for _ in range(n):
        block = [[1.0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                block[i][j] = block[j][i] = rng.uniform(-0.3, 0.95)
        c.append(block)
    return c


# ---------------------------------------------------------------- score-stream

def score_chunk(seed: int, chunk: int) -> list[dict]:
    """One chunk of distinct tables for ``score-stream``.

    Per chunk: 30 uniform 2x2 probability tables, 15 more with ``hbar``,
    25 count tables with populations log-uniform up to 10^6, 25 general
    2x3..3x4 tables with caller-supplied overlaps, and 5 tiny or lopsided
    tables (2x2 cells down to 1e-150, general-table cells down to
    subnormals).  2x2 cells stop at 1e-150 because below that the cell
    products leave the normal range and ``posterior_2x2`` crashes; those
    tables are in ``score_edge``, which every run scores and counts.
    """
    rng = rng_for(seed, "score", chunk)
    specs: list[dict] = []
    for k in range(45):
        specs.append({
            "kind": "prob2x2",
            "x": [[_cell(rng, 1e-9), _cell(rng, 1e-9)] for _ in range(2)],
            "priors": _priors(rng, 2) if k % 2 else None,
            "hbar": 10 ** rng.uniform(-2.0, 1.0) if k >= 30 else None,
        })
    for k in range(25):
        n = 3 if k % 5 == 4 else 2
        counts, pops = _count_table(rng, 2, n, MAX_POPULATION, allow_zero=False)
        specs.append({"kind": "counts", "counts": counts, "populations": pops})
    for _ in range(25):
        m, n = GENERAL_SHAPES[rng.randrange(len(GENERAL_SHAPES))]
        specs.append({
            "kind": "general",
            "x": [[_cell(rng, 1e-9) for _ in range(n)] for _ in range(m)],
            "priors": _priors(rng, n),
            "overlap": _overlap(rng, n, m),
        })
    for k in range(5):
        if k < 3:
            x = [[10 ** rng.uniform(-150.0, 0.0) for _ in range(2)] for _ in range(2)]
            specs.append({"kind": "prob2x2", "x": x, "priors": None, "hbar": None})
        else:
            x = [[_cell(rng) for _ in range(3)] for _ in range(3)]
            for i in range(3):
                x[i][rng.randrange(3)] = 10 ** rng.uniform(-320.0, -308.0)
            specs.append({"kind": "general", "x": x, "priors": _priors(rng, 3),
                          "overlap": _overlap(rng, 3, 3)})
    rng.shuffle(specs)
    return specs


def score_edge(seed: int) -> list[dict]:
    """In-domain 2x2 tables whose cell products leave the normal range
    (ROADMAP item 4).

    Cells anywhere in (0, 1] are in the documented domain, so each of these
    should give a posterior or a typed error.  Products that underflow to 0
    raise ``ZeroDivisionError``; products that are subnormal but nonzero
    (cells near 1e-160) make the ratio overflow and the posterior NaN.
    They run once per run, outside the timed loop, and every crash is
    counted in ``error_ratio``.
    """
    rng = rng_for(seed, "score-edge")
    specs = [{"kind": "prob2x2", "x": [[0.5, 1e-200], [0.5, 1e-200]],
              "priors": None, "hbar": None}]
    for k in range(11):
        if k < 7:
            tiny = 10 ** rng.uniform(-300.0, -170.0)
            hbar = 0.5 if k % 3 == 0 else None
        else:      # x1*y1 subnormal: log10 in (-322, -312)
            tiny = 10 ** rng.uniform(-161.0, -156.0)
            hbar = 0.5 if k == 10 else None
        big = rng.uniform(0.1, 1.0)
        x = [[big, tiny], [big, tiny]] if k % 2 else [[tiny, big], [tiny, big]]
        specs.append({"kind": "prob2x2", "x": x, "priors": None, "hbar": hbar})
    return specs


# ------------------------------------------------------------------ self-check

def self_check_round(seed: int, index: int, samples: int = SUITE_SAMPLES,
                     tables: int = ORACLE_TABLES) -> dict:
    """One ``self-check`` round: a suite seed and a batch of count tables.

    Populations run log-uniform from 1 to 300 because the oracle is brute
    force by design (O(pop) candidates, O(range^2) pairs); score-stream
    covers populations up to 10^6.  Zero counts are allowed, so some tables
    end in the typed ``DegenerateRange`` on both paths.
    """
    rng = rng_for(seed, "self-check", index)
    oracle = [_count_table(rng, 2, 2, ORACLE_MAX_POPULATION, allow_zero=True)
              for _ in range(tables)]
    return {"suite_seed": rng.randrange(2**32), "samples": samples,
            "oracle": [{"counts": c, "populations": p} for c, p in oracle]}


def oracle_work(tables: list[dict]) -> dict:
    """Work the enumeration oracle does on these tables, computed from the
    inputs alone: candidates tested (pop + 1 per hypothesis), joint-count
    pairs scanned (|feasible_1| * |feasible_2|), and feasible candidates."""
    candidates = pairs = feasible = 0
    for t in tables:
        sizes = []
        for a in range(2):
            ci, cj = t["counts"][0][a], t["counts"][1][a]
            pop = t["populations"][a]
            candidates += pop + 1
            sizes.append(min(ci, cj) - max(0, ci + cj - pop) + 1)
        feasible += sum(sizes)
        pairs += sizes[0] * sizes[1]
    return {"candidates": candidates, "pairs": pairs, "feasible": feasible}


# ----------------------------------------------------------------- cli-oneshot

def _labels(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{k + 1}" for k in range(count)]


def _table_file(spec: dict, fmt: str) -> bytes:
    rows_key = "values" if "values" in spec else "counts"
    features = _labels("f", len(spec[rows_key]))
    hypotheses = _labels("h", len(spec[rows_key][0]))
    if fmt == "json":
        doc = {"features": features, "hypotheses": hypotheses}
        if "values" in spec:
            doc.update(kind="probabilities", values=spec["values"])
            if spec.get("priors") is not None:
                doc["priors"] = spec["priors"]
        else:
            doc.update(kind="counts", counts=spec["counts"],
                       populations=spec["populations"])
        return (json.dumps(doc) + "\n").encode()
    rows = [["feature", *hypotheses]]
    if "values" in spec:
        rows += [[f, *map(repr, row)] for f, row in zip(features, spec["values"])]
    else:
        rows += [[f, *map(str, row)] for f, row in zip(features, spec["counts"])]
        rows.append(["__population__", *map(str, spec["populations"])])
    return "".join(",".join(r) + "\n" for r in rows).encode()


def _valid_table(rng: random.Random, shape, counts: bool, file_priors: bool) -> dict:
    m, n = shape
    if counts:
        c, p = _count_table(rng, m, n, 1000, allow_zero=False)
        return {"counts": c, "populations": p}
    spec = {"values": [[_cell(rng) for _ in range(n)] for _ in range(m)]}
    if file_priors:
        spec["priors"] = _priors(rng, n)
    return spec


def cli_cycle(seed: int, cycle: int, prefix: str) -> list[dict]:
    """Ten CLI invocations: one golden command (rotating through the three),
    six ``analyze`` runs on generated inputs, one ``ranges`` run and two bad
    inputs that must exit 2 or 3.

    Each entry has ``argv``, ``files`` (relative path -> bytes to write
    first), ``kind`` (analyze, ranges, verify or error), ``expect_code`` and,
    for checked outputs, ``golden`` or ``table`` plus the flags the checker
    needs.  ``prefix`` is the checkout-relative directory for input files.
    """
    rng = rng_for(seed, "cli", cycle)
    out: list[dict] = []
    argv, golden = GOLDEN_COMMANDS[cycle % 3]
    out.append({"argv": list(argv), "files": {}, "kind": argv[0],
                "expect_code": 0, "golden": golden})

    # slot: (shape or None for random, counts, input format, output format, flag)
    slots = (
        ((2, 2), False, "csv", "json", None),
        ((2, 2), True, "json", "text", "hbar"),
        (None, False, "json", "text", None),
        (None, True, "csv", "json", "priors"),
        ((2, 2), True, "csv", "json", None),
        (None, False, "csv", "text", "hbar"),
    )
    for k, (shape, counts, in_fmt, out_fmt, flag) in enumerate(slots):
        shape = shape or CLI_SHAPES[rng.randrange(len(CLI_SHAPES))]
        spec = _valid_table(rng, shape, counts, file_priors=(in_fmt == "json"))
        path = f"{prefix}/c{cycle}-a{k}.{in_fmt}"
        args = ["analyze", path, "--format", out_fmt]
        entry = {"kind": "analyze", "files": {path: _table_file(spec, in_fmt)},
                 "expect_code": 0, "table": spec, "format": out_fmt,
                 "hbar": None, "priors": None}
        if flag == "hbar":
            entry["hbar"] = 10 ** rng.uniform(-1.5, 1.0)
            args += ["--hbar", repr(entry["hbar"])]
        elif flag == "priors":
            entry["priors"] = _priors(rng, shape[1])
            args += ["--priors", ",".join(map(repr, entry["priors"]))]
        entry["argv"] = args
        out.append(entry)

    shape = CLI_SHAPES[rng.randrange(len(CLI_SHAPES))]
    spec = _valid_table(rng, shape, True, False)
    path = f"{prefix}/c{cycle}-r.csv"
    fmt = ("json", "text")[cycle % 2]
    out.append({"kind": "ranges", "argv": ["ranges", path, "--format", fmt],
                "files": {path: _table_file(spec, "csv")}, "expect_code": 0,
                "table": spec, "format": fmt})

    for k in range(2):
        out.append(_bad_invocation(rng, f"{prefix}/c{cycle}-b{k}", rng.randrange(8)))
    rng.shuffle(out)
    return out


def _bad_invocation(rng: random.Random, stem: str, case: int) -> dict:
    """Invalid input or an unsupported request; the CLI must exit 2 or 3."""
    spec = _valid_table(rng, (2, 2), False, False)
    files: dict[str, bytes] = {}
    path = stem + ".csv"
    if case == 0:      # probability above 1 -> InvalidCell
        spec["values"][rng.randrange(2)][rng.randrange(2)] = rng.uniform(1.5, 9.0)
        files[path], argv, code = _table_file(spec, "csv"), ["analyze", path], 2
    elif case == 1:    # non-numeric cell -> ParseError
        text = _table_file(spec, "csv").decode().replace("\nf1,", "\nf1,x", 1)
        files[path], argv, code = text.encode(), ["analyze", path], 2
    elif case == 2:    # ranges on a probability file -> NotCounts
        files[path], argv, code = _table_file(spec, "csv"), ["ranges", path], 3
    elif case == 3:    # closed form asked for a 3x2 table -> Unsupported
        spec = _valid_table(rng, (3, 2), False, False)
        files[path] = _table_file(spec, "csv")
        argv, code = ["analyze", path, "--method", "quantum"], 3
    elif case == 4:    # negative hbar -> InvalidHbar
        files[path] = _table_file(spec, "csv")
        argv, code = ["analyze", path, "--hbar", repr(-rng.uniform(0.1, 5.0))], 2
    elif case == 5:    # priors of the wrong length -> InvalidPriors
        files[path] = _table_file(spec, "csv")
        argv, code = ["analyze", path, "--priors", "0.2,0.3,0.5"], 2
    elif case == 6:    # count above its population -> BadShape
        c, p = _count_table(rng, 2, 2, 1000, allow_zero=False)
        c[0][0] = p[0] + rng.randint(1, 50)
        files[path] = _table_file({"counts": c, "populations": p}, "csv")
        argv, code = ["analyze", path], 2
    else:              # missing file -> OSError
        argv, code = ["analyze", stem + "-missing.csv"], 2
    return {"kind": "error", "argv": argv + ["--format", "json"], "files": files,
            "expect_code": code}


def cli_edge(seed: int, prefix: str) -> list[dict]:
    """In-domain edge inputs from ROADMAP item 4, run once per run outside
    the timed loop: tiny cells (products that underflow to 0, and products
    that are subnormal but nonzero), a non-UTF-8 file and JSON counts beyond
    int64.  The documented contract is a result (exit 0) or a typed error
    (exit 2 or 3), never a traceback.
    """
    rng = rng_for(seed, "cli-edge")
    out = []
    for k in range(3):
        tiny = 10 ** (rng.uniform(-300.0, -170.0) if k < 2 else rng.uniform(-161.0, -156.0))
        spec = {"values": [[0.5, tiny], [0.5, tiny]]}
        fmt = ("csv", "json", "csv")[k]
        path = f"{prefix}/edge-tiny{k}.{fmt}"
        out.append({"kind": "edge", "argv": ["analyze", path, "--format", "json"],
                    "files": {path: _table_file(spec, fmt)}})
    path = f"{prefix}/edge-bytes.csv"
    noise = bytes(rng.randrange(0x80, 0x100) for _ in range(16))
    out.append({"kind": "edge", "argv": ["analyze", path, "--format", "json"],
                "files": {path: b"feature,A,B\n" + noise + b",0.5,0.5\n"}})
    path = f"{prefix}/edge-bigint.json"
    big = 2**63 + rng.randrange(2**40)
    doc = {"kind": "counts", "counts": [[big, 1], [1, 1]], "populations": [big, 2]}
    out.append({"kind": "edge", "argv": ["analyze", path, "--format", "json"],
                "files": {path: (json.dumps(doc) + "\n").encode()}})
    return out
