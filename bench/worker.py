"""In-process half of the benchmark: one process, one caller, closed loop.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It imports qlr, warms up on fixed inputs, prints ``READY`` (the
end of set-up), then reads one JSON request line from stdin, runs it and
prints one JSON result line.  Inputs are generated here from the seed, in
chunks between timed operations, so the generator never runs inside a
timed region and never counts as set-up.

    python3 bench/worker.py --workload score-stream [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from array import array
from collections import Counter
from time import perf_counter

import checks
import inputs
from measure import TAIL, LoopClock, cpu_turns, summarize
from spans import NULL, Tracer

import numpy as np
import qlr
import qlr.cli


class Api:
    """The public qlr calls the benchmark makes, each under a layer name.

    With a tracer every call becomes a span; with ``NULL`` the attributes
    are the package's own functions.
    """

    CALLS = {
        "new_table": ("tables.new_table", qlr.new_table),
        "count_table": ("tables.count_table", qlr.CountTable),
        "from_counts": ("tables.from_counts", qlr.from_counts),
        "intersection_range": ("tables.intersection_range", qlr.intersection_range),
        "bayes": ("classical.bayes", qlr.bayes_posterior),
        "naive": ("classical.naive", qlr.naive_posterior),
        "mean_frequency": ("classical.mean_frequency", qlr.mean_frequency_posterior),
        "mean_range": ("classical.mean_range", qlr.mean_range_posterior),
        "overlap_coefficients": ("quantum.overlap_coefficients", qlr.overlap_coefficients),
        "moderate": ("quantum.hbar_moderated_coefficients", qlr.hbar_moderated_coefficients),
        "overlap_matrix": ("quantum.overlap_matrix", qlr.OverlapMatrix),
        "overlap_pair": ("quantum.overlap_matrix", qlr.OverlapMatrix.from_pair),
        "posterior_2x2": ("quantum.posterior_2x2", qlr.posterior_2x2),
        "posterior_2x2_hbar": ("quantum.posterior_2x2_hbar", qlr.posterior_2x2),
        "posterior_general": ("quantum.posterior_general", qlr.posterior_general),
        "constraint_suite": ("quantum.constraint_suite", qlr.verify_constraint_suite),
        "wavefunction": ("wavefunction.posterior", qlr.posterior_via_wavefunction),
        "cross_path_suite": ("wavefunction.cross_path_suite", qlr.cross_path_suite),
        "oracle": ("oracle.mean_estimators", qlr.oracle_mean_estimators),
        "enumerate": ("oracle.enumerate_joint_counts", qlr.enumerate_joint_counts),
        "render_json": ("cli.render_json", qlr.cli.render_json),
    }

    def __init__(self, tracer=NULL):
        self.tracer = tracer
        for attr, (name, fn) in self.CALLS.items():
            setattr(self, attr, tracer.wrap(name, fn))


class Outcome:
    """Result of one operation: wrong outputs and untyped exceptions.

    A typed ``QlrError`` is a legitimate answer (the CLI maps it to exit 2
    or 3), so ``attempt`` returns None for it and records nothing.
    """

    def __init__(self):
        self.problems: list[str] = []
        self.untyped: list[str] = []

    def attempt(self, fn, *args):
        try:
            return fn(*args)
        except qlr.QlrError:
            return None
        except Exception as exc:  # an untyped crash is a failed operation
            self.untyped.append(type(exc).__name__)
            return None


# ---------------------------------------------------------------- score-stream

def score_table(api: Api, spec: dict, out: Outcome) -> dict:
    """Every estimator that applies to the table, as ``analyze --method all``
    runs them.  Returns the posteriors by method; typed errors leave gaps."""
    attempt = out.attempt
    results = {}
    if spec["kind"] == "counts":
        counts = attempt(api.count_table, np.array(spec["counts"]),
                         np.array(spec["populations"]))
        if counts is None:
            return results
        table = attempt(api.from_counts, counts)
        for a in range(counts.n):
            attempt(api.intersection_range, counts, a, 0, 1)
        results["mean-freq"] = attempt(api.mean_frequency, counts)
        if counts.n == 2:
            results["mean-range"] = attempt(api.mean_range, counts)
    else:
        table = attempt(api.new_table, spec["x"], spec["priors"])
    if table is None:
        return results
    for k in range(table.m):
        results[f"bayes:{k + 1}"] = attempt(api.bayes, table, k)
    results["naive"] = attempt(api.naive, table)
    overlap = None
    if spec["kind"] == "general":
        overlap = attempt(api.overlap_matrix, np.array(spec["overlap"]))
        if overlap is not None:
            results["quantum"] = attempt(api.posterior_general, table, overlap)
    elif (table.m, table.n) == (2, 2):
        hbar = spec.get("hbar")
        solution = attempt(api.overlap_coefficients, table)
        if hbar is None:
            results["quantum"] = attempt(api.posterior_2x2, table)
        else:
            results["quantum"] = attempt(api.posterior_2x2_hbar, table, hbar)
        if solution is not None:
            pair = (solution.c1, solution.c2)
            if hbar is not None:
                pair = attempt(api.moderate, *pair, hbar)
            if pair is not None:
                overlap = attempt(api.overlap_pair, *pair)
    if overlap is not None:
        results["wavefunction"] = attempt(api.wavefunction, table, overlap)
    return results


def check_scores(spec: dict, results: dict, out: Outcome) -> None:
    """Each posterior sums to 1, has the smallest-index argmax and matches
    the independent reference formulas in ``checks``; the state-vector
    posterior matches the block-sum one wherever it exists (it is refused
    when the overlap is not positive definite)."""
    problems = []
    reference = checks.reference_methods(checks.score_entry(spec))
    for method, pd in results.items():
        if pd is None:
            continue
        problems += checks.posterior_problems(method, pd.probabilities, pd.argmax_index)
        if method != "wavefunction":
            problems += checks.reference_problems(f"{method} vs reference",
                                                  pd.probabilities, reference.get(method))
    wf, block = results.get("wavefunction"), results.get("quantum")
    if wf is not None and block is not None:
        problems += checks.close_problems("wavefunction vs block sum", wf.probabilities,
                                          block.probabilities, checks.PATHS_TOL)
    out.problems += [f"{json.dumps(spec)}: {p}" for p in problems]


def run_score(api: Api, seed: int, clock: LoopClock, log: array, marks: array,
              sink: dict) -> None:
    """Chunks of 100 tables; ``marks`` gets the end of each complete chunk."""
    chunk = 0
    with cpu_turns() as next_cpu:
        while not clock.expired():
            clock.between()
            next_cpu()
            for i, spec in enumerate(inputs.score_chunk(seed, chunk)):
                out = Outcome()
                with api.tracer.op("op.score_table", f"{chunk}.{i}"):
                    t0 = perf_counter()
                    results = score_table(api, spec, out)
                    t1 = perf_counter()
                check_scores(spec, results, out)
                log.append(t1 - t0)
                record(sink, out)
                if clock.expired():
                    return
            marks.append(len(log))
            chunk += 1


# ------------------------------------------------------------------ self-check

def oracle_table(api: Api, spec: dict, out: Outcome) -> None:
    """Ranges against the enumeration, and the closed-form mean estimators
    against the oracle (both must raise ``DegenerateRange`` together)."""
    counts = out.attempt(api.count_table, np.array(spec["counts"]),
                         np.array(spec["populations"]))
    if counts is None:
        out.problems.append(f"{spec}: rejected a valid count table")
        return
    for a in range(2):
        r = api.intersection_range(counts, a, 0, 1)
        feasible = api.enumerate(counts, a, 0, 1)
        if feasible != list(range(r.lo, r.hi + 1)):
            out.problems.append(f"{spec}: hypothesis {a} range [{r.lo}, {r.hi}] "
                                f"but enumeration gives {feasible}")
    try:
        closed = (api.mean_frequency(counts), api.mean_range(counts))
    except qlr.DegenerateRange:
        closed = None
    try:
        estimates = api.oracle(counts)
        oracle = (estimates.mean_frequency, estimates.mean_range)
    except qlr.DegenerateRange:
        oracle = None
    if (closed is None) != (oracle is None):
        out.problems.append(f"{spec}: closed form and oracle disagree on DegenerateRange")
        return
    for c, o in zip(closed or (), oracle or ()):
        out.problems += checks.posterior_problems(f"{spec} [{c.method}]",
                                                  c.probabilities, c.argmax_index)
        out.problems += checks.close_problems(f"{spec} [{c.method} vs oracle]",
                                              c.probabilities, o.probabilities,
                                              checks.ORACLE_TOL)


def run_self_check(api: Api, seed: int, clock: LoopClock, log: array, marks: array,
                   sink: dict, samples: int, tables: int) -> None:
    """Rounds of two suite calls and an oracle sweep; each suite call and
    each oracle table is one timed operation, and ``marks`` gets the end of
    each round."""
    sink.update(suite_samples=0, suite_s=0.0, oracle_tables=0, oracle_s=0.0,
                oracle_work={"candidates": 0, "pairs": 0, "feasible": 0})
    index = 0
    with cpu_turns() as next_cpu:
        while not clock.expired():
            clock.between()
            next_cpu()
            job = inputs.self_check_round(seed, index, samples, tables)
            with api.tracer.op("op.self_check_round", index):
                self_check_round(api, job, log, sink)
            marks.append(len(log))
            index += 1


def self_check_round(api: Api, job: dict, log: array, sink: dict) -> None:
    samples = job["samples"]
    for name, suite in (("constraint", api.constraint_suite),
                        ("cross-path", api.cross_path_suite)):
        out = Outcome()
        t0 = perf_counter()
        report = out.attempt(suite, samples, job["suite_seed"])
        t1 = perf_counter()
        log.append(t1 - t0)
        sink["suite_s"] += t1 - t0
        sink["suite_samples"] += samples
        if report is None or not report.passed:
            out.problems.append(f"{name} suite seed {job['suite_seed']} failed: "
                                f"{report.to_dict() if report else 'raised'}")
        record(sink, out)
    for spec in job["oracle"]:
        out = Outcome()
        t0 = perf_counter()
        oracle_table(api, spec, out)
        t1 = perf_counter()
        log.append(t1 - t0)
        sink["oracle_s"] += t1 - t0
        sink["oracle_tables"] += 1
        record(sink, out)
    for key, value in inputs.oracle_work(job["oracle"]).items():
        sink["oracle_work"][key] += value


# ------------------------------------------------------------------ cli, in-process

CLI_SPAN = {"analyze": "cli.main_analyze", "ranges": "cli.main_ranges",
            "verify": "cli.main_verify", "error": "cli.main_error"}


def run_cli_inproc(api: Api, entries: list[dict], sink: dict) -> None:
    """``qlr.cli.main(argv)`` on the argv mix the subprocesses ran, checked
    byte for byte against the subprocess output; JSON reports are re-rendered
    with ``render_json``, which must reproduce them."""
    mains = {kind: api.tracer.wrap(name, qlr.cli.main) for kind, name in CLI_SPAN.items()}
    for k, entry in enumerate(entries):
        out = Outcome()
        stdout, stderr = io.StringIO(), io.StringIO()
        with api.tracer.op("op.cli_main", k):
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = out.attempt(mains[entry["kind"]], entry["argv"])
            text = stdout.getvalue()
            sink.setdefault("exit_codes", Counter())[str(code)] += 1
            if code != entry["code"] or text != entry["stdout"]:
                out.problems.append(f"{' '.join(entry['argv'])}: in-process main() "
                                    f"gave exit {code}, output differs from the CLI")
            elif code == 0 and "--format" in entry["argv"] and \
                    entry["argv"][entry["argv"].index("--format") + 1] == "json":
                if api.render_json(json.loads(text)) != text:
                    out.problems.append(f"{' '.join(entry['argv'])}: render_json "
                                        "does not reproduce the report")
        record(sink, out)


# -------------------------------------------------------------------- requests

def record(sink: dict, out: Outcome) -> None:
    sink["attempted"] = sink.get("attempted", 0) + 1
    sink["failed"] = sink.get("failed", 0) + bool(out.untyped)
    sink.setdefault("untyped", Counter()).update(out.untyped)
    if out.problems:
        sink.setdefault("problems", []).extend(out.problems[:5])


def probe_score(api: Api, seed: int) -> dict:
    """ROADMAP item 4 tiny-cell tables, outside the timed loop."""
    sink: dict = {}
    for i, spec in enumerate(inputs.score_edge(seed)):
        out = Outcome()
        with api.tracer.op("op.score_edge", f"edge.{i}"):
            results = score_table(api, spec, out)
        check_scores(spec, results, out)
        record(sink, out)
    return sink


def pause_for_probe() -> None:
    """Let the orchestrator time a set-up probe while this process waits."""
    print("PAUSE", flush=True)
    sys.stdin.readline()


def timed(workload: str, api: Api, request: dict, seconds: float, probes: int = 0) -> dict:
    sink: dict = {}
    log, marks = array("d"), array("q")
    clock = LoopClock(seconds, probes, pause_for_probe)
    if workload == "score-stream":
        run_score(api, request["seed"], clock, log, marks, sink)
    else:
        run_self_check(api, request["seed"], clock, log, marks, sink,
                       request["samples"], request["tables"])
    sink["summary"] = summarize(log, marks, TAIL[workload])
    return sink


def handle(workload: str, request: dict) -> dict:
    if workload == "cli-oneshot":
        tracer = Tracer(qlr.QlrError)
        sink: dict = {}
        run_cli_inproc(Api(tracer), request["entries"], sink)
        sink["layers"] = tracer.summary()
        return sink
    if not request["trace"]:
        result = {"timed": timed(workload, Api(), request, request["seconds"],
                                 request.get("probes", 0))}
        if workload == "score-stream":
            result["probe"] = probe_score(Api(), request["seed"])
        return result
    # Traced run: the same inputs untraced then traced, half the time each,
    # so the ratio of their throughputs is the tracing overhead.
    half = request["seconds"] / 2
    untraced = timed(workload, Api(), request, half)
    tracer = Tracer(qlr.QlrError)
    api = Api(tracer)
    traced = timed(workload, api, request, half)
    result = {"untraced": untraced, "timed": traced}
    if workload == "score-stream":
        result["probe"] = probe_score(api, request["seed"])
    result["layers"] = tracer.summary()
    if request.get("spans_path"):
        tracer.dump(request["spans_path"])
    return result


def warm_up(workload: str) -> None:
    """Fixed, unseeded calls that load every code path the workload uses."""
    api = Api()
    out = Outcome()
    if workload == "score-stream":
        for spec in ({"kind": "prob2x2", "x": [[0.8, 0.7], [0.6, 0.5]], "priors": None,
                      "hbar": 0.5},
                     {"kind": "counts", "counts": [[8, 7], [6, 5]], "populations": [10, 10]},
                     {"kind": "general", "x": [[0.5, 0.4, 0.3]] * 2, "priors": [0.2, 0.3, 0.5],
                      "overlap": [[[1.0, 0.2], [0.2, 1.0]]] * 3}):
            check_scores(spec, score_table(api, spec, out), out)
    elif workload == "self-check":
        api.constraint_suite(2, 0)
        api.cross_path_suite(2, 0)
        oracle_table(api, {"counts": [[8, 7], [6, 5]], "populations": [10, 10]}, out)
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            qlr.cli.main(["ranges", "docs/streets.csv", "--format", "json"])
    if out.problems or out.untyped:
        raise RuntimeError(f"warm-up failed: {out.problems or out.untyped}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    warm_up(args.workload)
    print(f"READY numpy={np.__version__}", flush=True)
    if args.setup_only:
        return 0
    result = handle(args.workload, json.loads(sys.stdin.readline()))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
