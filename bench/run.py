"""qlr benchmark: one seeded command, three closed-loop workloads.

    python3 bench/run.py --workload {cli-oneshot,score-stream,self-check}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout (it needs ``src/qlr`` and ``docs/golden``).
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the same inputs untraced and traced, half the time each, and prints the
per-layer metrics plus the tracing overhead.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
wrong output makes ``correct`` false and the exit code 1.  Full results,
with provenance, go to ``.bench_out/``.  See RATIONALE.md for the design.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import checks
import inputs
from measure import TAIL, LoopClock, cpu_turns, summarize
from spans import NULL, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

SETUP_PROBES = 10
WORKER_TIMEOUT_S = 170.0

NOISE_NOTE = (
    "Measured on a shared 2-core VM.  On a scratch prototype, CLI p50 repeated "
    "within about 6% across 4 sets of 60 invocations, while a score-stream-like "
    "loop gave 2,900 to 5,300 tables/s across six identical runs; CPU time "
    "tracked wall time there, so that spread is host speed, not scheduling.  "
    "Compare medians of several runs on one host, never single runs."
)

# Errors reported one by one in the traced run: every QlrError subclass, so a
# share never hides under a neighbour's name, plus the CLI's typed exits.
ERROR_CLASSES = (
    "BadShape", "InvalidCell", "InvalidPriors", "BadIndex", "Unsupported",
    "DegenerateRange", "ShapeMismatch", "InvalidOverlap", "NonPositiveTotal",
    "InvalidHbar", "NotPositiveDefinite", "InvalidBasis", "ParseError", "NotCounts",
)

# Span names of the public calls reported per layer.  Each gets _us (median
# per call), _calls and _busy_ms (self time).
LAYER_CALLS = (
    "cli.main_analyze", "cli.main_ranges", "cli.main_verify",
    "cli.main_error", "cli.render_json", "tables.new_table",
    "tables.count_table", "tables.from_counts", "tables.intersection_range",
    "classical.bayes", "classical.naive", "classical.mean_frequency",
    "classical.mean_range", "quantum.overlap_coefficients", "quantum.posterior_2x2",
    "quantum.posterior_2x2_hbar", "quantum.posterior_general", "wavefunction.posterior",
    "oracle.mean_estimators", "oracle.enumerate_joint_counts",
)
SUITES = ("quantum.constraint_suite", "wavefunction.cross_path_suite")


class BenchError(Exception):
    """The benchmark itself could not run (missing sources, dead worker)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ------------------------------------------------------------------ processes

def launch_cli(argv: list[str], env: dict) -> tuple[float, int, bytes, bytes, int]:
    """One ``python -m qlr.cli`` child, timed from spawn to exit.

    Returns (seconds, exit code, stdout, stderr, peak RSS in KiB).  ``wait4``
    gives this child's own peak RSS.  Outputs are a few KiB, far below a
    pipe buffer, so reading stdout before stderr cannot stall the child.
    """
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "qlr.cli", *argv], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        proc.stderr.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return t1 - t0, proc.returncode, out, err, usage.ru_maxrss


def start_worker(workload: str, env: dict, setup_only: bool = False):
    """Spawn ``worker.py``; returns (process, seconds to READY, numpy version)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd + (["--setup-only"] if setup_only else []), cwd=ROOT,
                            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if not line.startswith("READY"):
        stop(proc)
        raise BenchError(f"worker for {workload} failed during set-up")
    return proc, ready, line.split("numpy=", 1)[-1].strip()


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def ask_worker(workload: str, env: dict, request: dict, on_pause=None) -> dict:
    """Send one request to a fresh worker and return its result.  The worker
    prints ``PAUSE`` when a set-up probe is due; ``on_pause`` runs it while
    the worker waits, and ``GO`` resumes the worker."""
    proc, _, version = start_worker(workload, env)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        proc.stdin.write(json.dumps(request) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        while line.strip() == "PAUSE":
            on_pause()
            proc.stdin.write("GO\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
        proc.stdin.close()
        proc.wait()
    finally:
        timer.cancel()
        stop(proc)
    if proc.returncode != 0 or not line.strip():
        raise BenchError(f"worker for {workload} exited {proc.returncode}")
    result = json.loads(line)
    result["numpy"] = version
    return result


class SetupProbes:
    """Set-up-only workers, each timed from spawn to READY: interpreter
    start, ``import qlr`` (numpy included) and the workload's warm-up.

    The loops call a probe between timed operations (see ``LoopClock``), so
    the probes sample the whole run.  Each is pinned to the next allowed CPU
    in turn, and this process's affinity is restored afterwards.
    """

    def __init__(self, workload: str, env: dict, count: int):
        self.workload, self.env, self.count = workload, env, count
        self.times: list[float] = []
        self.version = ""
        self._cpus = sorted(os.sched_getaffinity(0))

    def __call__(self) -> None:
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self._cpus[len(self.times) % len(self._cpus)]})
        try:
            proc, ready, self.version = start_worker(self.workload, self.env,
                                                     setup_only=True)
            stop(proc)
        finally:
            os.sched_setaffinity(0, before)
        self.times.append(ready)

    def finish(self) -> None:
        """Probes the loop ended before reaching run now."""
        while len(self.times) < self.count:
            self()


def import_split(env: dict, reps: int) -> dict:
    """``cli.interpreter_ms`` from ``python -c pass``; numpy and qlr import
    times from ``python -X importtime -c 'import qlr.cli'`` (cumulative
    microseconds of the top-level qlr.cli line minus numpy's)."""
    bare, numpy_us, qlr_us = [], [], []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        bare.append((perf_counter() - t0) * 1e3)
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qlr.cli"],
                              cwd=ROOT, env=env, check=True, capture_output=True, text=True)
        cumulative = {}
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, name = line.split("|")
            if name.strip() in ("numpy", "qlr.cli") and cum.strip().isdigit():
                cumulative.setdefault(name.strip(), int(cum))
        numpy_us.append(cumulative["numpy"])
        qlr_us.append(cumulative["qlr.cli"] - cumulative["numpy"])
    return {"cli.interpreter_ms": statistics.median(bare),
            "cli.import_numpy_ms": statistics.median(numpy_us) / 1e3,
            "cli.import_qlr_ms": statistics.median(qlr_us) / 1e3}


# ---------------------------------------------------------------- cli-oneshot

def write_files(files: dict[str, bytes]) -> None:
    for rel, data in files.items():
        path = ROOT / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def load_goldens() -> dict[str, bytes]:
    return {name: (ROOT / "docs" / "golden" / name).read_bytes()
            for _, name in inputs.GOLDEN_COMMANDS}


def cli_loop(seed: int, seconds: float, env: dict, prefix: str, goldens: dict,
             tracer=NULL, keep: list | None = None, probes: SetupProbes | None = None) -> dict:
    """Closed loop, one caller: each CLI child starts after the previous one
    exits.  Generating, checking and set-up probes happen between the timed
    launches; ``marks`` gets the end of each complete cycle."""
    log, marks = array("d"), array("q")
    sink = {"attempted": 0, "failed": 0, "problems": [], "untyped": Counter(), "peak_rss_kb": 0}
    clock = LoopClock(seconds, probes.count if probes else 0, probes)
    with cpu_turns() as next_cpu:
        cycle = 0
        while not clock.expired():
            for k, entry in enumerate(inputs.cli_cycle(seed, cycle, prefix)):
                if clock.expired():
                    break
                clock.between()
                write_files(entry["files"])
                next_cpu()
                with tracer.op("op.cli_invocation", f"{cycle}.{k}"):
                    dur, code, out, err, rss = launch_cli(entry["argv"], env)
                log.append(dur)
                sink["peak_rss_kb"] = max(sink["peak_rss_kb"], rss)
                sink["attempted"] += 1
                crash = checks.crash_class(code, err)
                if crash:
                    sink["failed"] += 1
                    sink["untyped"][crash] += 1
                    continue
                sink["problems"] += checks.cli_problems(entry, code, out, err,
                                                        goldens.get(entry.get("golden")))
                if keep is not None:
                    keep.append({"argv": entry["argv"], "kind": entry["kind"], "code": code,
                                 "stdout": out.decode(errors="replace")})
            else:
                marks.append(len(log))
            cycle += 1
    sink["summary"] = summarize(log, marks, TAIL["cli-oneshot"])
    return sink


def cli_probe(seed: int, env: dict, prefix: str) -> dict:
    """ROADMAP item 4 edge inputs, once per run, outside the timed loop."""
    sink = {"attempted": 0, "failed": 0, "untyped": Counter()}
    for entry in inputs.cli_edge(seed, prefix):
        write_files(entry["files"])
        _, code, out, err, _ = launch_cli(entry["argv"], env)
        sink["attempted"] += 1
        failure = checks.edge_failure(code, out, err)
        if failure:
            sink["failed"] += 1
            sink["untyped"][failure] += 1
    return sink


def run_cli(args, env: dict, probes: SetupProbes) -> dict:
    prefix = f".bench_out/inputs/cli-{args.seed}"
    shutil.rmtree(ROOT / prefix, ignore_errors=True)
    goldens = load_goldens()
    try:
        probe = cli_probe(args.seed, env, prefix)
        if not args.trace:
            return {"timed": cli_loop(args.seed, args.seconds, env, prefix, goldens,
                                      probes=probes),
                    "probe": probe}
        half = args.seconds / 2
        untraced = cli_loop(args.seed, half, env, prefix, goldens)
        tracer = Tracer()
        kept: list = []
        traced = cli_loop(args.seed, half, env, prefix, goldens, tracer, kept)
        inproc = ask_worker("cli-oneshot", env, {"entries": kept})
    finally:
        shutil.rmtree(ROOT / prefix, ignore_errors=True)
    layers = dict(inproc["layers"])
    layers.update(tracer.summary())
    traced["problems"] += inproc.get("problems", [])
    return {"untraced": untraced, "timed": traced, "probe": probe, "layers": layers,
            "exit_codes": inproc.get("exit_codes", {}), "numpy": inproc["numpy"]}


# ------------------------------------------------------------------- metrics

def end_to_end(result: dict, setup: list[float]) -> dict:
    s = result["timed"]["summary"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "latency_ms_p50": (s["latency_ms_p50"], "ms"),
        "latency_ms_tail": (s["latency_ms_tail"], "ms"),
        "ops_per_s": (s["ops_per_s"], "ops/s"),
    }


def workload_lines(workload: str, result: dict) -> list[str]:
    """Rates that exist on one workload only, printed by name and unit."""
    t = result["timed"]
    s = t["summary"]
    lines = [f"latency_ms_tail is p{s['tail_percentile']:g} of {s['count']} samples"]
    if workload == "cli-oneshot":
        lines.append(f"metric invocations_per_s {s['ops_per_s']!r} 1/s")
    elif workload == "score-stream":
        lines.append(f"metric tables_per_s {s['ops_per_s']!r} tables/s")
    else:
        lines.append(f"metric samples_per_s {t['suite_samples'] / t['suite_s']!r} samples/s")
        lines.append(f"metric oracle_tables_per_s {t['oracle_tables'] / t['oracle_s']!r} "
                     "tables/s")
    return lines


def error_ratio(result: dict) -> tuple[float, int, int, dict]:
    parts = [result["timed"]] + ([result["probe"]] if "probe" in result else [])
    attempted = sum(p.get("attempted", 0) for p in parts)
    failed = sum(p.get("failed", 0) for p in parts)
    classes = Counter()
    for p in parts:
        classes.update(p.get("untyped", {}))
    return failed / attempted, failed, attempted, dict(classes)


def per_layer(workload: str, result: dict, split: dict, request: dict) -> dict:
    layers = result["layers"]
    empty = {"calls": 0, "self_ns": 0, "median_ns": 0, "errors": {}, "typed_errors": 0}
    metrics = {name: (value, "ms") for name, value in split.items()}
    for prefix in LAYER_CALLS:
        entry = layers.get(prefix, empty)
        metrics[f"{prefix}_us"] = (entry["median_ns"] / 1e3, "us")
        metrics[f"{prefix}_calls"] = (entry["calls"], "count")
        metrics[f"{prefix}_busy_ms"] = (entry["self_ns"] / 1e6, "ms")
    for prefix in SUITES:
        entry = layers.get(prefix, empty)
        samples = request.get("samples", 0)
        per_sample = entry["median_ns"] / 1e3 / samples if samples else 0.0
        metrics[f"{prefix}_us_per_sample"] = (per_sample, "us")
        metrics[f"{prefix}_samples"] = (entry["calls"] * samples, "count")
        metrics[f"{prefix}_busy_ms"] = (entry["self_ns"] / 1e6, "ms")

    wf = layers.get("wavefunction.posterior", empty)
    completed = wf["calls"] - sum(wf["errors"].values())
    metrics["wavefunction.pd_ratio"] = (completed / wf["calls"] if wf["calls"] else 0.0, "ratio")

    timed = result["timed"]
    work = timed.get("oracle_work", {"candidates": 0, "pairs": 0, "feasible": 0})
    tables = timed.get("oracle_tables", 0)
    metrics["oracle.candidates_scanned"] = (work["candidates"] / tables if tables else 0.0,
                                            "count/table")
    metrics["oracle.pairs_scanned"] = (work["pairs"] / tables if tables else 0.0, "count/table")
    metrics["oracle.feasible_ratio"] = (
        work["feasible"] / work["candidates"] if work["candidates"] else 0.0, "ratio")

    # Errors over every traced call into the package; the CLI's main()
    # catches typed errors itself, so its exit codes 2 and 3 stand for them.
    calls = [v for k, v in layers.items() if not k.startswith("op.")]
    total = sum(v["calls"] for v in calls)
    by_class = Counter()
    for v in calls:
        by_class.update(v["errors"])
    typed_raised = sum(v["typed_errors"] for v in calls)
    exits = result.get("exit_codes", {})
    typed = typed_raised + exits.get("2", 0) + exits.get("3", 0)
    untyped = sum(by_class.values()) - typed_raised
    ratio, failed, _, _ = error_ratio(result)
    cli_failed = failed if workload == "cli-oneshot" else 0
    metrics["errors.typed_ratio"] = (typed / total if total else 0.0, "ratio")
    for name in ERROR_CLASSES:
        metrics[f"errors.typed_ratio.{name}"] = (
            by_class[name] / total if total else 0.0, "ratio")
    for code in ("2", "3"):
        metrics[f"errors.typed_ratio.cli_exit_{code}"] = (
            exits.get(code, 0) / total if total else 0.0, "ratio")
    metrics["errors.untyped_count"] = (untyped + cli_failed, "count")
    metrics["errors.error_ratio"] = (ratio, "ratio")

    fast = result["untraced"]["summary"]["ops_per_s"]
    metrics["trace.overhead_ratio"] = (result["timed"]["summary"]["ops_per_s"] / fast, "ratio")
    metrics["trace.spans"] = (sum(v["calls"] for v in layers.values()), "count")
    return metrics


# ---------------------------------------------------------------- provenance

def provenance(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qlr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "noise_note": NOISE_NOTE,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository (the
    ceiling keeps git from reporting an enclosing repository instead)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


# ---------------------------------------------------------------------- main

def check_checkout() -> None:
    needed = [ROOT / "src" / "qlr" / "__init__.py", ROOT / "docs" / "streets.csv"]
    needed += [ROOT / "docs" / "golden" / name for _, name in inputs.GOLDEN_COMMANDS]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError("not a qlr checkout, missing: " + ", ".join(missing))


def run(args) -> tuple[dict, dict]:
    check_checkout()
    OUT.mkdir(exist_ok=True)
    env = child_env()
    info = provenance(args)
    # set-up is an end-to-end metric, so only the untraced run probes it
    probes = SetupProbes(args.workload, env,
                         0 if args.trace else 2 if args.quick else SETUP_PROBES)

    if args.workload == "cli-oneshot":
        result = run_cli(args, env, probes)
        result["peak_rss_kb"] = result["timed"]["peak_rss_kb"]
        request = {}
    else:
        request = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "probes": probes.count}
        if args.workload == "self-check":
            request["samples"] = 10 if args.quick else inputs.SUITE_SAMPLES
            request["tables"] = 5 if args.quick else inputs.ORACLE_TABLES
        if args.trace:
            request["spans_path"] = str(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        result = ask_worker(args.workload, env, request, probes)
    probes.finish()
    setup = probes.times
    info["numpy"] = result.get("numpy") or probes.version
    info["setup_samples_s"] = setup

    if args.trace:
        split = import_split(env, 2 if args.quick else 3)
        metrics = per_layer(args.workload, result, split, request)
    else:
        metrics = end_to_end(result, setup)
    info["loadavg_end"] = os.getloadavg()
    info["sample_counts"] = {"ops": result["timed"]["summary"]["count"],
                             "setup_probes": len(setup), **request}
    return result, {"provenance": info, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="fewer set-up probes and smaller self-check rounds (smoke test)")
    args = parser.parse_args(argv)
    try:
        result, report = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    timed = result["timed"]
    problems = timed.get("problems", []) + result.get("probe", {}).get("problems", [])
    ratio, failed, attempted, classes = error_ratio(result)
    final = {
        "correct": not problems,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }
    report.update(result=final, problems=problems[:50], raw=result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, default=str))

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("provenance " + json.dumps(report["provenance"]))
    for k, (v, u) in report["metrics"].items():
        print(f"metric {k} {v!r} {u}")
    if not args.trace:
        for line in workload_lines(args.workload, result):
            print(line)
    print(f"metric error_ratio {ratio!r} ratio ({failed} of {attempted} operations failed, "
          f"timed loop and edge inputs; by class {classes})")
    for p in problems[:20]:
        print(f"WRONG: {p}")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
