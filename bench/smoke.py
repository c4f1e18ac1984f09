"""Smoke test of the benchmark itself, in quick mode (about a minute).

    python3 bench/smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
on every workload, traced and untraced; that one seed always yields the
same inputs; and that corrupted expected outputs make the gate fail.
Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from measure import LoopClock  # noqa: E402
import run  # noqa: E402


def run_bench(workload: str, trace: int) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def test_metrics_emitted() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_bench(workload, trace)
            assert code == 0 and result["correct"], (workload, trace, result)
            assert result["attempted"] >= 1 and result["failed"] == 0, result
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_inputs_deterministic() -> None:
    generators = (
        lambda s: inputs.score_chunk(s, 4),
        inputs.score_edge,
        lambda s: inputs.self_check_round(s, 2),
        lambda s: inputs.cli_cycle(s, 1, "p"),
        lambda s: inputs.cli_edge(s, "p"),
    )
    for gen in generators:
        assert gen(7) == gen(7)
        assert gen(7) != gen(8)


def analyze_entry() -> dict:
    cycle = inputs.cli_cycle(5, 0, ".bench_out/inputs/smoke")
    return next(e for e in cycle if e["kind"] == "analyze" and e["format"] == "json")


def test_gate_rejects_corruption() -> None:
    # Golden bytes.
    argv, name = inputs.GOLDEN_COMMANDS[1]
    golden = (ROOT / "docs" / "golden" / name).read_bytes()
    entry = {"argv": list(argv), "kind": "ranges", "expect_code": 0, "golden": name}
    assert not checks.cli_problems(entry, 0, golden, b"", golden)
    assert checks.cli_problems(entry, 0, golden, b"", golden.replace(b"4", b"5", 1))

    # Reference posterior and expected exit code, on a real CLI run.
    entry = analyze_entry()
    run.write_files(entry["files"])
    _, code, out, err, _ = run.launch_cli(entry["argv"], run.child_env())
    assert not checks.cli_problems(entry, code, out, err), checks.cli_problems(entry, code, out, err)
    table = json.loads(json.dumps(entry["table"]))
    rows = table.get("values") or table["counts"]
    rows[0][0] = rows[0][0] * 0.5 if "values" in table else rows[0][0] + 1
    assert checks.cli_problems(dict(entry, table=table), code, out, err)
    assert checks.cli_problems(dict(entry, expect_code=2), code, out, err)

    # Posterior sum and argmax, oracle agreement.
    assert checks.posterior_problems("p", (0.5, 0.5), 1)
    assert checks.posterior_problems("p", (0.6, 0.4 + 1e-9), 0)
    assert checks.close_problems("o", (0.25, 0.75), (0.25 + 1e-13, 0.75), checks.ORACLE_TOL)


def test_worker_gate_rejects_corruption() -> None:
    import qlr
    import worker

    def nudged(pd):
        p = pd.probabilities
        return qlr.PosteriorDistribution((p[0] + 1e-9, p[1] - 1e-9), pd.method, pd.argmax_index)

    api = worker.Api()
    real_oracle = api.oracle
    api.oracle = lambda counts: dataclasses.replace(
        real_oracle(counts), mean_range=nudged(real_oracle(counts).mean_range))
    out = worker.Outcome()
    worker.oracle_table(api, {"counts": [[8, 7], [6, 5]], "populations": [10, 10]}, out)
    assert out.problems

    api = worker.Api()
    real_wf = api.wavefunction
    api.wavefunction = lambda table, overlap: nudged(real_wf(table, overlap))
    spec = {"kind": "general", "x": [[0.5, 0.4], [0.3, 0.6]], "priors": None,
            "overlap": [[[1.0, 0.2], [0.2, 1.0]]] * 2}
    out = worker.Outcome()
    worker.check_scores(spec, worker.score_table(api, spec, out), out)
    assert out.problems

    # A wrong but normalised posterior is caught by the reference formulas.
    for method in ("bayes", "naive", "mean_frequency", "mean_range", "posterior_2x2"):
        api = worker.Api()
        real = getattr(api, method)
        setattr(api, method, lambda *args, real=real: nudged(real(*args)))
        for spec in ({"kind": "prob2x2", "x": [[0.8, 0.3], [0.6, 0.5]], "priors": None,
                      "hbar": None},
                     {"kind": "counts", "counts": [[8, 7], [6, 5]], "populations": [10, 10]}):
            out = worker.Outcome()
            worker.check_scores(spec, worker.score_table(api, spec, out), out)
            if method not in ("mean_frequency", "mean_range") or spec["kind"] == "counts":
                assert out.problems, (method, spec)

    api = worker.Api()
    real_suite = api.cross_path_suite

    def failing_suite(samples, seed):
        report = real_suite(samples, seed)
        first = dataclasses.replace(report.checks[0], passes=report.checks[0].passes - 1)
        return dataclasses.replace(report, checks=(first, *report.checks[1:]))
    api.cross_path_suite = failing_suite
    sink: dict = {}
    worker.run_self_check(api, 1, LoopClock(0.01), worker.array("d"), worker.array("q"), sink,
                          2, 1)
    assert sink.get("problems")


def test_wrong_output_fails_the_run() -> None:
    real = run.load_goldens
    run.load_goldens = lambda: {k: v + b" " for k, v in real().items()}
    try:
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = run.main(["--workload", "cli-oneshot", "--seed", "1", "--seconds", "1",
                             "--quick"])
    finally:
        run.load_goldens = real
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False, (code, result)


def main() -> int:
    failed = 0
    for name, test in [(k, v) for k, v in globals().items() if k.startswith("test_")]:
        t0 = perf_counter()
        try:
            test()
        except Exception as exc:
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {name} ({perf_counter() - t0:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
