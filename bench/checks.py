"""The benchmark's correctness gate.

Every check returns a list of problems (empty when the output is right).
The reference formulas here are written out independently of ``qlr`` so a
wrong kernel cannot agree with itself; they cover the ordinary inputs the
CLI mix generates (cells of at least 0.01, populations up to 1000).
Standard library only, so the orchestrating process never imports qlr.
"""

from __future__ import annotations

import json
import math
from itertools import combinations

SUM_TOL = 1e-12          # in-process posteriors
SCORE_TOL = 1e-12        # in-process posteriors vs the reference formulas
# Below the smallest normal double each rounding carries an absolute error of
# up to 2**-1074, so weights summing to W fix a posterior only to about that
# over W.  Allows for 64 such roundings; negligible unless W is subnormal.
SUBNORMAL_SLACK = 64 * 2.0**-1074
PATHS_TOL = 1e-10        # state-vector vs block-sum, where positive definite
ORACLE_TOL = 1e-14       # closed-form mean estimators vs the oracle
# CLI reports carry 10 significant digits, so each value may be off by half a
# unit in the 10th digit; this bounds both sums and reference comparisons.
REPORT_TOL = 1e-9
PD_EIGENVALUE_TOL = 1e-12


def posterior_problems(label: str, probs, argmax_index: int) -> list[str]:
    """Sum to 1 within ``SUM_TOL``; argmax is the smallest index attaining
    the max."""
    probs = list(probs)
    problems = []
    if not all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probs):
        problems.append(f"{label}: probabilities outside [0, 1]: {probs}")
    if abs(math.fsum(probs) - 1.0) > SUM_TOL:
        problems.append(f"{label}: sums to {math.fsum(probs)!r}, not 1 within {SUM_TOL}")
    if probs:
        best = max(probs)
        want = probs.index(best)
        if argmax_index != want:
            problems.append(f"{label}: argmax {argmax_index}, smallest max index is {want}")
    return problems


def close_problems(label: str, got, want, tol: float) -> list[str]:
    got, want = list(got), list(want)
    if len(got) != len(want):
        return [f"{label}: {len(got)} values, expected {len(want)}"]
    worst = max(abs(g - w) for g, w in zip(got, want))
    if not worst <= tol:
        return [f"{label}: deviates by {worst:.3e} (tolerance {tol:g}): {got} vs {want}"]
    return []


def reference_problems(label: str, got, want: Reference) -> list[str]:
    """In-process posterior against its reference within ``SCORE_TOL``,
    widened by ``SUBNORMAL_SLACK`` over the reference's total weight."""
    if want is None:
        return [f"{label}: qlr gives {list(got)} where no reference value exists"]
    slack = SUBNORMAL_SLACK / want.total if want.total > 0.0 else math.inf
    return close_problems(label, got, want, SCORE_TOL + slack)


def golden_problems(name: str, out: bytes, golden: bytes) -> list[str]:
    if out != golden:
        return [f"golden {name}: output differs from docs/golden/{name}"]
    return []


# ------------------------------------------------------------------ reference

class Reference(list):
    """Reference probabilities and the total weight they were normalised by."""

    def __init__(self, probs, total: float = 1.0):
        super().__init__(probs)
        self.total = total


def _normalize(weights):
    total = math.fsum(weights)
    if not total > 0.0:
        return None
    return Reference([w / total for w in weights], total)


def reference_table(entry: dict):
    """(x, priors) as ``analyze`` resolves them: counts become count /
    population with population-share priors; --priors overrides both."""
    spec = entry["table"]
    if "counts" in spec:
        pops = spec["populations"]
        x = [[c / pops[a] for a, c in enumerate(row)] for row in spec["counts"]]
        priors = [p / sum(pops) for p in pops]
    else:
        x = spec["values"]
        n = len(x[0])
        priors = spec.get("priors") or [1.0 / n] * n
    if entry.get("priors") is not None:
        priors = entry["priors"]
    return x, priors


def _logsumexp(logs):
    top = max(logs)
    return top + math.log(math.fsum(math.exp(v - top) for v in logs))


def _softmax(logs):
    """Normalised ``exp(logs)``; the total is what linear arithmetic would
    sum to, capped at 1 (0.0 where every weight underflows, which lifts the
    value check)."""
    top = max(logs)
    probs = _normalize([math.exp(v - top) for v in logs])
    return Reference(probs, math.exp(min(_logsumexp(logs), 0.0)))


def _block_posterior(x, priors, overlap):
    """``P(a) ∝ priors[a] * sum_ij sqrt(x[i][a]) * sqrt(x[j][a]) * c[a][i][j]``."""
    m, n = len(x), len(x[0])
    blocks = [math.fsum(math.sqrt(x[i][a]) * math.sqrt(x[j][a]) * overlap[a][i][j]
                        for i in range(m) for j in range(m)) for a in range(n)]
    return _normalize([priors[a] * blocks[a] for a in range(n)])


def score_entry(spec: dict) -> dict:
    """A score-stream table spec in the form ``reference_methods`` reads."""
    if spec["kind"] == "counts":
        return {"table": {"counts": spec["counts"], "populations": spec["populations"]}}
    return {"table": {"values": spec["x"], "priors": spec["priors"]},
            "hbar": spec.get("hbar"), "overlap": spec.get("overlap")}


def reference_ranges(spec: dict) -> list[tuple[int, int, int, int, int]]:
    """(hypothesis, i, j, lo, hi) for every hypothesis and feature pair."""
    counts, pops = spec["counts"], spec["populations"]
    out = []
    for a, pop in enumerate(pops):
        for i, j in combinations(range(len(counts)), 2):
            ci, cj = counts[i][a], counts[j][a]
            out.append((a, i, j, max(0, ci + cj - pop), min(ci, cj)))
    return out


def reference_methods(entry: dict) -> dict[str, list[float]]:
    """Posterior of every method ``analyze --method all`` reports.

    Methods the input cannot support are absent, as ``analyze`` skips them.
    """
    x, priors = reference_table(entry)
    m, n = len(x), len(x[0])
    out: dict[str, list[float]] = {}
    for k in range(m):
        out[f"bayes:{k + 1}"] = _normalize([priors[a] * x[k][a] for a in range(n)])
    out["naive"] = _softmax([math.log(priors[a]) + math.fsum(math.log(x[i][a])
                                                             for i in range(m))
                             for a in range(n)])
    spec = entry["table"]
    if "counts" in spec and m == 2:
        pops = spec["populations"]
        ranges = {a: (lo, hi) for a, _, _, lo, hi in reference_ranges(spec)}
        out["mean-freq"] = _normalize(
            [priors[a] * (ranges[a][0] + ranges[a][1]) / 2 / pops[a] for a in range(n)])
        if n == 2:
            def ratio(k1, k2):
                u, v = priors[0] * k1 / pops[0], priors[1] * k2 / pops[1]
                return u / (u + v)
            p1 = (ratio(ranges[0][0], ranges[1][1]) + ratio(ranges[0][1], ranges[1][0])) / 2
            out["mean-range"] = Reference([p1, 1.0 - p1])
    if entry.get("overlap") is not None:
        out["quantum"] = _block_posterior(x, priors, entry["overlap"])
    elif (m, n) == (2, 2):
        # Solved overlaps c_a = sqrt(x[0][a] * x[1][a]) / (2 * x[0][b] * x[1][b])
        # (b the other hypothesis), scaled by 1 - exp(-hbar) when moderated.
        # Block a is x[0][a] + x[1][a] + 2 * sqrt(x[0][a] * x[1][a]) * c_a.
        # Worked in logs so that tiny cells neither underflow nor overflow.
        hbar = entry.get("hbar")
        log_scale = 0.0 if hbar is None else math.log(-math.expm1(-hbar))
        log_cols = [math.log(x[0][a]) + math.log(x[1][a]) for a in range(2)]
        log_c = [log_scale + 0.5 * log_cols[a] - math.log(2.0) - log_cols[1 - a]
                 for a in range(2)]
        log_blocks = [_logsumexp([math.log(x[0][a]), math.log(x[1][a]),
                                  math.log(2.0) + 0.5 * log_cols[a] + log_c[a]])
                      for a in range(2)]
        out["quantum"] = _softmax([math.log(priors[a]) + log_blocks[a] for a in range(2)])
        # eigenvalues of [[1, c], [c, 1]] are 1 +- c
        if all(v < math.log1p(-PD_EIGENVALUE_TOL) for v in log_c):
            out["wavefunction"] = out["quantum"]
    return {k: v for k, v in out.items() if v is not None}


# ------------------------------------------------------------------ CLI output

def _text_posteriors(text: str, hypotheses) -> dict[str, tuple[list[float], int]]:
    """Parse the ``posteriors:`` block of ``analyze`` text output."""
    out = {}
    lines = text.splitlines()
    start = lines.index("posteriors:") + 1
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        fields = line.split()
        selector, pairs, argmax = fields[0], fields[1:-1], fields[-1]
        probs = [float(p.split("=", 1)[1]) for p in pairs]
        out[selector] = (probs, list(hypotheses).index(argmax.split("=", 1)[1]))
    return out


def _text_ranges(text: str) -> list[tuple[str, str, str, int, int]]:
    out = []
    for line in text.splitlines():
        if " in [" not in line:
            continue
        head, rng = line.strip().split(" in [")
        hyp, pair = head.split(": ")
        fi, fj = pair.split(" & ")
        lo, hi = rng.rstrip("]").split(", ")
        out.append((hyp, fi, fj, int(lo), int(hi)))
    return out


def _ranges_match(entry: dict, got: list[tuple[str, str, str, int, int]]) -> list[str]:
    want = [(f"h{a + 1}", f"f{i + 1}", f"f{j + 1}", lo, hi)
            for a, i, j, lo, hi in reference_ranges(entry["table"])]
    if got != want:
        return [f"{' '.join(entry['argv'])}: ranges {got} differ from {want}"]
    return []


def cli_problems(entry: dict, code: int, out: bytes, err: bytes,
                 golden: bytes | None = None) -> list[str]:
    """Check one timed CLI invocation against its expected exit code, its
    golden file or the reference formulas."""
    cmd = " ".join(entry["argv"])
    if b"Traceback" in err:
        return [f"{cmd}: traceback: {err.decode(errors='replace').strip().splitlines()[-1]}"]
    if code != entry["expect_code"]:
        return [f"{cmd}: exit {code}, expected {entry['expect_code']}"]
    if entry["kind"] == "error":
        if out or not err.startswith(b"qlr: error:"):
            return [f"{cmd}: expected only a 'qlr: error:' line on stderr"]
        return []
    if err:
        return [f"{cmd}: unexpected stderr {err[:200]!r}"]
    if "golden" in entry:
        return golden_problems(entry["golden"], out, golden)
    text = out.decode()
    if entry["kind"] == "ranges":
        if entry["format"] == "json":
            got = [(r["hypothesis"], *r["features"], r["lo"], r["hi"])
                   for r in json.loads(text)["ranges"]]
        else:
            got = _text_ranges(text)
        return _ranges_match(entry, got)

    n = len(entry["table"].get("values", entry["table"].get("counts"))[0])
    hypotheses = [f"h{a + 1}" for a in range(n)]
    if entry["format"] == "json":
        report = json.loads(text)
        got = {k: (v["probabilities"], v["argmax_index"])
               for k, v in report["methods"].items()}
        problems = []
        if "counts" in entry["table"]:
            problems += _ranges_match(entry, [
                (r["hypothesis"], *r["features"], r["lo"], r["hi"])
                for r in report.get("ranges", [])])
    else:
        got = _text_posteriors(text, hypotheses)
        problems = []
    want = reference_methods(entry)
    if set(got) != set(want):
        return problems + [f"{cmd}: methods {sorted(got)}, expected {sorted(want)}"]
    for method, (probs, argmax) in got.items():
        label = f"{cmd} [{method}]"
        problems += close_problems(label, probs, want[method], REPORT_TOL)
        problems += report_posterior_problems(label, probs, argmax, want[method])
    return problems


def report_posterior_problems(label: str, probs, argmax: int, exact) -> list[str]:
    """Posterior checks on 10-significant-digit report values: the sum within
    ``REPORT_TOL``, and the argmax is the smallest index whose exact
    reference value attains the maximum (rounding may tie reported values)."""
    problems = []
    if abs(math.fsum(probs) - 1.0) > REPORT_TOL:
        problems.append(f"{label}: sums to {math.fsum(probs)!r}")
    ties = [a for a, v in enumerate(exact) if v >= max(exact) - REPORT_TOL]
    if argmax not in ties:
        problems.append(f"{label}: argmax {argmax}, expected one of {ties}")
    return problems


def crash_class(code: int, err: bytes) -> str | None:
    """The exception named by a traceback on stderr, or ``exit_<code>`` for
    an exit code outside 0, 2 and 3; None when the CLI did not crash."""
    if b"Traceback" in err:
        last = err.decode(errors="replace").strip().splitlines()[-1]
        return last.split(":", 1)[0].rsplit(".", 1)[-1] or "Traceback"
    if code not in (0, 2, 3):
        return f"exit_{code}"
    return None


def edge_failure(code: int, out: bytes, err: bytes) -> str | None:
    """The documented contract for in-domain input: a result (exit 0) with
    valid posteriors, or a typed error (exit 2 or 3), never a traceback.
    Returns the failure class or None."""
    crash = crash_class(code, err)
    if crash or code != 0:
        return crash
    for name, entry in json.loads(out)["methods"].items():
        probs = entry["probabilities"]
        if report_posterior_problems(name, probs, entry["argmax_index"], probs):
            return "bad_posterior"
    return None
