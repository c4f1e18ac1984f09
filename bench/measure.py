"""Closed-loop timing records and the statistics reported from them."""

from __future__ import annotations

import itertools
import math
import os
import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter

# Tail percentile per workload, fixed so that a faster program, which
# completes more operations, is not judged at a higher percentile than its
# parent; fewer than ten samples beyond it fall back down the ladder.  The
# highest level with ten samples beyond it (p99.9 and up in a score-stream or
# self-check run) is set by how often the shared host preempts this process,
# not by the program: p99 on score-stream spread 0.29 and 0.60 of its median
# over two sets of ten runs of the same code.  p90 stays inside the
# program's own spread of costs.  cli-oneshot has 130 to 200 samples a run,
# so p75.
TAIL = {"cli-oneshot": 75.0, "score-stream": 90.0, "self-check": 90.0}
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def nearest_rank(sorted_values, q: float) -> float:
    k = max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def tail_level(count: int, wanted: float) -> float:
    for q in TAIL_LADDER:
        if q <= wanted and count * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def summarize(durations: array, marks: array, tail: float) -> dict:
    """Median and tail latency in ms, and operations per second.

    ``marks`` holds the end index of each complete group of operations (a
    score chunk, a self-check round, a CLI cycle), each with the workload's
    fixed mix.  ``latency_ms_p50`` is the median of the groups' medians and
    ``ops_per_s`` the median of their operations over summed wall time: a
    group the host stalled or slowed is one outlier among many, where a
    pooled median or a run-wide mean moves with every stall.  The tail needs
    every sample, so it is pooled.  With no complete group, the whole run
    counts as one.
    """
    values = sorted(durations)
    level = tail_level(len(values), tail)
    bounds = list(marks) or [len(durations)]
    groups = [durations[start:end] for start, end in zip([0, *bounds], bounds)]
    return {
        "count": len(values),
        "groups": len(groups),
        "latency_ms_p50": statistics.median(statistics.median(g) for g in groups) * 1e3,
        "latency_ms_tail": nearest_rank(values, level) * 1e3,
        "tail_percentile": level,
        "ops_per_s": statistics.median(len(g) / math.fsum(g) for g in groups),
        "busy_s": math.fsum(values),
    }


@contextmanager
def cpu_turns():
    """Yields a function that pins this process to the next allowed CPU.

    On a shared VM one CPU can sit next to a busy neighbour and run about
    1.3x slower than the other for minutes.  A process left alone stays on
    one CPU for a whole run, so runs differ by where they happened to land.
    Taking the CPUs in turn (per chunk, round, invocation or set-up probe;
    children inherit the pin) gives every run the same share of each.  The
    original affinity is restored on exit.
    """
    cpus = sorted(os.sched_getaffinity(0))
    turns = itertools.count()

    def next_cpu() -> None:
        os.sched_setaffinity(0, {cpus[next(turns) % len(cpus)]})

    try:
        yield next_cpu
    finally:
        os.sched_setaffinity(0, cpus)


class LoopClock:
    """The time budget of one closed loop, with set-up probes spread over it.

    The loop calls ``between()`` at boundaries between timed operations.
    When a probe is due (``probes`` of them, evenly spaced over ``seconds``
    of loop time, the first at the start) it calls ``probe()``.  The time
    that takes is added to the budget, so probes neither shorten the loop
    nor land inside a timed operation.  Spreading them over the run lets
    their median see the host's fast and slow phases alike.
    """

    def __init__(self, seconds: float, probes: int = 0, probe=None):
        self.step = seconds / probes if probes else math.inf
        self.probes = probes
        self.probe = probe
        self.done = 0
        self.start = perf_counter()
        self.deadline = self.start + seconds
        self.paused = 0.0

    def expired(self) -> bool:
        return perf_counter() >= self.deadline

    def between(self) -> None:
        now = perf_counter()
        if self.done < self.probes and now - self.start - self.paused >= self.done * self.step:
            self.probe()
            spent = perf_counter() - now
            self.done += 1
            self.paused += spent
            self.deadline += spent
