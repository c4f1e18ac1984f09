"""In-memory spans around the calls the benchmark makes into qlr.

A span records its name, start and end (``perf_counter_ns``), its parent
span and the operation id (one table, CLI invocation or suite round) it
belongs to, plus the exception class if the call raised.  Spans stay in a
list until the run ends; ``summary`` derives per-name call counts, self time
(duration minus the part covered by child spans) and median duration.

The untraced run uses ``NULL``, whose ``op`` and ``wrap`` record nothing and
return the callable unchanged.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "op", "error", "typed")


class Tracer:
    def __init__(self, typed_base: type = Exception):
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, object]] = []   # (span id, op id)
        self._typed_base = typed_base

    @contextmanager
    def _span(self, name: str, op_id=None):
        sid = len(self.spans)
        self.spans.append(None)                      # keeps ids in start order
        parent, parent_op = self._stack[-1] if self._stack else (None, None)
        op_id = parent_op if op_id is None else op_id
        self._stack.append((sid, op_id))
        error = None
        start = perf_counter_ns()
        try:
            yield
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (
                sid, name, start, end, parent, op_id,
                None if error is None else type(error).__name__,
                isinstance(error, self._typed_base),
            )

    def op(self, name: str, op_id):
        """Span for one benchmark operation; calls inside it share ``op_id``."""
        return self._span(name, op_id)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self._span(name):
                return fn(*args, **kwargs)
        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, errors by class, self time and median."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[4] is not None:
                child_ns[s[4]] += s[3] - s[2]
        out: dict[str, dict] = {}
        durations: dict[str, list[int]] = {}
        for s in self.spans:
            sid, name, start, end, _, _, error, typed = s
            entry = out.setdefault(name, {"calls": 0, "self_ns": 0, "errors": {},
                                          "typed_errors": 0})
            entry["calls"] += 1
            entry["self_ns"] += end - start - child_ns[sid]
            durations.setdefault(name, []).append(end - start)
            if error is not None:
                entry["errors"][error] = entry["errors"].get(error, 0) + 1
                entry["typed_errors"] += typed
        for name, entry in out.items():
            entry["median_ns"] = statistics.median(durations[name])
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": FIELDS, "spans": self.spans}, handle)


class _NullTracer:
    def op(self, name, op_id):
        return nullcontext()

    def wrap(self, name, fn):
        return fn


NULL = _NullTracer()
