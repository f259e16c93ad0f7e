"""In-memory spans for the traced run, and the per-name sums read from them.

A span is `[id, parent_id, name, tag, start_ns, end_ns]`; `parent_id` is -1
for a root. Spans nest strictly (one thread, calls return in order), so a
span's self time is its duration minus the summed durations of its children.
"""

from __future__ import annotations

import functools
import time


class NullTracer:
    """Untraced runs: calls go straight through, nothing is recorded."""

    spans = ()

    def call(self, name, tag, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records a span around each call made through `call` or `wrap`."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, tag, fn, *args, **kwargs):
        span = [len(self.spans), self._open[-1] if self._open else -1,
                name, tag, time.perf_counter_ns(), 0]
        self.spans.append(span)
        self._open.append(span[0])
        try:
            return fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, module, attr: str, name: str):
        """Replace `module.attr` with a traced version of itself; callers that
        look the name up in `module` at call time now record a span."""
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            return self.call(name, None, orig, *args, **kwargs)

        setattr(module, attr, traced)


def self_times(spans) -> list[int]:
    """Self time in ns of every span, indexed like `spans`."""
    child = [0] * len(spans)
    for sid, parent, _name, _tag, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[sid] for sid, _p, _n, _t, start, end in spans]
