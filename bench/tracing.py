"""Spans around calls into reconlab's modules, recorded from outside the package.

The traced run wraps each public function the benchmark calls with a span,
and rebinds the names one module imported from another (for example
`reconlab.verifiers.lambda0_search`) to the same wrapper, so calls a layer
makes into another layer are spans too. No file of the package changes.

A span is `[name, start, end, parent, op, attrs]`: `parent` is the index of
the enclosing span (-1 for an operation's root span), `op` the operation
number. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from functools import wraps

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        """`fn` timed as a span; `name` may be a function of (args, result)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                label = name(args, result) if callable(name) else name
                extra = attrs(args, kwargs, result) if attrs is not None else None
                spans[idx] = [label, start, end, parent, self.op, extra]

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_stats(spans, scale) -> dict:
    """Per span name: calls, self seconds, inclusive durations, and attrs.

    Self time is a span's duration minus the time its child spans cover;
    the run is single-threaded, so children nest and never overlap. Each
    duration is multiplied by `scale[op]`, its operation's calibration factor.
    """
    dur = [(end - start) * scale[op] for _, start, end, _, op, _ in spans]
    child = [0.0] * len(spans)
    for k, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[k]
    stats = {}
    for k, (name, _, _, _, op, attrs) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": [],
                                    "attrs": [], "ops": []})
        s["calls"] += 1
        s["self_s"] += dur[k] - child[k]
        s["durations"].append(dur[k])
        s["attrs"].append(attrs)
        s["ops"].append(op)
    return stats


def p50_ms(durations) -> float:
    return float(np.median(durations)) * 1e3 if durations else 0.0
