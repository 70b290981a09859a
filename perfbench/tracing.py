"""In-memory span recorder for the benchmark's own calls into hypfrac.

A span has a name ``<layer>.<call>``, start and end (``perf_counter_ns``),
the id of the span open around it, one trace id per workload item, and
optional attributes (counts measured at the same boundary).  Spans stay in
memory and are written out once, when the run ends.

``NULL_TRACER`` has the same interface and records nothing, so the timed
loops run the same code with tracing on and off.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # dicts, appended when a span closes
        self._stack = []         # ids of the open spans
        self._next_id = 1
        self.trace_id = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        record = {"id": span_id, "parent": parent, "trace": self.trace_id,
                  "name": name, "attrs": attrs}
        start = time.perf_counter_ns()
        try:
            yield record["attrs"]
        finally:
            record["start"] = start
            record["end"] = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(record)

    def durations_s(self, name: str, **match) -> list:
        """Durations in seconds of the closed spans called ``name`` whose
        attributes include every ``match`` item, in closing order."""
        return [(s["end"] - s["start"]) * 1e-9 for s in self.spans
                if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in match.items())]

    def find(self, name: str) -> list:
        return [s for s in self.spans if s["name"] == name]

    def self_time_by_layer_s(self) -> dict:
        """Per layer (the name up to the first dot): the summed duration of
        its spans minus the time covered by their child spans.  Spans nest
        strictly in one thread, so children never overlap."""
        child_time = defaultdict(int)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            own = s["end"] - s["start"] - child_time[s["id"]]
            out[s["name"].split(".", 1)[0]] += own * 1e-9
        return dict(out)


class _NullTracer:
    trace_id = 0

    def span(self, name: str, **attrs):
        return contextlib.nullcontext(attrs)


NULL_TRACER = _NullTracer()
