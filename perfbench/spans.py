"""In-memory spans for the traced run.

A span is [op, name, parent, start, end] with `perf_counter` seconds; the
parent is an index into the same list, -1 for a root. Spans stay in memory
until the run ends and `dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = []  # (name, args, result) of wrapped calls that keep them
        self.op = -1
        self._stack = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [self.op, name, parent, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, keep: bool = False):
        """`fn` with a span around every call; `keep` also records the call's
        arguments and result in `calls`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep:
                self.calls.append((name, args, result))
            return result

        return traced

    @contextmanager
    def patched(self, module, attr: str, name: str, keep: bool = False):
        """Route `module.attr` through `wrap` while the context is open, so a
        public call made inside another public function gets its own span."""
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original, name, keep))
        try:
            yield
        finally:
            setattr(module, attr, original)

    def self_times(self, first: int) -> dict:
        """Seconds of self time per span name over spans[first:]: each span's
        duration minus the durations of its direct children."""
        spans = self.spans[first:]
        own = [end - start for _, _, _, start, end in spans]
        for _, _, parent, start, end in spans:
            if parent >= first:
                own[parent - first] -= end - start
        out = {}
        for (_, name, _, _, _), t in zip(spans, own):
            out[name] = out.get(name, 0.0) + t
        return out

    def dump(self, path):
        rows = [
            {"op": op, "name": name, "parent": parent,
             "start_us": round(start * 1e6, 1), "dur_us": round((end - start) * 1e6, 1)}
            for op, name, parent, start, end in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"spans": rows}, f)
