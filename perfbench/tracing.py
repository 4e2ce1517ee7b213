"""In-memory spans around calls into the program's modules.

A span records its name, start, end and parent span. Spans stay in memory
while the traced run executes and are written out when it ends. A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [span_id, parent, name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def patched(self, owner, attr: str, name: str, count: str | None = None):
        """Route calls the program makes to ``owner.attr`` through a span.

        ``owner`` is a module or a class; a class's methods and classmethods
        stay methods. With ``count``, the length of each result is added to
        ``self.counts[count]``.
        """
        raw = vars(owner)[attr]
        original = raw.__func__ if isinstance(raw, classmethod) else raw

        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if count:
                self.counts[count] += len(result)
            return result

        setattr(owner, attr, classmethod(traced) if isinstance(raw, classmethod) else traced)
        try:
            yield
        finally:
            setattr(owner, attr, raw)

    def self_times(self) -> dict[str, float]:
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            totals[name] += (end - start) - child_time[span_id]
        return dict(totals)

    def root_time(self) -> float:
        return sum(end - start for _, parent, _, start, end in self.spans if parent is None)

    def write(self, path: Path, metrics: dict) -> None:
        origin = self.spans[0][3] if self.spans else 0.0
        payload = {
            "metrics": metrics,
            "spans": [
                {"id": i, "parent": p, "name": n, "start_s": s - origin, "end_s": e - origin}
                for i, p, n, s, e in self.spans
            ],
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
