"""Harness-side spans for the traced run.

The benchmark wraps its own spans around calls into each layer's public
functions (tracing inside the program is a later issue).  A span is
``(name, start, end, parent, request)``; spans stay in memory and are
written as JSON lines when the run ends.  A layer's self time is its
spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import json
import pathlib
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    """Nested spans of one thread of control."""

    def __init__(self):
        #: [name, start, end, parent index or None, request id]
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request=None):
        index = self.begin(name, request)
        try:
            yield index
        finally:
            self.end(index)

    def begin(self, name: str, request=None) -> int:
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, request])
        self._open.append(index)
        return index

    def end(self, index: int) -> float:
        """Close span ``index``; returns its duration in seconds."""
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._open.remove(index)
        return span[2] - span[1]

    def add(self, name, start, end, parent, request=None) -> int:
        """Record a span measured elsewhere (another thread, or derived
        from a duration the program reported)."""
        self.spans.append([name, start, end, parent, request])
        return len(self.spans) - 1

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        covered: dict[int, float] = defaultdict(float)
        for _name, start, end, parent, _request in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _request) in enumerate(self.spans):
            totals[name] += max(0.0, (end - start) - covered[index])
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def mean_ms(self, name: str) -> float:
        """Mean duration of the spans called ``name`` (0 when none)."""
        durations = self.durations(name)
        return 1000.0 * sum(durations) / len(durations) if durations else 0.0

    def coverage(self, root_name: str) -> float:
        """Share of the root spans' time that named child layers account
        for: 1 minus the roots' own self time over their duration."""
        total = sum(self.durations(root_name))
        if total <= 0:
            return 0.0
        return 1.0 - self.self_times().get(root_name, 0.0) / total

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")
