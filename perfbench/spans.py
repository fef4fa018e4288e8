"""In-memory spans recorded by the benchmark around its calls into the program.

A span holds its name, start and end (ns), the index of the span that
caused it and a request id shared by the spans of one suggestion request.
Layer names are the part of a span name before the first dot.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

import numpy as np


class Spans:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self._stack: list[int] = []

    def open(self, name: str, request: int = -1) -> int:
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        if request < 0 and parent >= 0:
            request = self.requests[parent]
        self.names.append(name)
        self.parents.append(parent)
        self.requests.append(request)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def durations_ns(self, name: str) -> np.ndarray:
        names = np.array(self.names)
        return (np.array(self.ends) - np.array(self.starts))[names == name]

    def self_ns_by_layer(self) -> dict[str, int]:
        """Span time minus the time its child spans cover, summed per layer."""
        if not self.names:
            return {}
        dur = np.array(self.ends, dtype=np.int64) - np.array(self.starts, dtype=np.int64)
        parents = np.array(self.parents)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - covered
        layers = np.array([name.split(".", 1)[0] for name in self.names])
        return {layer: int(own[layers == layer].sum()) for layer in np.unique(layers)}

    def write(self, path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.requests):
                fh.write(json.dumps(row, separators=(",", ":")))
                fh.write("\n")
