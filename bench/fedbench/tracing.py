"""In-memory spans around calls into the package, and their arithmetic.

The tracer replaces functions and methods, as bound in the modules that call
them, with wrappers that record one span per call: name, start, end, parent
span and request id. A request is one timed operation of the benchmark (a
federated round, an evaluation episode, an oracle slot); its root span is
opened by the benchmark itself. Wrappers are installed only while a traced
operation runs, so untraced operations call the package directly.

Spans stay in parallel lists until the run ends; `write_csv` dumps them.
"""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager

NO_PARENT = -1


class Tracer:
    """Records spans for the calls listed in `patches`.

    Each patch is (owner, attribute, span name, attr) where owner is a module
    or class and attr, when not None, maps (args, result) to an integer stored
    with the span (a batch size, a value count, a flag).
    """

    def __init__(self, patches, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.attrs: list[int] = []
        self._stack: list[int] = []
        self._request = NO_PARENT
        self._patches = [(owner, attribute, vars(owner)[attribute],
                          self.wrap(name, vars(owner)[attribute], attr))
                         for owner, attribute, name, attr in patches]

    def __len__(self) -> int:
        return len(self.names)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else NO_PARENT)
        self.requests.append(self._request)
        self.attrs.append(0)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, attr=None):
        """`fn` with a span around every call."""
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if attr is not None:
                self.attrs[idx] = int(attr(args, out))
            return out
        return traced

    @contextmanager
    def op(self, name: str, request: int):
        """Root span of one request, with every patch installed inside it."""
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)
        self._request = request
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self._request = NO_PARENT
            for owner, attribute, original, _ in self._patches:
                setattr(owner, attribute, original)

    def table(self) -> "SpanTable":
        return SpanTable(self.names, self.parents, self.requests,
                         self.starts, self.ends, self.attrs)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "parent", "request",
                          "start_ns", "end_ns", "attr"))
            for i, row in enumerate(zip(self.names, self.parents,
                                        self.requests, self.starts,
                                        self.ends, self.attrs)):
                out.writerow((i, *row))


def covered_length(intervals) -> int:
    """Length of the union of (start, end) intervals; empty ones count 0."""
    total = 0
    reach = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class SpanTable:
    """Spans as parallel lists; parents always precede their children."""

    def __init__(self, names, parents, requests, starts, ends, attrs):
        self.names = names
        self.parents = parents
        self.requests = requests
        self.starts = starts
        self.ends = ends
        self.attrs = attrs

    def __len__(self) -> int:
        return len(self.names)

    def duration(self, i: int) -> int:
        return self.ends[i] - self.starts[i]

    def self_times(self) -> list[int]:
        """Each span's duration minus the part its children's spans cover."""
        children: list[list[int]] = [[] for _ in self.names]
        for i, p in enumerate(self.parents):
            if p != NO_PARENT:
                children[p].append(i)
        out = []
        for i, kids in enumerate(children):
            lo, hi = self.starts[i], self.ends[i]
            covered = covered_length(
                (max(self.starts[c], lo), min(self.ends[c], hi)) for c in kids)
            out.append(hi - lo - covered)
        return out

    def roots(self) -> list[int]:
        """Index of each span's root span."""
        out = []
        for i, p in enumerate(self.parents):
            out.append(i if p == NO_PARENT else out[p])
        return out
