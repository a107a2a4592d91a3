"""In-memory spans recorded around calls into the program's layers.

Each span carries a name, start and end (monotonic nanoseconds), the
index of its parent span and the id of the op it belongs to.  Spans
nest per thread.  Nothing is written until :meth:`Tracer.write_chrome`
exports the whole run as Chrome trace-event JSON (opens in Perfetto).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator, Optional

#: Name of the root span that wraps one benchmark op.
OP = "op"


class Tracer:
    """Collects nested spans from any number of threads."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent, op, thread]`` per span.
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, op: Optional[str]) -> tuple[int, Optional[str]]:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][4]
        return parent, op

    def open(self, name: str, op: Optional[str] = None) -> int:
        """Start a span as a child of this thread's innermost open span."""
        parent, op = self._parent(op)
        record = [name, time.perf_counter_ns(), None, parent, op, threading.get_ident()]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        self._stack().append(index)
        return index

    def close(self, index: Optional[int] = None) -> None:
        """End the innermost open span, or every span down to ``index``.

        Closing down to an index also ends children a raising call left
        open, so one failed op cannot corrupt the nesting of the next.
        """
        stack = self._stack()
        now = time.perf_counter_ns()
        while stack:
            top = stack.pop()
            self.spans[top][2] = now
            if index is None or top == index:
                return

    @contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[None]:
        index = self.open(name, op)
        try:
            yield
        finally:
            self.close(index)

    # -- analysis -------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child_ns: dict[int, int] = defaultdict(int)
        for _name, start, end, parent, _op, _tid in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _op, _tid) in enumerate(self.spans):
            totals[name] += (end - start - child_ns[index]) / 1e9
        return dict(totals)

    def coverage(self, root: str = OP) -> float:
        """Share of root-span time covered by their direct child spans."""
        roots = {i for i, s in enumerate(self.spans) if s[0] == root}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        covered = sum(end - start for _n, start, end, parent, _o, _t in self.spans
                      if parent in roots)
        return covered / total if total else 0.0

    def write_chrome(self, path: str) -> None:
        """Export every span as Chrome trace-event JSON."""
        origin = min((s[1] for s in self.spans), default=0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": tid,
                "args": {"op": op, "parent": parent},
            }
            for name, start, end, parent, op, tid in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
