"""In-memory spans for the benchmark's traced runs.

Spans are recorded only by wrappers the benchmark puts around its own
calls into coreseq (see `workloads.Layers`); nothing inside ``src/``
records spans.  This module imports nothing from coreseq, so the import
of the package itself can be traced.
"""

from __future__ import annotations

from time import perf_counter

# span record fields, in order
FIELDS = ("name", "start", "end", "parent", "item")


class Tracer:
    """In-memory span log: one ``[name, start, end, parent, item]`` per span.

    ``parent`` is the index of the enclosing span or -1; ``item`` is the id
    of the benchmark item being processed, or ``"setup"`` before timing.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = "setup"

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.item]
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out
