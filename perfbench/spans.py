"""In-memory spans for the traced run.

A span is recorded around each call the benchmark makes into the package,
and around each workload operation (one cycle of one input), which is the
parent of the calls inside it.  Spans stay in memory and are written out
when the benchmark ends.  A layer's self time is the duration of its spans
minus the part covered by their child spans; the layer is the first dotted
component of the span name (``geometry.ricci`` -> ``geometry``).
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op_id: str | None):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": op_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per layer."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for s in spans:
        out[s["name"].split(".", 1)[0]] += (s["end"] - s["start"]) - covered[s["id"]]
    return dict(out)
