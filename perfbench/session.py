"""Bookkeeping for one benchmark process: samples, oracles, counts, spans."""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import oracles
from probe import Sample, median, timed
from spans import Tracer


class OpFailed(Exception):
    """An operation raised; the rest of that input's cycle is skipped."""


def span_name(fn, layer: str | None) -> str:
    if layer:
        return layer.rsplit("_", 1)[0]
    return f"{fn.__module__.removeprefix('rhflow.')}.{fn.__name__}"


class Session:
    """Times operations, runs their oracles after the timed interval and
    counts failures instead of raising them.

    ``reference`` maps record keys to the seed-commit values the oracles
    compare against; with ``reference=None`` the session records them
    instead (see make_reference.py).
    """

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.records: dict[str, dict] = {}
        self.tracer = Tracer()
        self.tracing = False  # whether calls made now record spans
        self.op_id: str | None = None
        # (metric, key, traced) -> [Sample]
        self.samples: dict[tuple, list[Sample]] = defaultdict(list)
        self.layer_s: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, dict[str, float]] = defaultdict(dict)
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def span(self, name: str):
        if not self.tracing:
            return contextlib.nullcontext()
        return self.tracer.span(name, self.op_id)

    def op(self, metric, key, fn, *args, layer=None, check=None, **kwargs):
        """One timed public call.  ``metric`` is the end-to-end metric the
        sample counts toward (or None), ``layer`` the per-layer metric.
        ``check(result)`` returns a list of problems; it runs untimed."""
        self.attempted += 1
        try:
            with self.span(span_name(fn, layer)):
                result, sample = timed(fn, *args, **kwargs)
        except Exception as exc:  # counted, reported, never raised
            self.failures.append((key, [f"raised {exc!r}"]))
            raise OpFailed(key) from exc
        if metric:
            self.samples[(metric, key, self.tracing)].append(sample)
        if layer:
            self.layer_s[layer].append(sample.raw_s)
        try:
            problems = check(result) if check else []
        except Exception as exc:  # an output the oracle cannot even read
            problems = [f"oracle raised {exc!r}"]
        if problems:
            self.failures.append((key, problems))
        return result

    def match(self, key: str, record: dict) -> list[str]:
        """Compare a check's record with the stored seed-commit record."""
        if self.reference is None:
            self.records[key] = record
            return []
        ref = self.reference.get(key)
        if ref is None:
            return [f"no reference record for {key}"]
        return oracles.match_record(record, ref)

    def time_layer(self, layer: str, fn, *args, min_reps=3, max_reps=30,
                   budget_s=0.3, fresh=None, **kwargs):
        """Kernel timing without probes: raw seconds of repeated calls, at
        least ``min_reps`` and until ``budget_s`` is spent.  ``fresh()``,
        when given, builds the first argument anew (untimed) for every
        repetition, so caches on it start cold."""
        spent = 0.0
        for rep in range(max_reps):
            call_args = (fresh(),) + args if fresh else args
            self.attempted += 1
            try:
                with self.span(span_name(fn, layer)):
                    t = time.perf_counter()
                    fn(*call_args, **kwargs)
                    dt = time.perf_counter() - t
            except Exception as exc:  # counted; the metric is then missing
                self.failures.append((layer, [f"raised {exc!r}"]))
                return
            self.layer_s[layer].append(dt)
            spent += dt
            if rep + 1 >= min_reps and spent >= budget_s:
                break

    def totals(self, metric: str, traced: bool = False) -> dict:
        """Per-key medians of scaled and raw seconds summed over the metric's
        keys, the smallest sample count among the keys, and the median probe
        time of its samples."""
        keys = [k for k in self.samples if k[0] == metric and k[2] == traced]
        if not keys:
            return {"scaled": float("nan"), "raw": float("nan"), "n": 0, "probe_ms": float("nan")}
        samples = [self.samples[k] for k in keys]
        return {
            "scaled": sum(median([x.scaled_s for x in ss]) for ss in samples),
            "raw": sum(median([x.raw_s for x in ss]) for ss in samples),
            "n": min(len(ss) for ss in samples),
            "probe_ms": 1e3 * median([p for ss in samples for x in ss
                                      for p in (x.probe_before_s, x.probe_after_s)]),
        }

    def probe_ms(self) -> float:
        probes = [p for ss in self.samples.values() for s in ss
                  for p in (s.probe_before_s, s.probe_after_s)]
        return 1e3 * median(probes) if probes else float("nan")
