"""Probe-normalised timing of single public calls.

The host this benchmark was written on changes speed by up to 2x over a few
seconds, so the wall time of one call does not repeat between processes.
Every timed call is therefore bracketed by a fixed single-threaded numpy
probe (a batched 2x2 inverse, rolls and an ellipsis einsum on a 64x64 metric
field, plus small-array rolls; about 15-20 ms), and its time is rescaled to
a nominal machine:

    scaled_s = raw_s * P_NOM_S / mean(probe_before_s, probe_after_s)

The unit stays seconds.  The raw seconds and both probe times are kept with
every sample so the rescaling can be audited.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

# Nominal probe time.  A fixed constant: changing it rescales every timing.
P_NOM_S = 0.0175
PROBE_N = 64
PROBE_CHUNKS = 4
CHUNK_REPS = 1


def _probe_fields() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.arange(PROBE_N) * (2.0 * np.pi / PROBE_N)
    X, Y = np.meshgrid(x, x, indexing="ij")
    g = np.exp(0.2 * np.cos(X) + 0.1 * np.sin(X + Y))[..., None, None] * np.eye(2)
    off = 0.02 * np.sin(Y)
    g[..., 0, 1] = off
    g[..., 1, 0] = off
    line = 2.0 + np.sin(np.arange(2 * PROBE_N) * (np.pi / PROBE_N))
    return g, g[..., 0, 0].copy(), line


_G, _S, _LINE = _probe_fields()


def median(values) -> float:
    return float(statistics.median(values))


def probe_kernel(reps: int = CHUNK_REPS) -> float:
    """The fixed probe workload; returns a checksum so nothing is skipped.

    One batched 2x2 inverse of the 64x64 metric field, then rolls and an
    ellipsis einsum on that field, rolls of a 64x64 scalar field, and rolls
    of a 128-node line.  The small-array rolls are there because the
    per-call overhead of numpy dominates the 1-D runs and many checks, and
    it responds to the host's slow spells less than array traffic does.
    """
    inv = np.linalg.inv(_G)
    acc = 0.0
    for _ in range(reps):
        a = 0.5 * (np.roll(_G, 1, axis=0) + np.roll(_G, -1, axis=1))
        acc += float(np.einsum("...ij,...jk->...ik", inv, a)[..., 0, 0].sum())
        for _ in range(10):
            acc += float((np.roll(_S, -1, axis=0) - np.roll(_S, 1, axis=0))[0, 0])
        for _ in range(40):
            acc += float((np.roll(_LINE, -1) - 2.0 * _LINE + np.roll(_LINE, 1))[0])
    return acc


def probe_s() -> float:
    """One probe time: the kernel in PROBE_CHUNKS equal chunks, reported as
    PROBE_CHUNKS times the median chunk, so one interrupted chunk does not
    skew the probe."""
    chunks = []
    for _ in range(PROBE_CHUNKS):
        t = time.perf_counter()
        probe_kernel()
        chunks.append(time.perf_counter() - t)
    return PROBE_CHUNKS * median(chunks)


def rescale(raw_s: float, probe_before_s: float, probe_after_s: float,
            p_nom_s: float = P_NOM_S) -> float:
    """Raw seconds expressed on the nominal machine."""
    return raw_s * p_nom_s / (0.5 * (probe_before_s + probe_after_s))


@dataclass(frozen=True)
class Sample:
    raw_s: float
    probe_before_s: float
    probe_after_s: float

    @property
    def scaled_s(self) -> float:
        return rescale(self.raw_s, self.probe_before_s, self.probe_after_s)


def timed(fn, *args, **kwargs):
    """Call fn once between two probes; return (result, Sample)."""
    before = probe_s()
    t = time.perf_counter()
    result = fn(*args, **kwargs)
    raw = time.perf_counter() - t
    return result, Sample(raw, before, probe_s())
