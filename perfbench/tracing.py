"""In-memory spans around the benchmark's calls into napsphere's layers.

A span is ``(op, span_id, parent_id, layer, name, start, end)`` with times
from ``time.perf_counter`` (system-wide monotonic on Linux, so a child
process's timestamps share the parent's clock).  ``op`` groups the spans of
one step of the benchmark loop; the root span of a step has layer ``None``
and stands for the benchmark's own loop and checks.

Only the benchmark's own call sites are wrapped; nothing inside the
package is instrumented.  When tracing is off, :meth:`Tracer.call` adds one
attribute test and one Python call to each wrapped call.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

LAYERS = ("import", "cli", "triangle", "napoleon", "classify", "ellipsoid", "oracle", "algebra")


class Tracer:
    """Collects spans while :attr:`on` is true."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list[tuple] = []
        self._op = 0
        self._parent: int | None = None

    def begin_op(self) -> float:
        """Open the root span of one step of the loop; returns its start."""
        self._op += 1
        self._parent = len(self.spans)
        start = time.perf_counter()
        self.spans.append((self._op, self._parent, None, None, "op", start, start))
        return start

    def end_op(self) -> None:
        op, sid, parent, layer, name, start, _ = self.spans[self._parent]
        self.spans[self._parent] = (op, sid, parent, layer, name, start, time.perf_counter())
        self._parent = None

    def call(self, layer: str, name: str, fn, *args):
        """Call ``fn(*args)``, recording a span when tracing is on."""
        if not self.on:
            return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.add(layer, name, start, time.perf_counter())

    def add(self, layer: str, name: str, start: float, end: float, parent: int | None = None) -> int:
        """Record a finished span (also used for spans timed in a child process)."""
        sid = len(self.spans)
        self.spans.append((self._op, sid, self._parent if parent is None else parent, layer, name, start, end))
        return sid


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[6] - s[5] for s in spans]
    for s in spans:
        if s[2] is not None:
            out[s[2]] -= s[6] - s[5]
    return out


def durations(spans: list[tuple], layer: str, name: str | None = None) -> list[float]:
    return [s[6] - s[5] for s in spans if s[3] == layer and (name is None or s[4] == name)]


def tail(values: list[float]) -> float:
    """The highest percentile that has at least ten samples beyond it; the
    maximum when there are fewer than eleven samples, 0 when there are none."""
    v = sorted(values)
    return v[-11] if len(v) >= 11 else (v[-1] if v else 0.0)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_summary(spans: list[tuple], wall: float) -> dict[str, float]:
    """``<layer>.calls``, ``<layer>.busy_frac`` and ``unattributed_frac``.

    A layer's busy time is the self time of its spans; whatever the root
    spans and the gaps between operations leave over is unattributed.
    """
    selfs = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, st in zip(spans, selfs):
        if s[3] is not None:
            busy[s[3]] += st
            calls[s[3]] += 1
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_frac"] = busy[layer] / wall if wall > 0 else 0.0
    out["unattributed_frac"] = 1.0 - sum(busy.values()) / wall if wall > 0 else 0.0
    return out
