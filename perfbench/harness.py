"""Measurement helpers: percentiles, spans and self time, process probes.

Nothing here imports the program under test.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata

import numpy as np


@dataclass(frozen=True)
class Quantile:
    """A percentile together with the samples it rests on.

    ``beyond`` counts samples strictly above ``value``; a tail figure is
    trustworthy only when it is about ten or more.
    """

    value: float
    count: int
    beyond: int


def percentile(values, q: float) -> Quantile:
    """The q-th percentile (0 <= q <= 100) by linear interpolation.

    Interpolates between the order statistics at rank q/100 * (count - 1),
    as numpy's default method does.  Raises ValueError on no samples.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q!r}")
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    rank = q / 100.0 * (len(data) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    value = data[lo] + (data[hi] - data[lo]) * (rank - lo)
    beyond = sum(1 for v in data if v > value)
    return Quantile(value=value, count=len(data), beyond=beyond)


def median(values) -> float:
    return percentile(values, 50.0).value


@dataclass(slots=True)
class Span:
    """One timed call: [start_ns, end_ns] on the perf_counter_ns clock."""

    span_id: int
    parent_id: int | None
    request_id: int | None
    name: str
    start_ns: int
    end_ns: int
    size: int = 0
    error: str | None = None
    attrs: dict | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def covered_ns(start_ns: int, end_ns: int, intervals) -> int:
    """Length of [start_ns, end_ns] covered by the union of the intervals.

    Intervals may nest or overlap; each is clipped to the window first.
    """
    clipped = sorted(
        (max(s, start_ns), min(e, end_ns)) for s, e in intervals if e > start_ns and s < end_ns
    )
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time_ns(span: Span, children) -> int:
    """The span's duration minus the part of it its child spans cover."""
    return span.duration_ns - covered_ns(
        span.start_ns, span.end_ns, [(c.start_ns, c.end_ns) for c in children]
    )


class Direct:
    """Untraced calls: the measured run goes straight into the program."""

    def call(self, name, size, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records a span around each call into a layer, in memory only.

    Spans opened while another is open become its children, and all carry
    ``request_id``.  A call that raises is recorded with the exception's
    class name and the exception propagates.  ``notes`` maps a span name
    to a function of the call's result whose dict is stored on the span,
    evaluated after the span has closed.
    """

    def __init__(self, notes: dict | None = None):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.request_id: int | None = None
        self.notes = notes or {}

    def _begin(self, name: str, size: int) -> Span:
        parent = self._open[-1].span_id if self._open else None
        span = Span(len(self.spans), parent, self.request_id, name, 0, 0, size)
        self.spans.append(span)
        self._open.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def _end(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._open.pop()

    def call(self, name, size, fn, *args, **kwargs):
        span = self._begin(name, size)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._end(span)
        note = self.notes.get(name)
        if note is not None:
            span.attrs = note(result)
        return result

    def open(self, name: str, size: int = 0) -> Span:
        """Start a span that the caller closes with :meth:`close`."""
        return self._begin(name, size)

    def close(self, span: Span) -> None:
        self._end(span)

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent_id is not None:
                kids.setdefault(s.parent_id, []).append(s)
        return kids

    def dump(self, path: str) -> None:
        """Write every span with its self time as one tab-separated row."""
        kids = self.children()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\tsize\terror\n")
            for s in self.spans:
                self_ns = self_time_ns(s, kids.get(s.span_id, ()))
                fh.write(f"{s.span_id}\t{s.parent_id}\t{s.request_id}\t{s.name}\t"
                         f"{s.start_ns}\t{s.end_ns}\t{self_ns}\t{s.size}\t{s.error or ''}\n")


_CAL_X = np.linspace(0.0, 1.0, 64)


def calibration_ns(repeats: int = 3) -> int:
    """Fastest of ``repeats`` runs of a fixed snippet of Python and small numpy calls.

    The snippet never touches the program under test, so its time tracks
    only how fast the machine runs at that moment.
    """
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        acc = 0.0
        for k in range(60):
            acc += float(np.sum(np.sin(_CAL_X * k))) + math.cos(k)
        elapsed = time.perf_counter_ns() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


# the calibration snippet's time on a quiet 2-core Xeon VM at 2.0 GHz; set-up
# times are reported at the machine speed where a reading takes this long
REFERENCE_CAL_NS = 300_000


class Calibration:
    """Calibration readings taken between requests, at most every ``interval_ns``.

    A time measured between readings k and k+1 is converted to calibration
    units by dividing it by the mean of the two readings.  On a shared host
    whose speed drifts, that ratio stays put while the wall time does not.
    """

    def __init__(self, interval_ns: int):
        self.interval_ns = interval_ns
        self.readings: list[int] = []
        self._last_ns = None

    def tick(self) -> int:
        """Take a reading if one is due; return the index of the latest reading."""
        now = time.perf_counter_ns()
        if self._last_ns is None or now - self._last_ns >= self.interval_ns:
            self.readings.append(calibration_ns())
            self._last_ns = time.perf_counter_ns()
        return len(self.readings) - 1

    def close(self) -> None:
        """Take the reading that brackets the last interval."""
        self.readings.append(calibration_ns())

    def units(self, elapsed_ns: int, index: int) -> float:
        after = self.readings[min(index + 1, len(self.readings) - 1)]
        return elapsed_ns / ((self.readings[index] + after) / 2.0)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or of its largest waited-for child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_timed_child(code: str, env: dict, cwd: str, timeout: float = 60.0) -> str:
    """Run ``python -c code`` to completion and return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return proc.stdout


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_note() -> dict:
    """nproc, CPU model, cache sizes and the versions the figures depend on."""
    model = None
    cpuinfo = _read("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(f"{base}/{idx}/level")
        kind = _read(f"{base}/{idx}/type")
        size = _read(f"{base}/{idx}/size")
        if level and kind and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    versions = {"python": platform.python_version()}
    for dist in ("numpy", "scipy"):
        # read the installed version without importing the package
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "caches": caches, **versions}
