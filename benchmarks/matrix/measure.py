"""Measurement primitives shared by every workload of the benchmark.

Everything here measures the program from outside: clocks and
``getrusage`` around calls into public functions, and a detector proxy
(:class:`TracedDetector`) that times each handler the VM or the trace
codec calls without changing which handlers they call.

Spans are plain tuples kept in memory and written once, at exit, as
Chrome trace-event JSON (open the file in Perfetto or
``chrome://tracing``).

Every process of a workload runs on one CPU (:func:`pin`).  The VM
hands control between carrier threads at each scheduling step, and the
served path between client and server at each frame; spread over
several CPUs, every hand-off waits for a sleeping CPU to wake, and on a
shared host that wait depends on the other tenants' load rather than
on the program.

Times are reported at a reference host speed (:class:`HostSpeed`): a
shared host runs the same Python up to twice as fast at one moment as
at another, and a fixed calibration burst timed between the items
tracks that.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

#: Spans kept per recorder; later spans only feed the running totals.
#: Per-event handler spans would otherwise grow without bound.
SPAN_CAP = 150_000
#: The CPUs this process may use, read before :func:`pin` narrows them.
CPUS = sorted(os.sched_getaffinity(0))
#: What :func:`calibration_burst` takes at the reference speed: about
#: its mean on a 2-core x86-64 VM over a few minutes.
REFERENCE_BURST_S = 0.020
#: Seconds of measured window between two calibration bursts.
BURST_EVERY_S = 0.25

now_ns = time.perf_counter_ns


def calibration_burst() -> float:
    """Time one pass of a fixed piece of pure Python; returns seconds.

    Integer arithmetic plus a small dict of lists, the mix whose time
    followed the program's own item times most closely on a shared
    host.  It calls nothing in the program, so a change to the program
    cannot move it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    table: dict[int, list[int]] = {}
    for i in range(30_000):
        key = (i * 2654435761) & 0x3FF
        entry = table.get(key)
        if entry is None:
            table[key] = entry = [key, 0]
        entry[1] += 1
        acc ^= entry[0] + entry[1]
    return time.perf_counter() - start


class HostSpeed:
    """The host's speed over a stretch of time, from calibration bursts.

    Call :meth:`tick` between measured items; it times a burst once
    every ``BURST_EVERY_S``.  Multiplying a measured time by
    :attr:`factor` gives the time it would have taken at the reference
    speed, so runs made while the host was slow and runs made while it
    was fast compare.

    The factor uses the mean burst.  A host that flips between fast and
    slow spells shorter than one item slows a long item by its share of
    slow time, and a short burst either fully or not at all; only means
    agree on both.  Over twelve 15-second runs of one replay, the
    quartile spread of mean item ÷ mean burst was 3%, of the medians'
    ratio 18%, as large as the raw times' own.
    """

    def __init__(self, bursts=()) -> None:
        self.bursts: list[float] = list(bursts)
        self._last = time.perf_counter()

    def sample(self) -> None:
        self.bursts.append(calibration_burst())
        self._last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._last >= BURST_EVERY_S:
            self.sample()

    @property
    def factor(self) -> float:
        if not self.bursts:
            self.sample()
        return REFERENCE_BURST_S / statistics.mean(self.bursts)

    def note(self) -> str:
        factor = self.factor
        return (
            f"host speed: calibration burst mean "
            f"{statistics.mean(self.bursts) * 1e3:.2f} ms over "
            f"{len(self.bursts)} bursts (reference "
            f"{REFERENCE_BURST_S * 1e3:.1f} ms); times scaled by {factor:.3f}"
        )


def pin() -> None:
    """Run this process, and every process it starts, on one CPU."""
    os.sched_setaffinity(0, {CPUS[-1]})


@contextmanager
def all_cpus():
    """Lift :func:`pin` for the processes started inside the block."""
    os.sched_setaffinity(0, CPUS)
    try:
        yield
    finally:
        pin()


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def latency_note(latencies) -> str:
    """Percentiles of every item as measured: printed, never bounded."""
    return (
        f"latency over all {len(latencies)} items as measured: p50 "
        f"{percentile(latencies, 50) * 1e3:.1f} ms, p90 "
        f"{percentile(latencies, 90) * 1e3:.1f} ms (no bound: on a shared "
        f"host they follow its slow spells more than the program)"
    )


def cpu_self() -> float:
    """User plus system CPU seconds of this process (all its threads)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def cpu_children() -> float:
    """User plus system CPU seconds of this process's waited-for children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mib() -> float:
    """Peak resident set of this process or any waited-for child, in MiB."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def share(part: float, whole: float) -> float:
    """``part / whole``, 0 when nothing was measured."""
    return part / whole if whole else 0.0


class Spans:
    """One thread's spans: ``(name, layer, start_ns, end_ns, parent, item)``.

    ``parent`` is the index of the enclosing span in the same recorder
    (-1 at the top).  Use one recorder per thread; :func:`write_chrome`
    puts each on its own track.
    """

    def __init__(self) -> None:
        self.rows: list[list] = []
        self.dropped = 0
        #: Index of the span new leaves nest under (the open item).
        self.current = -1

    def open(self, name: str, layer: str, item) -> int:
        """Start a span that later spans nest under; returns its index."""
        self.rows.append([name, layer, now_ns(), 0, self.current, item])
        self.current = len(self.rows) - 1
        return self.current

    def close(self, index: int) -> None:
        row = self.rows[index]
        row[3] = now_ns()
        self.current = row[4]

    def leaf(self, name: str, layer: str, start: int, end: int) -> None:
        """Record a finished span under the open one (dropped past the cap)."""
        if len(self.rows) < SPAN_CAP:
            parent = self.current
            item = self.rows[parent][5] if parent >= 0 else None
            # A tuple, unlike an open span's list, leaves the cyclic
            # garbage collector's tracked set once it holds only atoms.
            self.rows.append((name, layer, start, end, parent, item))
        else:
            self.dropped += 1


def write_chrome(path: Path, recorders: list[Spans], meta: dict) -> int:
    """Write every recorder's spans as one Chrome trace; returns the count."""
    starts = [r.rows[0][2] for r in recorders if r.rows]
    origin = min(starts) if starts else 0
    events = []
    for track, spans in enumerate(recorders):
        for name, layer, start, end, parent, item in spans.rows:
            events.append({
                "name": name,
                "cat": layer,
                "ph": "X",
                "pid": 1,
                "tid": track,
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "args": {
                    "item": item,
                    "parent": spans.rows[parent][0] if parent >= 0 else None,
                },
            })
    dropped = sum(r.dropped for r in recorders)
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {**meta, "spans_dropped_past_cap": dropped},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return len(events)


class _TimedHandler:
    """One wrapped detector handler.

    Handed to the VM or codec as the bound method :meth:`call`, so the
    codec's batched-block resolver (which looks for a bound method whose
    owner publishes ``bulk_access_ready``/``bulk_access``) finds this
    object and asks it; it answers exactly as the wrapped detector
    would.  The traced run therefore takes the same dispatch path as
    the untraced one — the harness checks this by comparing report
    bytes and ``ReplayStats`` between the two.
    """

    __slots__ = ("owner", "fn", "name")

    def __init__(self, owner: "TracedDetector", fn, name: str) -> None:
        self.owner = owner
        self.fn = fn
        self.name = name

    def call(self, event, vm) -> None:
        owner = self.owner
        owner.vm = vm
        start = now_ns()
        self.fn(event, vm)
        end = now_ns()
        owner.handler_ns += end - start
        owner.handler_calls += 1
        owner.spans.leaf(self.name, "detectors", start, end)

    def bulk_access_ready(self) -> bool:
        detector = getattr(self.fn, "__self__", None)
        ready = getattr(detector, "bulk_access_ready", None)
        return ready is not None and bool(ready())

    def bulk_access(self, block, s, base, stacks, vm) -> bool:
        owner = self.owner
        start = now_ns()
        consumed = self.fn.__self__.bulk_access(block, s, base, stacks, vm)
        end = now_ns()
        owner.bulk_ns += end - start
        owner.bulk_calls += 1
        if consumed:
            owner.bulk_rows += len(block) // s.size
        owner.spans.leaf("bulk_access", "detectors", start, end)
        return consumed


class TracedDetector:
    """Detector proxy that times every handler, ``bulk_access`` and
    ``finalize`` call of the wrapped detector into ``spans``."""

    def __init__(self, detector, spans: Spans) -> None:
        self.detector = detector
        self.spans = spans
        self.vm = None
        self.handler_ns = 0
        self.handler_calls = 0
        self.bulk_ns = 0
        self.bulk_calls = 0
        self.bulk_rows = 0
        self.finalize_ns = 0

    @property
    def report(self):
        return self.detector.report

    def handler_for(self, event_type):
        fn = self.detector.handler_for(event_type)
        if fn is None:
            return None
        return _TimedHandler(self, fn, event_type.__name__).call

    def finalize(self) -> None:
        start = now_ns()
        self.detector.finalize()
        end = now_ns()
        self.finalize_ns += end - start
        self.spans.leaf("finalize", "detectors", start, end)


class NullDetector:
    """A detector that subscribes to nothing: the VM-only baseline of the
    paper's §4.5 slowdown ratio."""

    def __init__(self) -> None:
        from repro.detectors import Report

        self.report = Report()

    def handler_for(self, event_type):
        return None

    def finalize(self) -> None:
        pass
