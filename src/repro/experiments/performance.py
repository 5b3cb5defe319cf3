"""The §4.5 performance study: how much the VM and the analysis cost.

The paper reports for its setup:

* running on the Valgrind VM alone slows the program 8-10×,
* running with Helgrind analysis slows it 20-30×,

i.e. the analysis itself costs a further ~2.5-3× on top of the VM.  The
absolute factors are properties of Valgrind's binary translation; what
carries over to our substrate is the *decomposition*: a large constant
VM cost plus a small multiple for on-the-fly analysis.  We therefore
measure three tiers on one fixed workload:

1. ``native`` — the same logical computation as plain Python (the
   "program run without Helgrind" baseline),
2. ``vm`` — the workload on the cooperative VM with no detectors,
3. ``vm+<detector>`` — the workload with a detector attached,

and report both slowdown factors.  :func:`trace_cost` additionally
quantifies the §4.5 on-the-fly vs post-mortem trade-off: the size of
the execution trace that offline analysis would have to store ("offline
techniques suffer from their need for large amount of data").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.api.profiles import profile
from repro.runtime import VM, RoundRobinScheduler
from repro.runtime.trace import TraceRecorder, replay

__all__ = [
    "PerformanceReport",
    "measure_performance",
    "measure_event_throughput",
    "workload_native",
    "workload_guest",
]


def workload_guest(api, n_threads: int = 4, iterations: int = 120):
    """The benchmark workload: locked counters + unlocked scratch work.

    Mirrors the hot loop of a server worker: take a lock, bump shared
    counters, do some thread-local work, occasionally touch an atomic.
    """
    counters = api.malloc(8, tag="counters")
    for i in range(8):
        api.store(counters + i, 0)
    atomic = api.malloc(1, tag="atomic")
    api.store(atomic, 0)
    m = api.mutex()

    def worker(a, k):
        scratch = a.malloc(4, tag="scratch")
        for i in range(4):
            a.store(scratch + i, 0)
        for i in range(iterations):
            a.lock(m)
            slot = counters + (i % 8)
            a.store(slot, a.load(slot) + 1)
            a.unlock(m)
            a.store(scratch + (i % 4), a.load(scratch + (i % 4)) + k)
            if i % 16 == 0:
                a.atomic_add(atomic, 1)
        a.free(scratch)

    threads = [api.spawn(worker, k) for k in range(n_threads)]
    for t in threads:
        api.join(t)
    return api.load(counters)


def workload_native(n_threads: int = 4, iterations: int = 120):
    """The same computation as plain Python — the 'no Valgrind' tier.

    Sequentialised (the guest work is serialised anyway), using plain
    dicts for memory so the comparison isolates the VM's trap cost.
    """
    counters = [0] * 8
    atomic = [0]
    for k in range(n_threads):
        scratch = [0] * 4
        for i in range(iterations):
            counters[i % 8] += 1
            scratch[i % 4] += k
            if i % 16 == 0:
                atomic[0] += 1
    return counters[0]


@dataclass(slots=True)
class PerformanceReport:
    """Wall-clock results of one measurement sweep."""

    native_seconds: float
    vm_seconds: float
    detector_seconds: dict[str, float] = field(default_factory=dict)
    events: int = 0

    @property
    def vm_slowdown(self) -> float:
        """VM-only / native — the paper's "8-10×" analogue."""
        return self.vm_seconds / self.native_seconds

    def total_slowdown(self, detector: str) -> float:
        """VM+detector / native — the paper's "20-30×" analogue."""
        return self.detector_seconds[detector] / self.native_seconds

    def analysis_overhead(self, detector: str) -> float:
        """VM+detector / VM-only — the paper's ~2.5-3× analysis cost."""
        return self.detector_seconds[detector] / self.vm_seconds

    def format(self) -> str:
        lines = [
            "Performance (§4.5) — wall-clock slowdown factors",
            f"  native:            {self.native_seconds * 1e3:8.2f} ms  (1.0x)",
            f"  VM only:           {self.vm_seconds * 1e3:8.2f} ms  "
            f"({self.vm_slowdown:.1f}x native)   [paper: 8-10x]",
        ]
        for name, seconds in self.detector_seconds.items():
            lines.append(
                f"  VM + {name:13s} {seconds * 1e3:8.2f} ms  "
                f"({self.total_slowdown(name):.1f}x native, "
                f"{self.analysis_overhead(name):.2f}x VM)   "
                "[paper: 20-30x native, ~2.5-3x VM]"
            )
        lines.append(f"  events per run:    {self.events}")
        return "\n".join(lines)


#: Printed tier label -> the analysis profile of its detector (``None``:
#: the VM alone).
_TIERS = {
    "vm-only": None,
    "helgrind": "hwlc+dr",
    "helgrind-orig": "original",
    "helgrind-hwlc+dr": "hwlc+dr",
    "djit": "djit",
}


def _hooks(tier: str) -> tuple:
    """A fresh detector for ``tier`` (none for the VM-only tier)."""
    name = _TIERS[tier]
    return (profile(name).detector(),) if name is not None else ()


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_performance(
    *,
    n_threads: int = 4,
    iterations: int = 120,
    repeats: int = 3,
    detectors: tuple[str, ...] = ("helgrind", "djit"),
) -> PerformanceReport:
    """Measure all tiers; returns best-of-``repeats`` per tier."""
    native = _best_of(lambda: workload_native(n_threads, iterations), repeats)

    events = 0

    def run_vm(tier: str):
        nonlocal events
        vm = VM(scheduler=RoundRobinScheduler(), detectors=_hooks(tier))
        vm.run(workload_guest, n_threads, iterations)
        events = vm.stats.total_events

    vm_only = _best_of(lambda: run_vm("vm-only"), repeats)
    detector_seconds = {}
    for name in detectors:
        detector_seconds[name] = _best_of(lambda: run_vm(name), repeats)
    return PerformanceReport(
        native_seconds=native,
        vm_seconds=vm_only,
        detector_seconds=detector_seconds,
        events=events,
    )


def measure_event_throughput(
    *,
    n_threads: int = 4,
    iterations: int = 200,
    repeats: int = 3,
    tiers: tuple[str, ...] = (
        "vm-only", "helgrind-orig", "helgrind-hwlc+dr", "djit",
    ),
    breakdown: bool = False,
) -> dict[str, dict[str, float]]:
    """Events/second through ``VM.emit`` per analysis tier (E7 fast path).

    This is the metric the analysis fast path optimises: how many guest
    events the VM can push through its dispatch layer (and, per tier,
    through a detector) per wall-clock second.  Returns, per tier::

        {"events": N, "seconds": best_of_repeats, "events_per_sec": rate,
         "multiple_vs_vm": tier_seconds / vm_only_seconds}

    ``multiple_vs_vm`` is the §4.5 "analysis costs a small multiple on
    top of the VM" decomposition, as a throughput ratio.

    ``breakdown=True`` adds a *separate*, telemetry-instrumented pass
    per tier that decomposes one run's wall clock into guest/VM time vs
    dispatch time vs detector time (keys ``instrumented_seconds``,
    ``emit_seconds``, ``dispatch_seconds``, ``detector_seconds``,
    ``vm_seconds``).  The headline ``seconds``/``events_per_sec`` stay
    uninstrumented — the breakdown explains the numbers, it never
    perturbs them.
    """
    out: dict[str, dict[str, float]] = {}
    for name in tiers:
        events = 0

        def run() -> None:
            nonlocal events
            vm = VM(scheduler=RoundRobinScheduler(), detectors=_hooks(name))
            vm.run(workload_guest, n_threads, iterations)
            events = vm.stats.total_events

        seconds = _best_of(run, repeats)
        out[name] = {
            "events": float(events),
            "seconds": seconds,
            "events_per_sec": events / seconds if seconds > 0 else 0.0,
        }
        if breakdown:
            out[name].update(
                _throughput_breakdown(name, n_threads, iterations)
            )
    if "vm-only" in out:
        base = out["vm-only"]["seconds"]
        for name, row in out.items():
            row["multiple_vs_vm"] = row["seconds"] / base if base > 0 else 0.0
    return out


def _throughput_breakdown(
    tier: str, n_threads: int, iterations: int
) -> dict[str, float]:
    """One instrumented run decomposed into VM / dispatch / detector time.

    ``emit_seconds`` is everything inside ``VM.emit`` (stats bump, route
    lookup, handler calls); ``detector_seconds`` is the part spent in
    detector handlers; their difference is the dispatch layer proper;
    ``vm_seconds`` is the rest of the wall clock (guest execution,
    scheduler, memory model).
    """
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    vm = VM(
        scheduler=RoundRobinScheduler(), detectors=_hooks(tier),
        telemetry=telemetry,
    )
    telemetry.attach(vm, time_emit=True)
    start = time.perf_counter()
    vm.run(workload_guest, n_threads, iterations)
    total = time.perf_counter() - start
    emit = telemetry.emit_seconds()
    detector = telemetry.detector_busy_seconds()
    return {
        "instrumented_seconds": total,
        "emit_seconds": emit,
        "detector_seconds": detector,
        "dispatch_seconds": max(0.0, emit - detector),
        "vm_seconds": max(0.0, total - emit),
    }


def trace_cost(
    *, n_threads: int = 4, iterations: int = 120
) -> dict[str, float]:
    """Quantify the §4.5 offline-analysis trade-off on the workload.

    Returns the trace length, its serialized size (the RPTR bytes the
    events encode to), and the wall-clock for post-mortem replay
    through a Helgrind detector.
    """
    recorder = TraceRecorder()
    vm = VM(detectors=(recorder,))
    vm.run(workload_guest, n_threads, iterations)
    start = time.perf_counter()
    replay(recorder.events, profile("hwlc+dr").detector())
    replay_seconds = time.perf_counter() - start
    return {
        "events": float(len(recorder)),
        "estimated_bytes": float(recorder.estimated_bytes),
        "replay_seconds": replay_seconds,
    }
