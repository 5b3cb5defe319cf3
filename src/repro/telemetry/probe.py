"""The weave layer: attaching metrics and tracing to a VM run.

:class:`Telemetry` is the one object the rest of the codebase talks to.
It owns a :class:`~repro.telemetry.metrics.MetricsRegistry` and (when
tracing is on) a :class:`~repro.telemetry.tracing.Tracer`, and plugs
into the runtime at exactly one point: the VM's route builder
(:meth:`repro.runtime.vm.VM._build_routes`) calls
:meth:`wrap_handler` for every ``(detector, event type)`` route it
resolves.  Because routes are built once per event type per run, the
disabled case costs *nothing* on the per-event path — the VM hot loop
is byte-for-byte the PR-1 fast path unless a telemetry object is
actually attached (the ``BENCH_telemetry.json`` acceptance gate).

When enabled, each routed handler is wrapped in a timing closure that

* accumulates busy seconds and call counts per ``(detector, event
  kind)`` — the §4.5 "analysis multiple" decomposed by detector and by
  event type, and
* groups calls into *batches* (default 1024 events): each full batch
  emits one span on the detector's trace track and one observation in
  the per-detector batch-latency histogram, so the Chrome timeline
  shows detector busy time against the VM run without recording a span
  per event.

:meth:`record_run` is called once after ``vm.run(...)`` returns; it
harvests everything that is cheap to read but pointless to sample
per-event: the VM's event tally and scheduler counters, the route-cache
and block-lookup-cache hit rates, the process-wide interning tables
(lock-sets, call stacks), the shadow-memory state-transition matrix and
final state distribution, and per-detector warning counts.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import VM_TRACK, Tracer

__all__ = ["Telemetry", "DETECTOR_BATCH_EVENTS"]

#: Handler invocations per trace span / histogram observation.
DETECTOR_BATCH_EVENTS = 1024

#: Buckets for per-batch detector busy time (seconds).  A 1024-event
#: batch at the measured ~250k events/s spends a few ms in a detector.
_BATCH_BUCKETS = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0)


def _read_process_tables() -> dict[str, int]:
    """Flat view of the process-global interning tables' counters."""
    from repro.detectors.lockset import LOCKSETS
    from repro.runtime.events import intern_stats

    ls = LOCKSETS.stats()
    si = intern_stats()
    out = {"lockset_size": ls["size"]}
    for op in ("intern", "intersect", "with", "without"):
        out[f"lockset_{op}_hits"] = ls[f"{op}_hits"]
        out[f"lockset_{op}_misses"] = ls[f"{op}_misses"]
    out["stack_stacks"] = si["stacks"]
    out["stack_frames"] = si["frames"]
    out["stack_hits"] = si["stack_hits"]
    out["stack_misses"] = si["stack_misses"]
    return out


class _DetectorProbe:
    """Per-detector batch accumulator feeding the tracer/histogram."""

    __slots__ = ("name", "track", "busy", "calls", "batch_start")

    def __init__(self, name: str, track: int) -> None:
        self.name = name
        self.track = track
        self.busy = 0.0
        self.calls = 0
        self.batch_start: float | None = None


class Telemetry:
    """Metrics + tracing for one logical run (or a merged sweep).

    Parameters
    ----------
    enabled:
        ``False`` makes every method a no-op returning its input —
        callers can thread one object through unconditionally.
    trace:
        Collect Chrome trace events (``--trace-out``).
    batch_events:
        Handler calls per detector batch span.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        trace: bool = False,
        batch_events: int = DETECTOR_BATCH_EVENTS,
    ) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.tracer = Tracer() if (enabled and trace) else None
        self.batch_events = batch_events
        self._t0 = time.perf_counter()
        #: Process-global table tallies (lock-set memo, stack interning)
        #: at construction time.  :meth:`record_run` reports *deltas*
        #: against this baseline, so (a) a warm process doesn't leak
        #: earlier runs' work into this telemetry object, and (b) the
        #: parallel harness — one fresh Telemetry per worker cell, with
        #: the worker process's tables persisting across cells — sums
        #: per-cell deltas to the true process totals instead of
        #: double-counting the shared cumulative tallies.
        self._table_baseline = _read_process_tables() if enabled else {}
        #: id(hook) -> probe; id() keys avoid requiring hashable hooks.
        self._probes: dict[int, _DetectorProbe] = {}
        self._names_taken: set[str] = set()
        #: (detector name, event kind) -> [busy_seconds, calls].
        self._cells: dict[tuple[str, str], list] = {}
        #: [seconds, calls] accumulators for wrapped ``VM.emit``.
        self._emit_cells: list[list] = []

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    def now(self) -> float:
        if self.tracer is not None:
            return self.tracer.now()
        return time.perf_counter() - self._t0

    # ------------------------------------------------------------------
    # VM attachment
    # ------------------------------------------------------------------

    def attach(self, vm, *, time_emit: bool = False):
        """Wire this telemetry into ``vm`` (before :meth:`VM.run`).

        Sets the VM's telemetry pointer (so route building wraps
        handlers), turns on shadow-memory transition tracking for any
        hook exposing a lock-set machine, and — in breakdown mode —
        wraps ``vm.emit`` itself so dispatch time (emit minus detector
        busy) is measurable.  Returns ``vm`` for chaining.
        """
        if not self.enabled:
            return vm
        vm._telemetry = self
        # Name this VM's hooks now, deduplicating only *within* the VM:
        # a sweep that builds a fresh HelgrindDetector per cell must
        # aggregate them all under one "helgrind" series, while two
        # detectors of the same type on one VM still get distinct names.
        seen: dict[str, int] = {}
        for hook in vm._hooks:
            base = getattr(hook, "telemetry_name", type(hook).__name__)
            nth = seen.get(base, 0)
            seen[base] = nth + 1
            if id(hook) not in self._probes:
                self._register_probe(hook, base if nth == 0 else f"{base}#{nth + 1}")
        for hook in vm._hooks:
            machine = getattr(hook, "machine", None)
            if machine is not None and hasattr(
                machine, "enable_transition_tracking"
            ):
                machine.enable_transition_tracking()
        if time_emit:
            cell = [0.0, 0]
            self._emit_cells.append(cell)
            orig = vm.emit
            pc = time.perf_counter

            def timed_emit(event, _orig=orig, _cell=cell, _pc=pc):
                t0 = _pc()
                _orig(event)
                _cell[0] += _pc() - t0
                _cell[1] += 1

            vm.emit = timed_emit
        return vm

    def wrap_handler(self, hook, event_type: type, fn):
        """Wrap one routed handler in the timing closure (VM callback).

        Called by :meth:`repro.runtime.vm.VM._build_routes` once per
        ``(hook, event type)`` — never on the per-event path.
        """
        if not self.enabled or fn is None:
            return fn
        name = self._detector_name(hook)
        cell = self._cells.setdefault((name, event_type.__name__), [0.0, 0])
        probe = self._probe_for(hook)
        pc = time.perf_counter
        batch = self.batch_events
        flush = self._flush_batch

        def timed(event, vm, _fn=fn, _cell=cell, _p=probe, _pc=pc):
            if _p.batch_start is None:
                _p.batch_start = self.now()
            t0 = _pc()
            _fn(event, vm)
            dt = _pc() - t0
            _cell[0] += dt
            _cell[1] += 1
            _p.busy += dt
            _p.calls += 1
            if _p.calls >= batch:
                flush(_p)

        return timed

    # ------------------------------------------------------------------
    # Phases (harness / CLI level spans)
    # ------------------------------------------------------------------

    @contextmanager
    def phase(self, name: str, **args):
        """Span + ``repro_phase_seconds_total{phase=...}`` around a block."""
        if not self.enabled:
            yield self
            return
        start = self.now()
        try:
            yield self
        finally:
            duration = self.now() - start
            self.registry.counter(
                "repro_phase_seconds_total",
                {"phase": name},
                help="Wall-clock seconds spent per harness phase.",
            ).inc(duration)
            if self.tracer is not None:
                self.tracer.complete(
                    name,
                    start=start,
                    duration=duration,
                    track=VM_TRACK,
                    category="phase",
                    args=args or None,
                )

    # ------------------------------------------------------------------
    # Harvest
    # ------------------------------------------------------------------

    def record_run(self, vm, *, label: str = "run") -> None:
        """Harvest one finished VM run into the registry.

        Safe to call once per VM; process-wide tables (lock-sets, stack
        interning) are re-*set* as gauges, per-run tallies are *added*
        as counters.
        """
        if not self.enabled:
            return
        self.flush()
        reg = self.registry
        stats = vm.stats

        # -- event counts by kind (the VM's own tally, so the numbers
        #    match even for event types no detector subscribed to).
        for kind, count in sorted(stats.events.items()):
            reg.counter(
                "repro_events_total",
                {"kind": kind},
                help="Events emitted by the VM, by event kind.",
            ).inc(count)
        reg.counter(
            "repro_vm_traps_total", help="Scheduling opportunities taken."
        ).inc(stats.traps)
        reg.counter(
            "repro_vm_switches_total", help="Actual carrier hand-offs."
        ).inc(stats.switches)
        reg.counter(
            "repro_vm_threads_created_total", help="Guest threads created."
        ).inc(stats.threads_created)
        reg.gauge(
            "repro_vm_max_live_threads",
            help="Peak simultaneously-live guest threads.",
        ).set(
            max(
                reg.value("repro_vm_max_live_threads"),
                stats.max_live_threads,
            )
        )

        # -- dispatch route cache: one miss per distinct event type.
        builds = len(vm._dispatch)
        reg.counter(
            "repro_vm_route_builds_total",
            help="Route-table builds (one per event type per run).",
        ).inc(builds)
        reg.counter(
            "repro_vm_route_cache_hits_total",
            help="Events dispatched through an already-built route.",
        ).inc(max(0, stats.total_events - builds))

        # -- block-lookup cache (per-VM address space).
        cache = vm.memory.cache_stats()
        for slot in ("last", "prev"):
            reg.counter(
                "repro_block_cache_hits_total",
                {"slot": slot},
                help="check_access hits in the two-entry block cache.",
            ).inc(cache[f"hits_{slot}"])
        reg.counter(
            "repro_block_cache_misses_total",
            help="check_access falls back to bisect lookup.",
        ).inc(cache["misses"])

        # -- process-wide interning tables (gauges: point-in-time).
        self._record_process_tables()

        # -- per-detector state.
        for hook in vm._hooks:
            self._record_detector(hook)

        reg.counter("repro_runs_total", help="VM runs recorded.").inc(1)
        if self.tracer is not None:
            self.tracer.instant(
                "run-recorded", args={"label": label, "events": stats.total_events}
            )

    def _record_process_tables(self) -> None:
        reg = self.registry
        tables = _read_process_tables()
        base = self._table_baseline

        def delta(key: str) -> float:
            return tables[key] - base.get(key, 0)

        # Sizes are absolute (merge=max: independent worker processes
        # each grow their own table); tallies are deltas against the
        # construction-time baseline (merge=sum: work adds up).
        reg.gauge(
            "repro_lockset_table_size",
            help="Distinct lock-sets interned (process-wide, max on merge).",
        ).set(tables["lockset_size"])
        for op in ("intern", "intersect", "with", "without"):
            reg.gauge(
                "repro_lockset_memo_hits_total",
                {"op": op},
                help="LocksetTable memo hits by operation (sum on merge).",
                merge="sum",
            ).set(delta(f"lockset_{op}_hits"))
            reg.gauge(
                "repro_lockset_memo_misses_total",
                {"op": op},
                help="LocksetTable memo misses by operation (sum on merge).",
                merge="sum",
            ).set(delta(f"lockset_{op}_misses"))

        reg.gauge(
            "repro_stack_intern_stacks",
            help="Distinct call stacks interned (ExeContext table).",
        ).set(tables["stack_stacks"])
        reg.gauge(
            "repro_stack_intern_frames", help="Distinct frames interned."
        ).set(tables["stack_frames"])
        reg.gauge(
            "repro_stack_intern_hits_total",
            help="intern_stack served from the table (sum on merge).",
            merge="sum",
        ).set(delta("stack_hits"))
        reg.gauge(
            "repro_stack_intern_misses_total",
            help="intern_stack had to intern a new stack (sum on merge).",
            merge="sum",
        ).set(delta("stack_misses"))

    def _record_detector(self, hook) -> None:
        reg = self.registry
        name = self._detector_name(hook)

        # Shadow-memory machine (lock-set detectors): Figure-5 material.
        machine = getattr(hook, "machine", None)
        if machine is not None:
            transitions = getattr(machine, "transition_counts", None)
            if transitions:
                for (src, dst), count in sorted(
                    transitions.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
                ):
                    reg.counter(
                        "repro_state_transitions_total",
                        {"from": src.value, "to": dst.value},
                        help="Shadow-word state transitions (Figure 1 machine).",
                    ).inc(count)
            if hasattr(machine, "state_distribution"):
                for state, count in sorted(
                    machine.state_distribution().items(), key=lambda kv: kv[0].value
                ):
                    reg.gauge(
                        "repro_shadow_words",
                        {"state": state.value},
                        help="Tracked shadow words by final state (sum on merge).",
                        merge="sum",
                    ).inc(count)
            # Paged-engine counters: copy-on-write page materialisations
            # and O(pages) range transitions (alloc/free/HG_DESTRUCT).
            shadow = getattr(machine, "shadow_stats", None)
            if shadow is not None:
                for stat, value in sorted(shadow().items()):
                    reg.gauge(
                        "repro_shadow_engine",
                        {"stat": stat},
                        help="Paged shadow-memory engine counters (sum on merge).",
                        merge="sum",
                    ).inc(float(value))
            # Transition-memo counters (always emitted so the families
            # validate even on cache-disabled runs — values just stay 0).
            cache = getattr(machine, "transition_cache_stats", None)
            if cache is not None:
                stats = cache()
                reg.counter(
                    "repro_transition_cache_hits_total",
                    {"detector": name},
                    help="access_check SHARED steps answered from the memo.",
                ).inc(stats["hits"])
                reg.counter(
                    "repro_transition_cache_misses_total",
                    {"detector": name},
                    help="access_check SHARED steps that computed + memoized.",
                ).inc(stats["misses"])
                reg.counter(
                    "repro_transition_cache_evictions_total",
                    {"detector": name},
                    help="Whole-table memo clears on reaching the size cap.",
                ).inc(stats["evictions"])

        # Run-length elision inside the batched replay pump.
        elided = getattr(hook, "_elided", None)
        if elided is not None:
            reg.counter(
                "repro_access_elided_total",
                {"detector": name},
                help="Rows absorbed by bulk_access's run-length elision; "
                "0 on live runs.",
            ).inc(elided)

        # Predictive-tier counters.  Every detector answers
        # predict_stats() (the base implementation returns zeros), so
        # the families are always present and schema-validatable;
        # non-zero values only appear under the predictive profile.
        predict = getattr(hook, "predict_stats", None)
        if predict is not None:
            stats = predict()
            reg.counter(
                "repro_predict_edges_total",
                {"detector": name},
                help="Cross-thread lock-graph edges recorded for prediction.",
            ).inc(stats["edges"])
            reg.counter(
                "repro_predict_cycles_checked_total",
                {"detector": name},
                help="Candidate lock-order cycles examined for feasibility.",
            ).inc(stats["cycles_checked"])
            reg.counter(
                "repro_predict_predictions_total",
                {"detector": name},
                help="Predicted findings (races + deadlocks) emitted.",
            ).inc(stats["predictions"])
            reg.counter(
                "repro_predict_feasibility_rejections_total",
                {"detector": name},
                help="Candidate predictions discarded by the feasibility gate.",
            ).inc(stats["feasibility_rejections"])

        # Detector-specific summary gauges (each detector contributes
        # its own vocabulary through telemetry_summary()).
        summary = getattr(hook, "telemetry_summary", None)
        if summary is not None:
            for key, value in sorted(summary().items()):
                reg.gauge(
                    "repro_detector_state",
                    {"detector": name, "stat": key},
                    help="Detector-declared state metrics (sum on merge).",
                    merge="sum",
                ).inc(float(value))

        # Warnings (any hook exposing a Report).
        report = getattr(hook, "report", None)
        if report is not None and hasattr(report, "warnings"):
            by_kind: dict[str, int] = {}
            for warning in report.warnings:
                by_kind[warning.kind] = by_kind.get(warning.kind, 0) + 1
            for kind, count in sorted(by_kind.items()):
                reg.gauge(
                    "repro_warning_locations",
                    {"detector": name, "kind": kind},
                    help="Distinct reported locations (the Figure-6 metric).",
                    merge="sum",
                ).inc(count)
            reg.counter(
                "repro_warnings_dynamic_total",
                {"detector": name},
                help="Dynamic (non-suppressed) warning occurrences.",
            ).inc(report.dynamic_count)
            suppressed = getattr(report, "suppressed_count", 0)
            if suppressed:
                reg.counter(
                    "repro_warnings_suppressed_total",
                    {"detector": name},
                    help="Warnings filtered by suppression files.",
                ).inc(suppressed)

    # ------------------------------------------------------------------
    # Flush / snapshot
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Drain accumulator cells into the registry (idempotent)."""
        if not self.enabled:
            return
        reg = self.registry
        for (det, kind), cell in self._cells.items():
            busy, calls = cell
            if calls:
                reg.counter(
                    "repro_detector_events_total",
                    {"detector": det, "kind": kind},
                    help="Events routed into each detector, by kind.",
                ).inc(calls)
                reg.counter(
                    "repro_detector_busy_seconds_total",
                    {"detector": det, "kind": kind},
                    help="Wall-clock seconds inside detector handlers.",
                ).inc(busy)
                cell[0] = 0.0
                cell[1] = 0
        for probe in self._probes.values():
            if probe.calls:
                self._flush_batch(probe)
        for cell in self._emit_cells:
            seconds, calls = cell
            if calls:
                reg.counter(
                    "repro_emit_seconds_total",
                    help="Seconds inside VM.emit (dispatch + detectors).",
                ).inc(seconds)
                reg.counter(
                    "repro_emit_calls_total", help="VM.emit invocations timed."
                ).inc(calls)
                cell[0] = 0.0
                cell[1] = 0

    def _flush_batch(self, probe: _DetectorProbe) -> None:
        self.registry.histogram(
            "repro_detector_batch_busy_seconds",
            {"detector": probe.name},
            help=(
                f"Detector busy seconds per {self.batch_events}-event batch."
            ),
            buckets=_BATCH_BUCKETS,
        ).observe(probe.busy)
        if self.tracer is not None and probe.batch_start is not None:
            self.tracer.complete(
                f"{probe.name} ×{probe.calls}",
                start=probe.batch_start,
                duration=probe.busy,
                track=probe.track,
                category="detector",
                args={"events": probe.calls, "busy_s": round(probe.busy, 6)},
            )
        probe.busy = 0.0
        probe.calls = 0
        probe.batch_start = None

    def snapshot(self) -> dict:
        """Flush accumulators and return the registry snapshot."""
        self.flush()
        return self.registry.snapshot()

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a worker-process snapshot into this registry."""
        if self.enabled:
            self.registry.merge_snapshot(snapshot)

    # ------------------------------------------------------------------
    # Convenience readers (used by the performance breakdown)
    # ------------------------------------------------------------------

    def detector_busy_seconds(self) -> float:
        """Total seconds spent inside detector handlers so far."""
        self.flush()
        fam = self.registry._families.get("repro_detector_busy_seconds_total")
        if fam is None:
            return 0.0
        return sum(m.value for m in fam.children.values())

    def emit_seconds(self) -> float:
        """Total seconds inside ``VM.emit`` (requires ``time_emit``)."""
        self.flush()
        return self.registry.value("repro_emit_seconds_total")

    # ------------------------------------------------------------------

    def _detector_name(self, hook) -> str:
        probe = self._probes.get(id(hook))
        if probe is not None:
            return probe.name
        # Fallback for hooks not pre-registered via :meth:`attach` (a VM
        # constructed with ``telemetry=`` but never attached): reuse the
        # base name — aggregation by detector kind is the useful default.
        return self._register_probe(
            hook, getattr(hook, "telemetry_name", type(hook).__name__)
        ).name

    def _register_probe(self, hook, name: str) -> _DetectorProbe:
        self._names_taken.add(name)
        track = self.tracer.track(name) if self.tracer is not None else 0
        probe = _DetectorProbe(name, track)
        self._probes[id(hook)] = probe
        return probe

    def _probe_for(self, hook) -> _DetectorProbe:
        self._detector_name(hook)  # ensures the probe exists
        return self._probes[id(hook)]
