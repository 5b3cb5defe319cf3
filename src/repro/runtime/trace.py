"""Execution-trace recording and post-mortem replay.

The paper (§4.5) contrasts *on-the-fly* checking (the detector runs
inside the VM, slowing the guest) with *offline* checking (the VM logs
the trace; analysis happens afterwards, at the price of storing the
trace: "offline techniques suffer from their need for large amount of
data").  Both modes are supported:

* :class:`TraceRecorder` is a detector hook that appends every event to
  an in-memory list and can spill it to disk in the RPTR binary codec
  (:mod:`repro.runtime.codec`), the one trace format.
* :func:`load_trace` streams events back from an RPTR file — it is a
  *generator*, so a multi-gigabyte trace never has to fit in memory as
  event objects.
* :func:`replay` feeds an event stream through any detector exactly as
  the VM would have, so the same detector object works in either mode —
  detectors are pure functions of the event stream by construction.
* :func:`replay_trace` is the fast path from *disk* to detectors: it
  decodes binary blocks with ``struct.iter_unpack`` and hands reusable
  flyweight events straight to pre-resolved per-type handlers, skipping
  whole blocks no detector subscribes to.

:class:`ReplayVM` reconstructs just enough VM state (the address-space
block table) from ``MemAlloc``/``MemFree`` events that detectors
rendering "Address ... inside a block of ..." report lines produce
byte-identical output offline and on-the-fly.

The recorder also measures what the paper warns about: the trace length
and its footprint — the RPTR bytes the events encode to — so experiment
E7 can report the on-the-fly vs offline trade-off quantitatively.
"""

from __future__ import annotations

import io
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.runtime import codec
from repro.runtime.events import (
    EVENT_TYPES,
    Event,
    MemAlloc,
    MemFree,
)

__all__ = [
    "TraceRecorder",
    "ReplayVM",
    "load_trace",
    "replay",
    "replay_trace",
    "build_handler_table",
]

class TraceRecorder:
    """Detector hook that records the full event stream.

    Register it on a VM like any detector::

        recorder = TraceRecorder()
        vm = VM(detectors=(recorder,))
        vm.run(program)
        replay(recorder.events, HelgrindDetector(...))

    With a ``path`` the stream is *also* spilled to disk in RPTR as it
    happens, whatever the file's suffix.  ``format`` names that codec
    (``"binary"``) and takes no other value.  The file is opened
    eagerly, so a run that produces no events still leaves a valid,
    empty trace behind (just the magic header) instead of no file at
    all.
    """

    def __init__(
        self, path: str | Path | None = None, *, format: str = "binary"
    ) -> None:
        if format != "binary":
            raise ValueError(f"unknown trace format: {format!r}")
        self.events: list[Event] = []
        self._path = Path(path) if path is not None else None
        self._file = None
        self._writer: codec.TraceWriter | None = None
        if self._path is not None:
            self._file = self._path.open("wb")
            self._writer = codec.TraceWriter(self._file)

    def handle(self, event: Event, vm) -> None:
        """VM hook: append (and optionally spill) one event."""
        self.events.append(event)
        if self._writer is not None:
            self._writer.write(event)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()  # flush pending block; writer keeps the tally
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.events)

    @property
    def bytes_written(self) -> int:
        """Exact bytes spilled to disk so far (0 when not spilling)."""
        if self._writer is not None:
            return self._writer.bytes_written
        return 0

    #: Metric label under ``repro_detector_state``.
    telemetry_name = "trace_recorder"

    def telemetry_summary(self) -> dict[str, float]:
        """Codec gauges harvested by :mod:`repro.telemetry.probe` when a
        recorder rides an instrumented run (``stat`` labels of
        ``repro_detector_state``)."""
        summary: dict[str, float] = {
            "events_recorded": len(self.events),
            "bytes_written": self.bytes_written,
        }
        if self._writer is not None:
            for table, size in self._writer.table_sizes().items():
                summary[f"codec_{table}"] = size
        return summary

    @property
    def estimated_bytes(self) -> int:
        """Serialized size — the §4.5 "large amount of data" metric.

        The RPTR bytes the recorded events encode to: what the writer
        counted when spilling to a file, otherwise what encoding them
        now counts (0 for no events).
        """
        if self._path is not None:
            return self.bytes_written
        if not self.events:
            return 0
        writer = codec.TraceWriter(io.BytesIO())
        for event in self.events:
            writer.write(event)
        writer.close()
        return writer.bytes_written


def load_trace(path: str | Path) -> Iterator[Event]:
    """Stream events from an RPTR trace file.

    A *generator*: events are decoded lazily, one at a time, so callers
    iterate traces far larger than memory.  A file that does not start
    with the codec magic raises ``ValueError("not a binary trace (bad
    magic)")``.  Call ``list(load_trace(p))`` where a list is needed.
    """
    return codec.events_from_bytes(Path(path).read_bytes())


class _ReplayBlock:
    """Minimal :class:`~repro.runtime.addrspace.MemoryBlock` stand-in
    reconstructed from trace events — just what report rendering needs
    (``describe``, ``contains``)."""

    __slots__ = (
        "block_id", "base", "size", "tag", "alloc_tid",
        "freed", "free_tid", "free_step",
    )

    def __init__(self, block_id, base, size, tag, alloc_tid) -> None:
        self.block_id = block_id
        self.base = base
        self.size = size
        self.tag = tag
        self.alloc_tid = alloc_tid
        self.freed = False
        self.free_tid = -1
        self.free_step = -1

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    def offset_of(self, addr: int) -> int:
        return addr - self.base

    def describe(self, addr: int) -> str:
        state = "free'd" if self.freed else "alloc'd"
        return (
            f"Address {addr:#x} is {self.offset_of(addr)} words inside a block of "
            f"size {self.size} ({self.tag or 'untagged'}) {state} by thread {self.alloc_tid}"
        )


class _ReplayAddressSpace:
    """Block table rebuilt from ``MemAlloc``/``MemFree`` events."""

    def __init__(self) -> None:
        self._bases: list[int] = []
        self._blocks: list[_ReplayBlock] = []
        self._by_base: dict[int, _ReplayBlock] = {}

    def on_alloc(self, event) -> None:
        block = _ReplayBlock(
            event.block_id, event.addr, event.size, event.tag, event.tid
        )
        # The VM's allocator is monotone, so bases arrive sorted; keep
        # the bisect invariant even if a foreign trace violates that.
        if self._bases and event.addr < self._bases[-1]:
            idx = bisect_right(self._bases, event.addr)
            self._bases.insert(idx, event.addr)
            self._blocks.insert(idx, block)
        else:
            self._bases.append(event.addr)
            self._blocks.append(block)
        self._by_base[event.addr] = block

    def on_free(self, event) -> None:
        block = self._by_base.get(event.addr)
        if block is not None:
            block.freed = True
            block.free_tid = event.tid
            block.free_step = event.step

    def find_block(self, addr: int) -> _ReplayBlock | None:
        idx = bisect_right(self._bases, addr) - 1
        if idx < 0:
            return None
        block = self._blocks[idx]
        return block if block.contains(addr) else None


class ReplayVM:
    """Stand-in ``vm`` argument for offline analysis.

    Detector report rendering consults ``vm.memory.find_block(addr)``
    for the Figure-9 "Address ... inside a block ..." line; feeding the
    trace's own allocation events through this object reconstructs that
    lookup, so offline reports are *byte-identical* to on-the-fly ones.

    Use it as both the ``vm`` argument and a leading detector::

        rvm = ReplayVM()
        replay(events, rvm, detector, vm=rvm)

    (:func:`replay_trace` wires this up automatically.)
    """

    def __init__(self) -> None:
        self.memory = _ReplayAddressSpace()

    # Detector ABI: subscribe to the two allocation event types.

    def handler_for(self, event_type):
        if event_type is MemAlloc:
            return self._on_alloc
        if event_type is MemFree:
            return self._on_free
        return None

    def handle(self, event, vm=None) -> None:
        if type(event) is MemAlloc:
            self.memory.on_alloc(event)
        elif type(event) is MemFree:
            self.memory.on_free(event)

    def _on_alloc(self, event, vm=None) -> None:
        self.memory.on_alloc(event)

    def _on_free(self, event, vm=None) -> None:
        self.memory.on_free(event)


def replay(events: Iterable[Event], *detectors, vm=None) -> None:
    """Feed a recorded event stream through detectors (post-mortem mode).

    Each hook's handlers are resolved once per event type
    (:func:`build_handler_table`), as a live run resolves them.  ``vm``
    is passed through to the hooks; detectors that only consult the
    event stream (all of ours — they keep their own shadow state)
    accept ``None``.
    """
    routes = dict(zip(EVENT_TYPES, build_handler_table(detectors, vm)))
    for event in events:
        for fn in routes[type(event)]:
            fn(event, vm)


def build_handler_table(hooks, vm=None) -> list[tuple]:
    """Pre-resolve per-event-type handlers for :func:`codec.replay_blocks`.

    The VM's route-building, done once for a whole replay: one tuple of
    handler callables per :data:`EVENT_TYPES` index.  Hooks exposing
    ``handler_for`` subscribe selectively; legacy hooks (bare
    ``handle``) get everything.  Shared by :func:`replay_trace`, the
    streaming :class:`repro.api.Session`, and the sharded driver in
    :mod:`repro.detectors.parallel` (which additionally wraps the
    ``MemoryAccess`` entries with its page filter).
    """
    handler_table: list[tuple] = []
    for cls in EVENT_TYPES:
        fns = []
        for hook in hooks:
            resolver = getattr(hook, "handler_for", None)
            if resolver is not None:
                fn = resolver(cls)
            else:  # legacy hook: wants everything
                fn = hook.handle
            if fn is not None:
                fns.append(fn)
        handler_table.append(tuple(fns))
    return handler_table


def replay_trace(
    path: str | Path, *detectors, vm=None, stats: "codec.ReplayStats | None" = None
) -> int:
    """Replay a trace *file* through detectors; returns the event count.

    The fast path from disk: per-type handlers are resolved once, whole
    blocks without a subscriber are skipped undecoded, and each row is
    decoded into a reusable flyweight event (zero per-event
    allocation).  Handlers must not retain the event object beyond the
    call — all in-tree detectors copy out scalars and the (immutable,
    canonical) stack tuple.  A file that is not RPTR raises the codec's
    ``ValueError`` (bad magic).

    When ``vm`` is omitted a :class:`ReplayVM` is created and fed the
    trace's allocation events, so report "Address" lines match the
    original run byte-for-byte.  ``stats`` (a
    :class:`repro.runtime.codec.ReplayStats`) receives the event total
    and block-skip accounting.
    """
    path = Path(path)
    if vm is None:
        vm = ReplayVM()
    hooks: tuple = (vm, *detectors) if isinstance(vm, ReplayVM) else detectors
    data = path.read_bytes()
    handler_table = build_handler_table(hooks, vm)
    return codec.replay_blocks(data, handler_table, vm, stats=stats)
