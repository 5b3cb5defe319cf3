"""RaceTrack-style adaptive race detection (the paper's reference [16]).

Yu, Rodeheffer & Chen, *RaceTrack: efficient detection of data race
conditions via adaptive tracking* (SOSP 2005) — cited by the paper as
the state of the practice on Microsoft's CLR.  RaceTrack's insight
bridges the two families the paper contrasts in §2.2:

* Pure lock-set (Eraser) never forgets: once a location went shared its
  candidate set only shrinks, so ownership hand-offs (Figures 10/11)
  produce permanent false positives unless patched with thread segments.
* Pure happens-before (DJIT) forgets too much: it only sees the current
  interleaving.

RaceTrack keeps, per location, a **threadset** — the set of accessor
epochs ``(thread, clock)`` not yet ordered before the current access —
pruned with vector clocks on every access.  While the threadset has a
single element the location is effectively private and its lock-set is
*reset*; only while it is genuinely shared does the Eraser intersection
rule apply.  The result handles fork/join and queue hand-offs with no
segment machinery: when all previous accessors are ordered before you,
you own the location again.

This implementation is the algorithm's core (threadset pruning +
adaptive lock-set) over this repository's event vocabulary, reusing
:class:`~repro.detectors.djit.DjitDetector` as the vector-clock engine.
Simplifications relative to the SOSP paper: no adaptive granularity
escalation (we are always word-granular) and no report post-filtering
heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detectors.dispatch import EventDispatcher, combine_handlers
from repro.detectors.djit import DjitDetector
from repro.detectors.report import Report, Warning_, WarningKind
from repro.runtime.events import LockAcquire, LockRelease, MemoryAccess

__all__ = ["RaceTrackDetector"]


@dataclass(slots=True)
class _Accessor:
    """One thread's standing in a word's threadset."""

    clock: int
    #: This thread performed at least one write in the current epoch.
    wrote: bool = False
    #: Every access this thread made in the current epoch carried the
    #: bus-lock prefix (atomic); one plain access clears it.
    all_locked: bool = True


@dataclass(slots=True)
class _TrackState:
    """Per-word adaptive state.

    ``lockset`` is the Eraser candidate set, live only while the
    threadset is plural (``None`` encodes the universal set — the
    private phase).
    """

    threadset: dict[int, _Accessor] = field(default_factory=dict)
    lockset: frozenset[int] | None = None


class RaceTrackDetector(EventDispatcher):
    """Adaptive threadset × lock-set detector (register on a VM/replay).

    ``atomic_aware`` follows the same convention as
    :class:`DjitDetector`: a pair of bus-locked accesses never races.
    """

    #: ``detector`` label value in the telemetry layer.
    telemetry_name = "racetrack"

    def __init__(self, *, atomic_aware: bool = True, suppressions=None) -> None:
        self.report = Report(suppressions)
        self.atomic_aware = atomic_aware
        #: Vector-clock engine, fed every non-access event.
        self._hb = DjitDetector()
        #: tid -> set of held lock ids (mode does not matter here; the
        #: original RaceTrack has no rw refinement either).
        self._held: dict[int, set[int]] = {}
        self._state: dict[int, _TrackState] = {}

    # ------------------------------------------------------------------

    def handler_for(self, event_type):
        """Dispatch-table ABI: accesses stay here; lock events update
        the held-set *then* feed the vector-clock engine; every other
        type goes to the engine alone (if it subscribes)."""
        if event_type is MemoryAccess:
            return self._on_access
        if event_type is LockAcquire:
            return combine_handlers(
                self._on_lock_acquire, self._hb.handler_for(event_type)
            )
        if event_type is LockRelease:
            return combine_handlers(
                self._on_lock_release, self._hb.handler_for(event_type)
            )
        # Vector clocks (threads, queues, semaphores, barriers, ...).
        return self._hb.handler_for(event_type)

    def _on_lock_acquire(self, event: LockAcquire, vm=None) -> None:
        self._held.setdefault(event.tid, set()).add(event.lock_id)

    def _on_lock_release(self, event: LockRelease, vm=None) -> None:
        self._held.get(event.tid, set()).discard(event.lock_id)

    # ------------------------------------------------------------------

    def _on_access(self, event: MemoryAccess, vm) -> None:
        state = self._state.get(event.addr)
        if state is None:
            state = _TrackState()
            self._state[event.addr] = state
        vc = self._hb._clock(event.tid)
        tid = event.tid
        threadset = state.threadset

        # 1. Prune: drop accessors ordered before this access.
        stale = [
            other
            for other, acc in threadset.items()
            if other != tid and vc.covers(other, acc.clock)
        ]
        for other in stale:
            del threadset[other]

        # 2. Record this access in the threadset.
        mine = threadset.get(tid)
        if mine is None:
            mine = _Accessor(clock=vc.get(tid))
            threadset[tid] = mine
        mine.clock = vc.get(tid)
        mine.wrote = mine.wrote or event.is_write
        mine.all_locked = mine.all_locked and event.bus_locked

        if len(threadset) <= 1:
            # Private again — the adaptive reset Eraser lacks.
            state.lockset = None
            return

        # 3. Shared phase: (re)initialise or refine the candidate set.
        locks = frozenset(self._held.get(tid, ()))
        if state.lockset is None:
            state.lockset = locks
        else:
            state.lockset = state.lockset & locks
        if state.lockset:
            return

        # 4. Race rule: plural threadset, empty candidate set, a write
        #    involved, and the pair not excused as atomic-atomic.
        current_locked = event.bus_locked
        conflicting = []
        for other, acc in threadset.items():
            if other == tid:
                continue
            if not (event.is_write or acc.wrote):
                continue  # read-only sharing is fine
            if self.atomic_aware and current_locked and acc.all_locked:
                continue  # atomic pair: synchronisation, not data
            conflicting.append((other, acc))
        if conflicting:
            self._warn(event, vm, conflicting)

    def _warn(self, event: MemoryAccess, vm, conflicting) -> None:
        verb = "writing" if event.is_write else "reading"
        others = ", ".join(f"t{other}@{acc.clock}" for other, acc in conflicting)
        details = {
            "Threadset": f"concurrent accessors: {others}",
            "Candidate set": "empty",
        }
        if vm is not None:
            block = vm.memory.find_block(event.addr)
            if block is not None:
                details["Address"] = block.describe(event.addr)
        self.report.add(
            Warning_(
                kind=WarningKind.DATA_RACE,
                message=f"Adaptive race {verb} variable",
                tid=event.tid,
                step=event.step,
                stack=event.stack,
                addr=event.addr,
                details=details,
            )
        )

    # ------------------------------------------------------------------

    def telemetry_summary(self) -> dict[str, float]:
        """Size gauges for ``repro_detector_state`` (telemetry layer)."""
        plural = sum(1 for s in self._state.values() if len(s.threadset) > 1)
        return {
            "tracked_words": len(self._state),
            "plural_words": plural,
            "hb_thread_clocks": len(self._hb._clocks),
        }

    def threadset_of(self, addr: int) -> dict[int, tuple[int, bool]]:
        """Current threadset of a word, as ``tid -> (clock, wrote)``."""
        state = self._state.get(addr)
        if state is None:
            return {}
        return {t: (a.clock, a.wrote) for t, a in state.threadset.items()}
