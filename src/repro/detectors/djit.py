"""The DJIT happens-before race detector (the paper's §2.2 baseline).

DJIT [Itzkovitz, Schuster & Zeev-Ben-Mordehai, 1999] checks Lamport's
happens-before relation between accesses using per-thread vector clocks
("vector time frames") and per-location access logging.  Compared with
the lock-set approach:

* it reports only *apparent* races — pairs of accesses genuinely
  unordered in the observed execution — so it has (near) zero false
  positives on the Figure 11 thread-pool pattern, but
* it "detects data races on a subset of shared locations that are
  reported by the lock-set approach and misses some real data races"
  (§2.2): a racy location whose accesses *happened* to be ordered by an
  unrelated synchronisation in this run stays silent.

Experiment E11 demonstrates exactly this containment against
:class:`~repro.detectors.helgrind.HelgrindDetector`.

Synchronisation vocabulary: locks (release publishes, acquire absorbs),
thread create/join, queue put/get, semaphore post/wait, barriers, and —
faithful to the hybrid detector the paper cites [12], together with its
caveat — condition-variable signal/wait (switchable, default on; §2.2
notes the relation "is not strong enough to impose the assumed order",
which is precisely the kind of missed-race this baseline exhibits).
Like the original DJIT, only the *first* apparent race per location is
reported.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.detectors.dispatch import EventDispatcher, handles
from repro.detectors.report import Report, Warning_, WarningKind
from repro.detectors.vectorclock import VectorClock
from repro.runtime.events import (
    BarrierWait,
    ClientRequest,
    CondSignal,
    CondWait,
    LockAcquire,
    LockRelease,
    MemAlloc,
    MemFree,
    MemoryAccess,
    QueueGet,
    QueuePut,
    SemPost,
    SemWait,
    ThreadCreate,
    ThreadFinish,
    ThreadJoin,
)
from repro._util.intervals import IntervalSet

__all__ = ["DjitDetector"]


@dataclass(slots=True)
class _LocationLog:
    """Per-word access log: last write epoch + reads since that write."""

    write_tid: int = -1
    write_clk: int = -1
    write_locked: bool = False
    write_stack: tuple = ()
    #: tid -> (clock, bus_locked) of that thread's latest read since the
    #: last write.
    reads: dict[int, tuple[int, bool]] = field(default_factory=dict)
    reported: bool = False


class DjitDetector(EventDispatcher):
    """Vector-clock happens-before detector (register on a VM or replay).

    Uses the dispatch-table ABI (:mod:`repro.detectors.dispatch`): the
    VM routes each event type straight to its handler, and condvar
    events are not subscribed at all when ``cond_hb`` is off.
    """

    #: ``detector`` label value in the telemetry layer.
    telemetry_name = "djit"

    def __init__(
        self,
        *,
        cond_hb: bool = True,
        atomic_aware: bool = True,
        suppressions=None,
    ) -> None:
        self.report = Report(suppressions)
        self.cond_hb = cond_hb
        #: Modern (C11/TSan) semantics: two bus-locked accesses never
        #: race with each other (an atomic counter is synchronisation,
        #: not data).  The original DJIT predates this notion; set False
        #: for the classic behaviour, where unordered atomic increments
        #: are reported like any conflicting accesses.
        self.atomic_aware = atomic_aware
        self._clocks: dict[int, VectorClock] = {}
        self._lock_vc: dict[int, VectorClock] = {}
        self._queue_vc: dict[tuple[int, int], VectorClock] = {}
        #: FIFO of post clocks per semaphore (deque: O(1) ``popleft``).
        self._sem_vc: dict[int, deque[VectorClock]] = {}
        self._cond_vc: dict[int, VectorClock] = {}
        #: (barrier_id, generation) -> join of all arrival clocks.
        self._barrier_vc: dict[tuple[int, int], VectorClock] = {}
        self._final_vc: dict[int, VectorClock] = {}
        self._log: dict[int, _LocationLog] = {}
        self._benign = IntervalSet()

    # ------------------------------------------------------------------

    def _clock(self, tid: int) -> VectorClock:
        vc = self._clocks.get(tid)
        if vc is None:
            vc = VectorClock({tid: 1})
            self._clocks[tid] = vc
        return vc

    def _release_into(self, store: dict, key, tid: int) -> None:
        """Publish ``tid``'s clock into ``store[key]`` and tick."""
        vc = self._clock(tid)
        slot = store.get(key)
        if slot is None:
            store[key] = vc.copy()
        else:
            slot.join(vc)
        vc.tick(tid)

    def _acquire_from(self, store: dict, key, tid: int) -> None:
        slot = store.get(key)
        if slot is not None:
            self._clock(tid).join(slot)

    # ------------------------------------------------------------------

    def handler_for(self, event_type):
        """Dispatch-table ABI; condvar events gated on ``cond_hb``."""
        if event_type in (CondSignal, CondWait) and not self.cond_hb:
            return None
        return super().handler_for(event_type)

    @handles(LockRelease)
    def _on_lock_release(self, event: LockRelease, vm) -> None:
        self._release_into(self._lock_vc, event.lock_id, event.tid)

    @handles(LockAcquire)
    def _on_lock_acquire(self, event: LockAcquire, vm) -> None:
        self._acquire_from(self._lock_vc, event.lock_id, event.tid)

    @handles(ThreadCreate)
    def _on_thread_create(self, event: ThreadCreate, vm) -> None:
        parent = self._clock(event.tid)
        child = self._clock(event.child_tid)
        child.join(parent)
        parent.tick(event.tid)

    @handles(ThreadFinish)
    def _on_thread_finish(self, event: ThreadFinish, vm) -> None:
        self._final_vc[event.tid] = self._clock(event.tid).copy()

    @handles(ThreadJoin)
    def _on_thread_join(self, event: ThreadJoin, vm) -> None:
        final = self._final_vc.get(event.joined_tid)
        if final is not None:
            self._clock(event.tid).join(final)

    @handles(QueuePut)
    def _on_queue_put(self, event: QueuePut, vm) -> None:
        self._release_into(self._queue_vc, (event.queue_id, event.msg_id), event.tid)

    @handles(QueueGet)
    def _on_queue_get(self, event: QueueGet, vm) -> None:
        slot = self._queue_vc.pop((event.queue_id, event.msg_id), None)
        if slot is not None:
            self._clock(event.tid).join(slot)

    @handles(SemPost)
    def _on_sem_post(self, event: SemPost, vm) -> None:
        vc = self._clock(event.tid)
        tokens = self._sem_vc.get(event.sem_id)
        if tokens is None:
            tokens = deque()
            self._sem_vc[event.sem_id] = tokens
        tokens.append(vc.copy())
        vc.tick(event.tid)

    @handles(SemWait)
    def _on_sem_wait(self, event: SemWait, vm) -> None:
        tokens = self._sem_vc.get(event.sem_id)
        if tokens:
            self._clock(event.tid).join(tokens.popleft())

    @handles(CondSignal)
    def _on_cond_signal(self, event: CondSignal, vm) -> None:
        self._release_into(self._cond_vc, event.cond_id, event.tid)

    @handles(CondWait)
    def _on_cond_wait(self, event: CondWait, vm) -> None:
        if event.phase == "leave":
            self._acquire_from(self._cond_vc, event.cond_id, event.tid)

    @handles(MemAlloc)
    def _on_alloc(self, event: MemAlloc, vm) -> None:
        # Fresh allocation: prior accesses at these addresses (there
        # are none at VM level, but replayed traces may recycle) are
        # unrelated to the new object.
        for a in range(event.addr, event.addr + event.size):
            self._log.pop(a, None)

    @handles(MemFree)
    def _on_free(self, event: MemFree, vm) -> None:
        for a in range(event.addr, event.addr + event.size):
            self._log.pop(a, None)

    @handles(ClientRequest)
    def _on_client_request(self, event: ClientRequest, vm=None) -> None:
        if event.request == "benign_race":
            self._benign.add(event.addr, event.addr + event.size)
        elif event.request == "hg_clean":
            for a in range(event.addr, event.addr + event.size):
                self._log.pop(a, None)
        # hg_destruct is a lock-set concept; DJIT needs no help here.

    @handles(BarrierWait)
    def _on_barrier(self, event: BarrierWait, vm=None) -> None:
        """Every arrival of a generation happens-before every departure.

        Arrivals publish their clock into the generation's slot and
        tick; departures absorb the fully-joined slot (all parties have
        arrived by the time anyone leaves, so the slot is complete).
        """
        key = (event.barrier_id, event.generation)
        if event.phase == "arrive":
            self._release_into(self._barrier_vc, key, event.tid)
        else:
            self._acquire_from(self._barrier_vc, key, event.tid)

    # ------------------------------------------------------------------

    @handles(MemoryAccess)
    def _on_access(self, event: MemoryAccess, vm) -> None:
        benign = self._benign
        if benign._starts and event.addr in benign:
            return
        log = self._log.get(event.addr)
        if log is None:
            log = _LocationLog()
            self._log[event.addr] = log
        if log.reported:
            return
        vc = self._clock(event.tid)
        tid = event.tid
        locked = event.bus_locked

        def pair_races(other_locked: bool) -> bool:
            """Atomic-atomic pairs never race under atomic_aware."""
            return not (self.atomic_aware and locked and other_locked)

        def racy_with_write() -> bool:
            return (
                log.write_tid >= 0
                and log.write_tid != tid
                and pair_races(log.write_locked)
                and not vc.covers(log.write_tid, log.write_clk)
            )

        if event.is_write:
            race = racy_with_write() or any(
                rt != tid and pair_races(rl) and not vc.covers(rt, rc)
                for rt, (rc, rl) in log.reads.items()
            )
            if race:
                log.reported = True
                self._warn(event, vm)
                return
            log.write_tid = tid
            log.write_clk = vc.get(tid)
            log.write_locked = locked
            log.write_stack = event.stack
            log.reads.clear()
        else:
            if racy_with_write():
                log.reported = True
                self._warn(event, vm)
                return
            log.reads[tid] = (vc.get(tid), locked)

    def telemetry_summary(self) -> dict[str, float]:
        """Size gauges for ``repro_detector_state`` (telemetry layer)."""
        return {
            "thread_clocks": len(self._clocks),
            "lock_clocks": len(self._lock_vc),
            "logged_words": len(self._log),
            "logged_reads": sum(len(log.reads) for log in self._log.values()),
        }

    def _warn(self, event: MemoryAccess, vm) -> None:
        verb = "writing" if event.is_write else "reading"
        details = {"Relation": "accesses not ordered by happens-before"}
        if vm is not None:
            block = vm.memory.find_block(event.addr)
            if block is not None:
                details["Address"] = block.describe(event.addr)
        self.report.add(
            Warning_(
                kind=WarningKind.DATA_RACE,
                message=f"Apparent data race {verb} variable",
                tid=event.tid,
                step=event.step,
                stack=event.stack,
                addr=event.addr,
                details=details,
            )
        )
