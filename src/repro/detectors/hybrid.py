"""Hybrid lock-set × happens-before race detection (§2.2's [12,13]).

MultiRace and the O'Callahan/Choi hybrid combine the two algorithm
families: the lock-set rule nominates *suspicious* accesses (locking
discipline violated), and the happens-before relation then confirms or
vetoes them (were the conflicting accesses actually concurrent?).  The
result keeps most of lock-set's schedule-independence while discarding
the ownership-transfer false positives that pure lock-set produces on
Figure 11-style hand-offs.

Implementation: a :class:`~repro.detectors.lockset.LocksetMachine` (with
the Figure 1 states and segment transfer) runs as the nominator.  In
parallel a DJIT-style vector-clock layer timestamps the last conflicting
access per word; a lock-set violation is reported only when the current
access is *concurrent* with that previous access.

The vocabulary of synchronisation visible to the happens-before layer is
configurable exactly as in :class:`~repro.detectors.djit.DjitDetector`;
by default it sees locks, threads, queues, semaphores and barriers (not
condition variables, honouring the §2.2 soundness caveat).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detectors.dispatch import EventDispatcher, combine_handlers
from repro.detectors.djit import DjitDetector
from repro.detectors.helgrind import BusLockModel, HelgrindConfig, HelgrindDetector
from repro.detectors.lockset import WordState
from repro.detectors.report import Report, Warning_, WarningKind
from repro.runtime.events import MemoryAccess

__all__ = ["HybridDetector"]


@dataclass(slots=True)
class _LastConflict:
    """Per-word epoch of the most recent write and reads (for the veto)."""

    write_tid: int = -1
    write_clk: int = -1
    write_locked: bool = False
    reads: dict[int, tuple[int, bool]] = field(default_factory=dict)


class HybridDetector(EventDispatcher):
    """Lock-set nominator + happens-before confirmer.

    Composes a silent :class:`HelgrindDetector` (the nominator — its own
    report is ignored) with a silent :class:`DjitDetector` used purely
    for its vector clocks.  Only nominations whose conflicting accesses
    are concurrent reach :attr:`report`.
    """

    #: ``detector`` label value in the telemetry layer.
    telemetry_name = "hybrid"

    def __init__(
        self,
        config: HelgrindConfig | None = None,
        *,
        cond_hb: bool = False,
        suppressions=None,
    ) -> None:
        self.config = config or HelgrindConfig(
            name="hybrid", bus_lock_model=BusLockModel.RWLOCK, honor_destruct=True
        )
        self._lockset = HelgrindDetector(self.config)
        self._hb = DjitDetector(cond_hb=cond_hb)
        self.report = Report(suppressions)
        self._last: dict[int, _LastConflict] = {}
        #: Nominations vetoed because the accesses were ordered.
        self.vetoed = 0

    def handler_for(self, event_type):
        """Dispatch-table ABI: accesses are handled here; every other
        event type fans out to whichever inner engines subscribe to it
        (the composition the old ``isinstance`` gate expressed)."""
        if event_type is MemoryAccess:
            return self._on_access
        # Non-access events drive both engines' shadow state.
        return combine_handlers(
            self._lockset.handler_for(event_type),
            self._hb.handler_for(event_type),
        )

    @property
    def machine(self):
        """Shadow lock-set machine of the nominator (telemetry layer
        enables state-transition tracking through this)."""
        return self._lockset.machine

    def telemetry_summary(self) -> dict[str, float]:
        """Size gauges for ``repro_detector_state`` (telemetry layer)."""
        return {
            "nominations_vetoed": self.vetoed,
            "tracked_words": self._lockset.machine.tracked_words,
            "hb_thread_clocks": len(self._hb._clocks),
            "pending_conflicts": len(self._last),
        }

    # ------------------------------------------------------------------

    def _on_access(self, event: MemoryAccess, vm) -> None:
        # 1. Lock-set nomination (run the machine directly so we can see
        #    the outcome rather than the detector's report).  Interned
        #    lock-set ids keep this as cheap as the plain detector.
        held = self._lockset._held_for(event.tid)
        locks_any, locks_write = held.ids[event.is_write][event.bus_locked]
        outcome = self._lockset.machine.access(
            event.addr,
            event.tid,
            is_write=event.is_write,
            locks_any=locks_any,
            locks_write=locks_write,
        )

        # 2. Happens-before bookkeeping (epoch of last conflicting access).
        vc = self._hb._clock(event.tid)
        last = self._last.get(event.addr)
        if last is None:
            last = _LastConflict()
            self._last[event.addr] = last

        locked = event.bus_locked

        def pair_races(other_locked: bool) -> bool:
            # Atomic-atomic pairs are synchronisation, not data.
            return not (locked and other_locked)

        concurrent = False
        if outcome.race:
            if event.is_write:
                concurrent = (
                    last.write_tid >= 0
                    and last.write_tid != event.tid
                    and pair_races(last.write_locked)
                    and not vc.covers(last.write_tid, last.write_clk)
                ) or any(
                    rt != event.tid and pair_races(rl) and not vc.covers(rt, rc)
                    for rt, (rc, rl) in last.reads.items()
                )
            else:
                concurrent = (
                    last.write_tid >= 0
                    and last.write_tid != event.tid
                    and pair_races(last.write_locked)
                    and not vc.covers(last.write_tid, last.write_clk)
                )
            if concurrent:
                self._warn(event, vm)
            else:
                self.vetoed += 1
                # Un-latch the word: the nominator parks a word in RACY
                # after its first empty intersection, but a vetoed
                # nomination is *not* a report — later accesses to the
                # same word must be able to nominate again (they may be
                # genuinely concurrent next time).
                word = self._lockset.machine.word(event.addr)
                word.state = WordState.SHARED_MODIFIED

        # 3. Update the epoch log.
        if event.is_write:
            last.write_tid = event.tid
            last.write_clk = vc.get(event.tid)
            last.write_locked = locked
            last.reads.clear()
        else:
            last.reads[event.tid] = (vc.get(event.tid), locked)

    def _warn(self, event: MemoryAccess, vm) -> None:
        verb = "writing" if event.is_write else "reading"
        details = {
            "Confirmed": "lock-set empty and accesses concurrent",
        }
        if vm is not None:
            block = vm.memory.find_block(event.addr)
            if block is not None:
                details["Address"] = block.describe(event.addr)
        self.report.add(
            Warning_(
                kind=WarningKind.DATA_RACE,
                message=f"Confirmed data race {verb} variable",
                tid=event.tid,
                step=event.step,
                stack=event.stack,
                addr=event.addr,
                details=details,
            )
        )
