"""Atomizer-style dynamic atomicity checking (the paper's reference [4]).

§2.1 of the paper points out that race-freedom is too weak a property —
a structure can tear even when every access is locked — and cites
Flanagan & Freund's *Atomizer* as the dynamic answer: check that blocks
the programmer intends to be atomic are **reducible** in Lipton's sense.

Lipton reduction, as Atomizer applies it:

* a lock *acquire* is a **right-mover** (commutes later),
* a lock *release* is a **left-mover** (commutes earlier),
* an access to a consistently-protected variable is a **both-mover**,
* an access to a potentially-racy variable is a **non-mover**.

A block is atomic if its event sequence matches ``R* N? L*`` — right
movers, at most one non-mover commit point, then left movers.  The
checker runs a two-phase state machine per open region (``PRE`` until
the commit point, ``POST`` after): a right-mover or a second non-mover
in the ``POST`` phase is an atomicity violation — the block can be
interleaved observably.

Variable raciness is decided the way Atomizer decides it: by running
the Eraser lock-set algorithm alongside (here: a full
:class:`~repro.detectors.helgrind.HelgrindDetector` with the corrected
bus-lock model, reused as the oracle for "is this access protected?").

Guest programs declare intent with ``api.atomic_region(name)``; the
SIP proxy's §2.1-style torn-record bug is the canonical catch (see
``tests/detectors/test_atomizer.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detectors.dispatch import EventDispatcher
from repro.detectors.helgrind import HelgrindConfig, HelgrindDetector
from repro.detectors.report import Report, Warning_
from repro.runtime.events import (
    CallStack,
    ClientRequest,
    Event,
    LockAcquire,
    LockRelease,
    MemoryAccess,
)

__all__ = ["AtomizerDetector", "ATOMICITY_VIOLATION"]

ATOMICITY_VIOLATION = "atomicity-violation"


@dataclass(slots=True)
class _Region:
    """One open atomic region of one thread."""

    stack: CallStack
    #: False = PRE-commit (right movers welcome); True = POST-commit.
    post: bool = False
    violated: bool = False


class AtomizerDetector(EventDispatcher):
    """Reduction-based atomicity checker (register on a VM or replay).

    Only code inside ``api.atomic_region(...)`` blocks is checked;
    everything else streams through to the embedded raciness oracle.
    """

    #: ``detector`` label value in the telemetry layer.
    telemetry_name = "atomizer"

    def __init__(
        self, config: HelgrindConfig | None = None, *, suppressions=None
    ) -> None:
        self.report = Report(suppressions)
        #: Eraser oracle deciding which accesses are both-movers (on
        #: ``config``, HWLC+DR by default).  Its own report is ignored;
        #: only the shadow machine is consulted.
        self._oracle = HelgrindDetector(
            config or HelgrindConfig.hwlc_dr().with_(name="atomizer-oracle")
        )
        #: tid -> stack of open regions (outermost first).
        self._regions: dict[int, list[_Region]] = {}
        self.regions_checked = 0

    # ------------------------------------------------------------------

    def handler_for(self, event_type):
        """Dispatch-table ABI.  The four event types Lipton reduction
        classifies get a pre-oracle phase; everything else the oracle
        subscribes to streams straight through.  The classification
        always runs *before* the oracle mutates its shadow state."""
        own = {
            ClientRequest: self._on_client_request,
            LockAcquire: self._on_lock_acquire,
            LockRelease: self._on_lock_release,
            MemoryAccess: self._on_access,
        }.get(event_type)
        return own if own is not None else self._oracle.handler_for(event_type)

    @property
    def machine(self):
        """Shadow lock-set machine of the raciness oracle (telemetry
        layer enables state-transition tracking through this)."""
        return self._oracle.machine

    def telemetry_summary(self) -> dict[str, float]:
        """Size gauges for ``repro_detector_state`` (telemetry layer)."""
        open_now = sum(len(stack) for stack in self._regions.values())
        return {
            "regions_checked": self.regions_checked,
            "regions_open": open_now,
            "oracle_tracked_words": self._oracle.machine.tracked_words,
        }

    def _on_client_request(self, event: ClientRequest, vm) -> None:
        if event.request == "atomic_begin":
            self._regions.setdefault(event.tid, []).append(_Region(stack=event.stack))
            self.regions_checked += 1
            return
        if event.request == "atomic_end":
            open_regions = self._regions.get(event.tid)
            if open_regions:
                open_regions.pop()
            return
        self._oracle._on_client_request(event, vm)

    def _on_lock_acquire(self, event: LockAcquire, vm) -> None:
        open_regions = self._regions.get(event.tid)
        if open_regions:
            self._apply(event, open_regions, mover="right")
        self._oracle._on_lock_acquire(event, vm)

    def _on_lock_release(self, event: LockRelease, vm) -> None:
        open_regions = self._regions.get(event.tid)
        if open_regions:
            self._apply(event, open_regions, mover="left")
        self._oracle._on_lock_release(event, vm)

    def _on_access(self, event: MemoryAccess, vm) -> None:
        # Classify *before* the oracle mutates its shadow state.
        open_regions = self._regions.get(event.tid)
        if open_regions:
            mover = "both" if self._protected(event) else "non"
            self._apply(event, open_regions, mover=mover)
        self._oracle._on_access(event, vm)

    # ------------------------------------------------------------------

    def _protected(self, event: MemoryAccess) -> bool:
        """Both-mover test: would this access keep a non-empty candidate
        set under the Eraser oracle?  (Private/exclusive data is trivially
        protected.)"""
        from repro.detectors.lockset import LOCKSETS, WordState

        machine = self._oracle.machine
        word = machine.word(event.addr)
        if word.state in (WordState.NEW, WordState.EXCLUSIVE):
            return True  # thread-local (so far): both-mover
        held = self._oracle._held_for(event.tid)
        any_id, write_id = held.ids[event.is_write][event.bus_locked]
        effective = LOCKSETS.members(write_id if event.is_write else any_id)
        current = word.lockset if word.lockset is not None else effective
        return bool(current & effective)

    def _apply(self, event: Event, open_regions: list[_Region], *, mover: str) -> None:
        for region in open_regions:
            if region.violated:
                continue
            if mover == "both":
                continue
            if mover == "right":
                if region.post:
                    self._violate(
                        region,
                        event,
                        "lock acquired after a left-mover — the block can "
                        "be interleaved between the two critical sections",
                    )
                continue
            if mover == "left":
                region.post = True
                continue
            # non-mover: the commit point.
            if region.post:
                self._violate(
                    region,
                    event,
                    "second commit point (unprotected access after the "
                    "block already committed)",
                )
            else:
                region.post = True

    def _violate(self, region: _Region, event: Event, why: str) -> None:
        region.violated = True
        name = region.stack[0].function if region.stack else "<region>"
        self.report.add(
            Warning_(
                kind=ATOMICITY_VIOLATION,
                message=f"Atomicity violation in {name}",
                tid=event.tid,
                step=event.step,
                stack=event.stack,
                addr=getattr(event, "addr", None),
                details={
                    "Reduction": why,
                    "Declared at": str(region.stack[0]) if region.stack else "?",
                },
            )
        )
