"""The Helgrind-style data-race detector with the paper's improvements.

:class:`HelgrindDetector` is the complete on-the-fly checker: the Eraser
lock-set machine (:mod:`repro.detectors.lockset`), thread segments
(:mod:`repro.detectors.segments`), and — selected by
:class:`HelgrindConfig` — the paper's two contributions plus its
future-work extension:

**Hardware bus-lock model (HWLC, §3.1 / §4.2.2).**
The x86 ``LOCK`` prefix is modelled as a virtual lock injected into the
effective lock-set of individual accesses:

* ``BusLockModel.MUTEX`` — the *original*, incorrect Helgrind model: the
  virtual lock is held only during ``LOCK``-prefixed accesses.  Plain
  reads of an atomically-updated word therefore drain its candidate set
  and produce the Figure 8/9 false positive.
* ``BusLockModel.RWLOCK`` — the paper's correction: "a read-write lock
  being held for reading in every read access and locked for writing,
  when the lock prefix is used".  Every plain read holds the bus lock in
  read mode; ``LOCK``-prefixed accesses hold it in write mode; plain
  writes do not hold it at all.  Atomic counters stop warning, while
  genuinely unprotected writes still do (their write-mode set is empty).

**Destructor annotation (DR, §3.1 / §4.2.1).**
When ``honor_destruct`` is set, a ``VALGRIND_HG_DESTRUCT`` client request
(emitted by instrumented ``delete`` sites, Figure 4) moves the object's
words back to EXCLUSIVE(current segment), so the header writes performed
by the chain of base-class destructors no longer warn — while any touch
by *another* thread during destruction is still caught.

**Higher-level synchronisation (extended config, §4.4 / §5).**
``queue_hb``/``cond_hb`` teach the segment graph about message-queue
put/get, semaphore post/wait and condvar signal/wait pairs, closing the
Figure 11 thread-pool false-positive class the paper leaves as future
work.  (``cond_hb`` is off even in the extended config's documentation
examples unless asked for: §2.2 explains why the signal/wait relation is
not generally sound to treat as ordering.)
"""

from __future__ import annotations

import enum
import struct
from collections import deque
from dataclasses import dataclass, replace

from repro.detectors.dispatch import EventDispatcher, handles
from repro.detectors.lockset import (
    EMPTY_ID,
    LOCKSETS,
    LocksetMachine,
    LocksetOutcome,
    WordState,
)
from repro.detectors.lockset import (  # the batched pump inlines the machine
    _EXCLUSIVE,
    _KEEP_OWNER,
    _LOW,
    _LS_BITS,
    _LS_MASK,
    _LS_SHIFT,
    _OWNER_SHIFT,
    _PAGE_BITS,
    _PAGE_MASK,
    _RACY,
    _SHARED,
    _SHARED_MOD,
    _ST_MASK,
    _STATE_OF_CODE,
)
from repro.detectors.report import Report, Warning_, WarningKind
from repro.detectors.segments import SegmentGraph
from repro._util.intervals import IntervalSet
from repro.runtime.events import (
    AccessKind,
    ClientRequest,
    CondSignal,
    CondWait,
    LockAcquire,
    LockMode,
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

__all__ = ["BusLockModel", "HelgrindConfig", "HelgrindDetector", "BUS_LOCK_ID"]

#: Reserved lock id for the virtual hardware bus lock.
BUS_LOCK_ID = -1


class BusLockModel(enum.Enum):
    """How the ``LOCK`` prefix is interpreted (the HWLC switch)."""

    #: Original Helgrind: a mutex held only during LOCKed accesses.
    MUTEX = "mutex"
    #: The paper's correction: an implicit read-write lock.
    RWLOCK = "rwlock"


@dataclass(frozen=True, slots=True)
class HelgrindConfig:
    """Detector configuration — one row selector of the paper's Figure 6.

    The three evaluation configurations::

        HelgrindConfig.original()   # as-shipped Helgrind
        HelgrindConfig.hwlc()       # + corrected hardware bus lock
        HelgrindConfig.hwlc_dr()    # + destructor annotation

    plus the ablation and extension configurations used by E10/E5.
    """

    name: str = "original"
    bus_lock_model: BusLockModel = BusLockModel.MUTEX
    honor_destruct: bool = False
    #: Figure 1 state machine (ablation D1).
    use_states: bool = True
    #: VisualThreads segment ownership transfer (ablation D2).
    segment_transfer: bool = True
    #: Treat queue put/get and sem post/wait as segment edges (§5).
    queue_hb: bool = False
    #: Treat condvar signal/wait as segment edges (unsound in general).
    cond_hb: bool = False
    #: One report per racy word (Eraser's literal rule) vs Helgrind's
    #: keep-reporting behaviour, where the report layer deduplicates by
    #: call stack and one racy word can surface at many locations.
    once_per_word: bool = False
    #: Record each word's previous access so warnings can show both
    #: sides of the conflict (later Helgrind's --history-level=full).
    #: Costs one stack reference per shadow word; off by default.
    access_history: bool = False
    #: Memoized shadow-transition cache + batched block replay
    #: (docs/PERFORMANCE.md layer 6).  ``False`` runs the uncached
    #: per-event path, the reference the equivalence tests compare the
    #: cached one against; reports are byte-identical either way.
    transition_cache: bool = True

    # -- the paper's three evaluation configurations -------------------

    @classmethod
    def original(cls) -> "HelgrindConfig":
        """Helgrind as shipped: mutex bus lock, no annotations."""
        return cls(name="original")

    @classmethod
    def hwlc(cls) -> "HelgrindConfig":
        """HWLC: corrected (rw-lock) hardware bus-lock semantics."""
        return cls(name="hwlc", bus_lock_model=BusLockModel.RWLOCK)

    @classmethod
    def hwlc_dr(cls) -> "HelgrindConfig":
        """HWLC+DR: corrected bus lock + destructor annotations honoured."""
        return cls(
            name="hwlc+dr",
            bus_lock_model=BusLockModel.RWLOCK,
            honor_destruct=True,
        )

    # -- ablations & extensions ----------------------------------------

    @classmethod
    def raw_eraser(cls) -> "HelgrindConfig":
        """§2.3.2's basic algorithm: no states, no segments."""
        return cls(name="raw-eraser", use_states=False, segment_transfer=False)

    @classmethod
    def eraser_states(cls) -> "HelgrindConfig":
        """Figure 1 states but per-thread ownership (no segments)."""
        return cls(name="eraser-states", segment_transfer=False)

    @classmethod
    def extended(cls) -> "HelgrindConfig":
        """HWLC+DR plus queue/semaphore happens-before (future work, §5)."""
        return cls(
            name="extended",
            bus_lock_model=BusLockModel.RWLOCK,
            honor_destruct=True,
            queue_hb=True,
        )

    def with_(self, **changes) -> "HelgrindConfig":
        """A modified copy (convenience for experiments)."""
        return replace(self, **changes)


class _HeldLocks:
    """Per-thread lock holdings and the effective lock-set ids of every
    access shape.

    The canonical representation is two interned
    :data:`~repro.detectors.lockset.LOCKSETS` ids, ``any_id`` and
    ``write_id``, that the hot path hands straight to the state machine —
    comparing and intersecting small ints instead of sets (Eraser's own
    optimisation).  Lock acquire/release walks the ids forward through
    the table's memoized
    :meth:`~repro.detectors.lockset.LocksetTable.with_lock` /
    ``without_lock`` operations (steady state: a few dict hits, no set
    is ever built), so the per *memory access* path (hot) is
    allocation-free and the per *lock* path (rare) nearly so.

    ``ids[is_write][bus_locked]`` is the ``(any_id, write_id)`` pair one
    access of that shape holds once the virtual bus lock is injected —
    the HWLC rule as a table (see :meth:`_rebuild`).  It changes only
    when the holdings do, so it is rebuilt at acquire and release and
    every access reads it with two subscripts.  It is derived state
    over process-local ids: pickling leaves it out, and the owning
    detector rebuilds it on restore (:meth:`bind`), because only the
    detector knows the bus-lock model.
    """

    __slots__ = ("modes", "any_id", "write_id", "rwlock_bus", "ids")

    def __init__(self, rwlock_bus: bool) -> None:
        self.modes: dict[int, LockMode] = {}
        self.any_id = EMPTY_ID
        self.write_id = EMPTY_ID
        self.rwlock_bus = rwlock_bus
        bus_only = LOCKSETS.with_lock(EMPTY_ID, BUS_LOCK_ID)
        self._rebuild(bus_only, bus_only)

    def acquire(self, lock_id: int, mode: LockMode) -> None:
        prev = self.modes.get(lock_id)
        self.modes[lock_id] = mode
        table = LOCKSETS
        self.any_id = table.with_lock(self.any_id, lock_id)
        if mode is LockMode.EXCLUSIVE or mode is LockMode.WRITE:
            self.write_id = table.with_lock(self.write_id, lock_id)
        elif prev is not None:
            # Re-acquired in a weaker mode: drop any write-set membership.
            self.write_id = table.without_lock(self.write_id, lock_id)
        self._rebuild()

    def release(self, lock_id: int) -> None:
        self.modes.pop(lock_id, None)
        table = LOCKSETS
        self.any_id = table.without_lock(self.any_id, lock_id)
        self.write_id = table.without_lock(self.write_id, lock_id)
        self._rebuild()

    def bind(self, rwlock_bus: bool) -> None:
        """Set the bus-lock model and rebuild :attr:`ids` (restore)."""
        self.rwlock_bus = rwlock_bus
        self._rebuild()

    def _rebuild(self, any_bus: int | None = None, write_bus: int | None = None) -> None:
        """Inject the virtual bus lock into every access shape.

        A ``LOCK``-prefixed access holds the bus lock in write mode
        under both models.  Under the paper's RWLOCK correction every
        plain read also holds it in read mode; under the original MUTEX
        model plain accesses never hold it, and a plain write holds it
        under neither.  A caller that already has the bus-locked ids
        passes them in, which spares two table lookups.
        """
        any_id = self.any_id
        write_id = self.write_id
        if any_bus is None:
            any_bus = LOCKSETS.with_lock(any_id, BUS_LOCK_ID)
            write_bus = LOCKSETS.with_lock(write_id, BUS_LOCK_ID)
        locked = (any_bus, write_bus)
        read = (any_bus, write_id) if self.rwlock_bus else (any_id, write_id)
        self.ids = ((read, locked), ((any_id, write_id), locked))

    def __getstate__(self) -> dict:
        """The ``*_id`` fields index the process-global
        :data:`~repro.detectors.lockset.LOCKSETS` table; pickle the
        member sets themselves and re-intern on restore so a checkpoint
        survives a server restart."""
        return {
            "modes": self.modes,
            "any": LOCKSETS.members(self.any_id),
            "write": LOCKSETS.members(self.write_id),
        }

    def __setstate__(self, state: dict) -> None:
        self.modes = state["modes"]
        self.any_id = LOCKSETS.id_of(state["any"])
        self.write_id = LOCKSETS.id_of(state["write"])

    @property
    def any_(self) -> frozenset[int]:
        """Frozenset view of the any-mode set (off the hot path)."""
        return LOCKSETS.members(self.any_id)


class _BulkEvent:
    """Minimal :class:`MemoryAccess` stand-in materialised only for the
    rare racing row of a batched block (:meth:`HelgrindDetector.bulk_access`
    hands it to ``_report_race``, which reads exactly these fields)."""

    __slots__ = ("step", "tid", "stack", "addr", "is_write")


#: Row struct the pump iterates, per codec row struct: the same bytes
#: with the step and ``block_id`` columns read as pad bytes, so a row
#: unpacks straight into ``tid, stack, addr, kind, bus``.
_PUMP_ROWS: dict[struct.Struct, struct.Struct] = {}


def _pump_rows(s: struct.Struct, has_step: bool) -> struct.Struct:
    rows = _PUMP_ROWS.get(s)
    if rows is None:
        # "<" [step "I"] "iI" addr "BB" block_id "i"
        body = s.format[2:-1] if has_step else s.format[1:-1]
        rows = struct.Struct("<" + "4x" * has_step + body + "4x")
        assert rows.size == s.size, (s.format, rows.format)
        _PUMP_ROWS[s] = rows
    return rows


class HelgrindDetector(EventDispatcher):
    """On-the-fly data-race detector (register on a VM or feed a trace).

    After a run, results are in :attr:`report`; the candidate-set shadow
    memory and the segment graph remain inspectable for tests and
    experiments.

    Events are routed through the dispatch-table ABI
    (:mod:`repro.detectors.dispatch`): the VM calls the per-type handler
    directly, so no ``isinstance`` cascade runs per event, and event
    types the configuration does not subscribe to (queue/semaphore
    tokens without ``queue_hb``, condvar tokens without ``cond_hb``,
    ``BarrierWait`` always) are skipped before the detector is entered.
    """

    #: Short stable name used by the telemetry layer as the
    #: ``detector`` label value (:mod:`repro.telemetry.probe`).
    telemetry_name = "helgrind"

    def __init__(self, config: HelgrindConfig | None = None, *, suppressions=None) -> None:
        self.config = config or HelgrindConfig.original()
        self.segments = SegmentGraph()
        self.machine = LocksetMachine(
            self.segments,
            use_states=self.config.use_states,
            segment_transfer=self.config.segment_transfer,
            once_per_word=self.config.once_per_word,
            transition_cache=self.config.transition_cache,
        )
        self.machine.access_history = self.config.access_history
        self.report = Report(suppressions)
        self._held: dict[int, _HeldLocks] = {}
        self._benign = IntervalSet()
        #: queue messages in flight: (queue_id, msg_id) -> clock token.
        self._queue_tokens: dict[tuple[int, int], dict[int, int]] = {}
        #: semaphore post tokens, FIFO per semaphore (a deque: ``popleft``
        #: is O(1) where a list's ``pop(0)`` is O(n)).
        self._sem_tokens: dict[int, deque[dict[int, int]]] = {}
        #: last signal token per condvar.
        self._cond_tokens: dict[int, dict[int, int]] = {}
        #: lock names for report rendering (learned from events lazily).
        self._access_checks = 0
        #: Rows absorbed by :meth:`bulk_access`'s run-length elision.
        self._elided = 0
        #: HWLC: plain reads hold the bus lock in read mode (§3.1).
        self._rwlock_bus = self.config.bus_lock_model is BusLockModel.RWLOCK

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled detector (a session snapshot).  Each
        thread's id table is rebuilt here: it holds this process's
        lock-set ids, and snapshots carry only the member sets."""
        self.__dict__.update(state)
        for held in self._held.values():
            held.bind(self._rwlock_bus)

    # ------------------------------------------------------------------
    # VM hook (dispatch-table ABI; BarrierWait intentionally has no
    # handler — the lock-set algorithm ignores barriers)
    # ------------------------------------------------------------------

    def handler_for(self, event_type):
        """Dispatch-table ABI, gated by configuration.

        Queue/semaphore and condvar events are only subscribed when the
        corresponding happens-before extension is enabled, so the common
        configurations never even see them.
        """
        if event_type in (QueuePut, QueueGet, SemPost, SemWait):
            if not self.config.queue_hb:
                return None
        elif event_type in (CondSignal, CondWait):
            if not self.config.cond_hb:
                return None
        return super().handler_for(event_type)

    @handles(LockAcquire)
    def _on_lock_acquire(self, event: LockAcquire, vm) -> None:
        self._held_for(event.tid).acquire(event.lock_id, event.mode)

    @handles(LockRelease)
    def _on_lock_release(self, event: LockRelease, vm) -> None:
        self._held_for(event.tid).release(event.lock_id)

    @handles(MemAlloc)
    def _on_alloc(self, event: MemAlloc, vm) -> None:
        self.machine.on_alloc(event.addr, event.size)

    @handles(MemFree)
    def _on_free(self, event: MemFree, vm) -> None:
        self.machine.on_free(event.addr, event.size)

    @handles(ThreadCreate)
    def _on_thread_create(self, event: ThreadCreate, vm) -> None:
        self.segments.on_create(event.tid, event.child_tid)

    @handles(ThreadFinish)
    def _on_thread_finish(self, event: ThreadFinish, vm) -> None:
        self.segments.on_finish(event.tid)

    @handles(ThreadJoin)
    def _on_thread_join(self, event: ThreadJoin, vm) -> None:
        self.segments.on_join(event.tid, event.joined_tid)

    @handles(QueuePut)
    def _on_queue_put(self, event: QueuePut, vm) -> None:
        self._queue_tokens[(event.queue_id, event.msg_id)] = self.segments.post(
            event.tid
        )

    @handles(QueueGet)
    def _on_queue_get(self, event: QueueGet, vm) -> None:
        token = self._queue_tokens.pop((event.queue_id, event.msg_id), None)
        if token is not None:
            self.segments.receive(event.tid, token)

    @handles(SemPost)
    def _on_sem_post(self, event: SemPost, vm) -> None:
        tokens = self._sem_tokens.get(event.sem_id)
        if tokens is None:
            tokens = deque()
            self._sem_tokens[event.sem_id] = tokens
        tokens.append(self.segments.post(event.tid))

    @handles(SemWait)
    def _on_sem_wait(self, event: SemWait, vm) -> None:
        tokens = self._sem_tokens.get(event.sem_id)
        if tokens:
            self.segments.receive(event.tid, tokens.popleft())

    @handles(CondSignal)
    def _on_cond_signal(self, event: CondSignal, vm) -> None:
        self._cond_tokens[event.cond_id] = self.segments.post(event.tid)

    @handles(CondWait)
    def _on_cond_wait(self, event: CondWait, vm) -> None:
        if event.phase == "leave":
            token = self._cond_tokens.get(event.cond_id)
            if token is not None:
                self.segments.receive(event.tid, token)

    # ------------------------------------------------------------------
    # Memory accesses (the hot path)
    # ------------------------------------------------------------------

    @handles(MemoryAccess)
    def _on_access(self, event: MemoryAccess, vm) -> None:
        """Per-event access path: read the thread's effective ids for
        this access shape (:attr:`_HeldLocks.ids`), then run the
        machine's Figure 1 rule."""
        benign = self._benign
        if benign._starts and event.addr in benign:
            return
        self._access_checks += 1
        tid = event.tid
        held = self._held.get(tid) or self._held_for(tid)
        is_write = event.kind is AccessKind.WRITE
        any_id, write_id = held.ids[is_write][event.bus_locked]
        machine = self.machine
        outcome = machine.access_check(event.addr, tid, is_write, any_id, write_id)
        if outcome is not None:
            self._report_race(event, outcome, vm)
        if machine.access_history:
            word = machine.word(event.addr)
            prev = word.last_access
            if prev is not None and prev[0] != tid:
                word.last_other = prev
            word.last_access = (tid, is_write, event.stack)

    # ------------------------------------------------------------------
    # Batched block replay (docs/PERFORMANCE.md layer 6)
    # ------------------------------------------------------------------

    def bulk_access_ready(self) -> bool:
        """May :func:`repro.runtime.codec.replay_blocks` hand whole
        decoded ``MemoryAccess`` blocks to :meth:`bulk_access`?

        Static gate, checked once when the dispatch table is built:
        bulk replay inlines this exact class's access semantics, so a
        subclass, a cache-disabled machine, the no-states ablation or
        access-history mode all fall back to the per-event handlers.
        """
        machine = self.machine
        return (
            type(self) is HelgrindDetector
            and machine.transition_cache
            and machine.use_states
            and not machine.access_history
        )

    def bulk_access(self, block, s, base, stacks, vm) -> bool:
        """Analyse one decoded ``MemoryAccess`` block in a tight loop.

        ``block`` is the raw row bytes, ``s`` the row struct, ``base``
        the SEQ_STEP base (``None`` = rows carry their own step).
        Returns ``False`` — caller must fall back to the per-event
        loop — when dynamic state forbids batching (benign ranges
        registered, transition tracking enabled mid-run).

        Each row is first checked, then decided by the shadow word it
        touches:

        * **checked** — a stack id outside ``stacks``, or a kind or bus
          byte above 1, raises ``IndexError``, and the dispatch step
          names the corrupt row, as every other reader does;
        * **elided** — a row equal to the previous one (same thread,
          address, kind and bus) after a race-free access is a proven
          state no-op;
        * **owned** — a word EXCLUSIVE to the thread's current segment
          is finished after one page probe and one compare of the
          packed word against the thread's owner token;
        * **SHARED / SHARED-MODIFIED** — one probe of the transition
          memo, keyed by the thread's lock-set id for the access shape;
        * **RACY** — finished on its state code;
        * everything else (NEW, ownership transfer, memo misses) takes
          the machine's normal ``access_check``, so the state evolution
          is exactly the sequential one.  Only these rows and the memo
          probe read the thread's lock-set ids.

        Within one block there are no lock, segment or client-request
        events (blocks are single-type), so a thread's owner token and
        id table (:attr:`_HeldLocks.ids`) are constants of the block;
        the loop keeps the last thread's, and the last page.  A racing
        row at an already decided location is one ``Report.repeat``
        call; only a new location builds its outcome and warning.
        """
        machine = self.machine
        memo = machine._memo
        if memo is None or machine.transition_counts is not None \
                or self._benign._starts:
            return False
        pages = machine._pages
        seg_ids = machine._seg_ids if machine.segment_transfer else None
        held = self._held
        access_check = machine.access_check
        repeat = self.report.repeat
        n_stacks = len(stacks)
        # The previous row, for run-length elision (``p_addr`` is None
        # while disarmed); the last thread's owner token and id table;
        # the last materialised page.
        p_tid = p_addr = p_kind = p_bus = None
        last_tid = token = ids = None
        last_pi = page = None
        elided = 0
        hits = 0
        i = -1
        for tid, stack, addr, kind, bus in _pump_rows(s, base is None).iter_unpack(block):
            i += 1
            if stack >= n_stacks:
                raise IndexError(f"row {i} names an undefined stack")
            if addr == p_addr and tid == p_tid and kind == p_kind \
                    and bus == p_bus:
                elided += 1
                continue
            if kind > 1 or bus > 1:
                raise IndexError(f"row {i} has a kind or bus byte above 1")
            if tid != last_tid:
                last_tid = tid
                ids = (held.get(tid) or self._held_for(tid)).ids
                owner = tid if seg_ids is None else seg_ids.get(tid)
                # A thread the segment graph has not started owns no
                # word yet: no token, and access_check starts it.
                token = None if owner is None else (
                    _EXCLUSIVE | ((owner + 1) << _OWNER_SHIFT)
                )
            pi = addr >> _PAGE_BITS
            if pi != last_pi:
                page = pages.get(pi)
                last_pi = None if page is None else pi
            if page is None:
                # Pristine page: let the machine materialise it.
                any_id, write_id = ids[kind][bus]
                outcome = access_check(addr, tid, kind == 1, any_id, write_id)
            else:
                packed = page[addr & _PAGE_MASK]
                if packed == token:
                    p_tid = tid
                    p_addr = addr
                    p_kind = kind
                    p_bus = bus
                    continue
                outcome = None
                code = packed & _ST_MASK
                if code == _SHARED_MOD or code == _SHARED:
                    # The held id is any_id for a read, write_id for a
                    # write: index the (any_id, write_id) pair by kind.
                    low = packed & _LOW
                    value = memo.get(
                        (((low << 1) | kind) << _LS_BITS) | ids[kind][bus][kind]
                    )
                    if value is None:
                        any_id, write_id = ids[kind][bus]
                        outcome = access_check(
                            addr, tid, kind == 1, any_id, write_id
                        )
                    else:
                        hits += 1
                        new_low = value >> 1
                        if new_low != low:
                            page[addr & _PAGE_MASK] = (packed & _KEEP_OWNER) | new_low
                        if value & 1:
                            outcome = True  # a memoized race, described below
                elif code != _RACY:
                    # NEW, or EXCLUSIVE to another segment.
                    any_id, write_id = ids[kind][bus]
                    outcome = access_check(addr, tid, kind == 1, any_id, write_id)
            if outcome is None:
                p_tid = tid
                p_addr = addr
                p_kind = kind
                p_bus = bus
                continue
            p_addr = None
            if repeat(WarningKind.DATA_RACE, stacks[stack], addr):
                continue
            if outcome is True:
                outcome = LocksetOutcome(
                    True,
                    _STATE_OF_CODE[code],
                    ((low >> _LS_SHIFT) & _LS_MASK) - 1,
                    ((new_low >> _LS_SHIFT) & _LS_MASK) - 1,
                )
            ev = _BulkEvent()
            ev.step = s.unpack_from(block, i * s.size)[0] if base is None else base + i
            ev.tid = tid
            ev.stack = stacks[stack]
            ev.addr = addr
            ev.is_write = kind == 1
            self._report_race(ev, outcome, vm)
        self._access_checks += i + 1
        self._elided += elided
        machine._memo_hits += hits
        return True

    def _report_race(self, event: MemoryAccess, outcome, vm) -> None:
        """Report one dynamic race; a repeat of a decided location is
        only counted, so the Figure-9 warning is built once per
        location."""
        if self.report.repeat(WarningKind.DATA_RACE, event.stack, event.addr):
            return
        verb = "writing" if event.is_write else "reading"
        details = {
            "Previous state": _describe_state(
                outcome.prev_state, outcome.prev_lockset
            ),
        }
        if self.config.access_history:
            word = self.machine.word(event.addr)
            history = word.last_access
            if history is None or history[0] == event.tid:
                history = word.last_other
            if history is not None and history[0] != event.tid:
                h_tid, h_write, h_stack = history
                verb_h = "write" if h_write else "read"
                where = str(h_stack[0]) if h_stack else "<no symbols>"
                details["Conflicts with"] = (
                    f"previous {verb_h} by thread {h_tid} at {where}"
                )
        if vm is not None:
            block = vm.memory.find_block(event.addr)
            if block is not None:
                details["Address"] = block.describe(event.addr)
        warning = Warning_(
            kind=WarningKind.DATA_RACE,
            message=f"Possible data race {verb} variable",
            tid=event.tid,
            step=event.step,
            stack=event.stack,
            addr=event.addr,
            details=details,
        )
        self.report.add(warning)

    # ------------------------------------------------------------------
    # Client requests
    # ------------------------------------------------------------------

    @handles(ClientRequest)
    def _on_client_request(self, event: ClientRequest, vm=None) -> None:
        if event.request == "hg_destruct":
            if self.config.honor_destruct:
                owner = (
                    self.segments.current(event.tid).seg_id
                    if self.config.segment_transfer
                    else event.tid
                )
                self.machine.make_exclusive(event.addr, event.size, owner)
        elif event.request == "hg_clean":
            self.machine.on_alloc(event.addr, event.size)  # forget state
        elif event.request == "benign_race":
            self._benign.add(event.addr, event.addr + event.size)
        # Unknown requests are ignored (forward compatibility, like
        # Valgrind's handling of unrecognised client requests).

    # ------------------------------------------------------------------

    def _held_for(self, tid: int) -> _HeldLocks:
        held = self._held.get(tid)
        if held is None:
            held = _HeldLocks(self._rwlock_bus)
            self._held[tid] = held
        return held

    @property
    def access_checks(self) -> int:
        """Number of memory accesses inspected (performance metric)."""
        return self._access_checks

    def locks_held(self, tid: int) -> frozenset[int]:
        """Current lock-set of ``tid`` (any mode) — for tests."""
        return self._held_for(tid).any_

    def predict_stats(self) -> dict[str, int]:
        """Counters behind the ``repro_predict_*`` telemetry families.

        The on-the-fly tiers predict nothing — all zeros — but still
        publish the families so the schema's required-family check and
        dashboards hold for every configuration, not just
        ``predictive`` (same always-emit convention as the other
        counters in :mod:`repro.telemetry.probe`).
        """
        return {
            "edges": 0,
            "cycles_checked": 0,
            "predictions": 0,
            "feasibility_rejections": 0,
        }

    def telemetry_summary(self) -> dict[str, float]:
        """Size/work gauges harvested by :mod:`repro.telemetry.probe`.

        Keys become the ``stat`` label of ``repro_detector_state``;
        values are end-of-run magnitudes (not rates).
        """
        summary = {
            "access_checks": self._access_checks,
            "tracked_words": self.machine.tracked_words,
            "segments": self.segments.segment_count,
            "threads_seen": len(self._held),
            "queue_tokens_inflight": len(self._queue_tokens),
        }
        for key, value in self.machine.shadow_stats().items():
            summary[f"shadow_{key}"] = value
        return summary


def _describe_state(state: WordState, lockset: frozenset[int] | None) -> str:
    """Figure-9 style "Previous state" line ("shared RO, no locks")."""
    names = {
        WordState.NEW: "new",
        WordState.EXCLUSIVE: "exclusive",
        WordState.SHARED: "shared RO",
        WordState.SHARED_MODIFIED: "shared modified",
        WordState.RACY: "racy",
    }
    text = names[state]
    if state in (WordState.SHARED, WordState.SHARED_MODIFIED):
        if not lockset:
            text += ", no locks"
        else:
            shown = sorted("BUS" if l == BUS_LOCK_ID else f"lock{l}" for l in lockset)
            text += ", lockset {" + ", ".join(shown) + "}"
    return text
