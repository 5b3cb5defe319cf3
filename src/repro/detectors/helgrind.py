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
from collections import deque
from dataclasses import dataclass, replace

from repro.detectors.dispatch import EventDispatcher, handles
from repro.detectors.lockset import (
    EMPTY_ID,
    LOCKSETS,
    LocksetMachine,
    LocksetOutcome,
    WordState,
    transition_cache_default,
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
    #: (docs/PERFORMANCE.md layer 6).  ``None`` = follow the process
    #: default (the ``--no-transition-cache`` escape hatch);
    #: ``True``/``False`` force it for this detector.  Reports are
    #: byte-identical either way — the flag exists to *prove* that.
    transition_cache: bool | None = None

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
    """Per-thread lock holdings with precomputed effective set variants.

    The canonical representation is four interned
    :data:`~repro.detectors.lockset.LOCKSETS` ids (``*_id``) that the
    hot path hands straight to the state machine — comparing and
    intersecting small ints instead of sets (Eraser's own optimisation).
    Lock acquire/release walks the ids forward through the table's
    memoized :meth:`~repro.detectors.lockset.LocksetTable.with_lock` /
    ``without_lock`` operations (steady state: a few dict hits, no set
    is ever built), so the per *memory access* path (hot) is
    allocation-free and the per *lock* path (rare) nearly so.
    """

    __slots__ = (
        "modes",
        "any_id",
        "write_id",
        "any_bus_id",
        "write_bus_id",
    )

    def __init__(self) -> None:
        self.modes: dict[int, LockMode] = {}
        self.any_id = EMPTY_ID
        self.write_id = EMPTY_ID
        bus_only = LOCKSETS.with_lock(EMPTY_ID, BUS_LOCK_ID)
        self.any_bus_id = bus_only
        self.write_bus_id = bus_only

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
        self.any_bus_id = table.with_lock(self.any_id, BUS_LOCK_ID)
        self.write_bus_id = table.with_lock(self.write_id, BUS_LOCK_ID)

    def release(self, lock_id: int) -> None:
        self.modes.pop(lock_id, None)
        table = LOCKSETS
        self.any_id = table.without_lock(self.any_id, lock_id)
        self.write_id = table.without_lock(self.write_id, lock_id)
        self.any_bus_id = table.with_lock(self.any_id, BUS_LOCK_ID)
        self.write_bus_id = table.with_lock(self.write_id, BUS_LOCK_ID)

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
        self.any_bus_id = LOCKSETS.with_lock(self.any_id, BUS_LOCK_ID)
        self.write_bus_id = LOCKSETS.with_lock(self.write_id, BUS_LOCK_ID)

    @property
    def any_(self) -> frozenset[int]:
        """Frozenset view of the any-mode set (off the hot path)."""
        return LOCKSETS.members(self.any_id)


class _BulkEvent:
    """Minimal :class:`MemoryAccess` stand-in materialised only for the
    rare racing row of a batched block (:meth:`HelgrindDetector.bulk_access`
    hands it to ``_report_race``, which reads exactly these fields)."""

    __slots__ = ("step", "tid", "stack", "addr", "is_write")


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
        cache = self.config.transition_cache
        if cache is None:
            cache = transition_cache_default()
        self.segments = SegmentGraph()
        self.machine = LocksetMachine(
            self.segments,
            use_states=self.config.use_states,
            segment_transfer=self.config.segment_transfer,
            once_per_word=self.config.once_per_word,
            transition_cache=cache,
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
        """Per-event access path: inject the bus lock
        (:meth:`_effective_ids`), then run the machine's Figure 1 rule."""
        benign = self._benign
        if benign._starts and event.addr in benign:
            return
        self._access_checks += 1
        tid = event.tid
        held = self._held.get(tid) or self._held_for(tid)
        is_write = event.kind is AccessKind.WRITE
        any_id, write_id = self._effective_ids(held, is_write, event.bus_locked)
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

        The loop binds every table to a local and handles the steady
        states inline: run-length elision of identical adjacent rows,
        EXCLUSIVE hits by the current owner, RACY words, and memoized
        SHARED/SHARED_MOD transitions.  Everything else (NEW, ownership
        transfer, memo misses) takes the machine's normal
        ``access_check``, so the state evolution is exactly the
        sequential one.  Within one block there are no lock, segment or
        client-request events (blocks are single-type), so per-thread
        held-set ids and owner tokens are loop constants, cached per
        ``tid`` (held-set ids indexed further by kind and bus).
        """
        machine = self.machine
        memo = machine._memo
        if memo is None or machine.transition_counts is not None or self._benign:
            return False
        pages = machine._pages
        seg_ids = machine._seg_ids
        segments = machine.segments
        segment_transfer = machine.segment_transfer
        access_check = machine.access_check
        report_race = self._report_race
        # tid -> [kind][bus] -> (any_id, write_id), filled lazily.
        ids_cache: dict[int, list[list[tuple[int, int] | None]]] = {}
        owner_cache: dict[int, int] = {}
        if base is None:
            ti, si, ai, ki, bi = 1, 2, 3, 4, 5
        else:
            ti, si, ai, ki, bi = 0, 1, 2, 3, 4
        # Run-length elision state: the previous row's key fields, armed
        # only while the previous outcome was "no race, no side effect".
        p_tid = p_addr = p_kind = p_bus = -1
        armed = False
        elided = 0
        hits = 0
        i = -1
        for row in s.iter_unpack(block):
            i += 1
            tid = row[ti]
            addr = row[ai]
            kind = row[ki]
            bus = row[bi]
            if armed and addr == p_addr and tid == p_tid \
                    and kind == p_kind and bus == p_bus:
                elided += 1
                continue
            pairs = ids_cache.get(tid)
            if pairs is None:
                pairs = ids_cache[tid] = [[None, None], [None, None]]
            # Indexed by the raw bytes: a kind or bus above 1 raises
            # IndexError, and the dispatch step names the corrupt row.
            pair = pairs[kind][bus]
            if pair is None:
                pair = self._effective_ids(self._held_for(tid), kind == 1, bus)
                pairs[kind][bus] = pair
            outcome = None
            page = pages.get(addr >> _PAGE_BITS)
            if page is None:
                # Pristine page: let the machine materialise it.
                outcome = access_check(addr, tid, kind == 1, pair[0], pair[1])
            else:
                slot = addr & _PAGE_MASK
                packed = page[slot]
                code = packed & _ST_MASK
                if code == _EXCLUSIVE:
                    owner = owner_cache.get(tid)
                    if owner is None:
                        if segment_transfer:
                            owner = seg_ids.get(tid)
                            if owner is None:
                                owner = segments.current(tid).seg_id
                        else:
                            owner = tid
                        owner_cache[tid] = owner
                    if (packed >> _OWNER_SHIFT) - 1 != owner:
                        outcome = access_check(
                            addr, tid, kind == 1, pair[0], pair[1]
                        )
                elif code == _SHARED_MOD or code == _SHARED:
                    held_id = pair[1] if kind else pair[0]
                    low = packed & _LOW
                    value = memo.get(
                        (((low << 1) | (kind == 1)) << _LS_BITS) | held_id
                    )
                    if value is not None:
                        hits += 1
                        new_low = value >> 1
                        if new_low != low:
                            page[slot] = (packed & _KEEP_OWNER) | new_low
                        if value & 1:
                            outcome = LocksetOutcome(
                                True,
                                _STATE_OF_CODE[code],
                                ((low >> _LS_SHIFT) & _LS_MASK) - 1,
                                ((new_low >> _LS_SHIFT) & _LS_MASK) - 1,
                            )
                    else:
                        outcome = access_check(
                            addr, tid, kind == 1, pair[0], pair[1]
                        )
                elif code != _RACY:  # NEW on a materialised page
                    outcome = access_check(
                        addr, tid, kind == 1, pair[0], pair[1]
                    )
            if outcome is None:
                p_tid = tid
                p_addr = addr
                p_kind = kind
                p_bus = bus
                armed = True
                continue
            armed = False
            ev = _BulkEvent()
            ev.step = row[0] if base is None else base + i
            ev.tid = tid
            ev.stack = stacks[row[si]]
            ev.addr = addr
            ev.is_write = kind == 1
            report_race(ev, outcome, vm)
        self._access_checks += i + 1
        self._elided += elided
        machine._memo_hits += hits
        return True

    def _effective_ids(
        self, held: _HeldLocks, is_write: bool, bus_locked: bool
    ) -> tuple[int, int]:
        """Inject the virtual bus lock: ``(any_id, write_id)`` for one access.

        The HWLC rule in one place.  A ``LOCK``-prefixed access holds the
        bus lock in write mode under both models.  Under the paper's
        RWLOCK correction every plain read also holds it in read mode;
        under the original MUTEX model plain accesses never hold it, and
        a plain write holds it under neither.
        """
        if bus_locked:
            return held.any_bus_id, held.write_bus_id
        if is_write or not self._rwlock_bus:
            return held.any_id, held.write_id
        return held.any_bus_id, held.write_id

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
            held = _HeldLocks()
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
