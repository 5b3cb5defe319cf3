"""The predictive analysis tier: cross-thread lock sets, predicted
races, and dynamic deadlock prediction.

The on-the-fly tiers (original / HWLC / HWLC+DR) only flag what the
*observed* interleaving exhibits: a word must actually reach an empty
candidate set, a lock graph must actually be traversed in both orders by
the run at hand.  Server code is full of latent bugs those runs never
reach — the acceptance pass is green, the unlucky schedule ships.  This
module adds the offline tier that predicts them:

**Cross-thread critical sections.**  A critical section does not always
end at the thread boundary: a thread that spawns a worker *while holding
a lock* extends that lock's protection into the worker until the holder
releases it, and a message posted to a queue (or a semaphore token)
carries the poster's held locks to the receiver the same way.  Each hold
is recorded once with a shared mutable *active cell*; forked threads and
queue/semaphore receivers inherit references to the holder's cells, so
"still protected" is a single flag read no matter how far the lock
context travelled.  (The idea follows the cross-thread critical-section
work of Sulzmann et al.; the fork/join case is the one the SIP proxy's
thread-per-request architecture exercises constantly.)

**Dynamic deadlock prediction.**  Lock-order edges are drawn over the
cross-thread lock sets, so an edge ``A → B`` also appears when a helper
thread acquires ``B`` while *inheriting* ``A`` from its spawner.  A
cycle in this multi-thread graph is a predicted deadlock if it is
*feasible*: at least two distinct threads participate, and no common
gate lock guards every edge (the same gate refinement as
:class:`~repro.detectors.deadlock.LockGraphDetector`, whose graph
helpers this module shares).  Infeasible cycles are counted as
``feasibility_rejections`` instead of reported.

**Predicted races.**  Every access is recorded (deduplicated per word by
``(thread, direction, cross-thread lock set, bus mode)``, keeping the
earliest) and pairs are examined at
:meth:`PredictiveDetector.finalize`: two accesses from different
threads, at least one write, *no common guard*, and concurrent segments
form a predicted race — the schedule that overlaps them exists even
though this run kept them apart.  "Guard" honours the live tier's
hardware bus-lock model: under the HWLC rw-lock semantics a
``LOCK``-prefixed access holds the bus in write mode and a plain read
holds it in read mode, so an atomic RMW paired with a plain read is
bus-guarded exactly as §4.2.2 prescribes (COW refcounts stay quiet),
while a plain write guards nothing.  Words the live detector already
reported racy are skipped (the live warning is strictly stronger).

Everything on-the-fly is inherited unchanged from
:class:`~repro.detectors.helgrind.HelgrindDetector` configured as
``hwlc+dr``; the predictions land in the same :class:`Report` under the
``predicted-data-race`` / ``predicted-deadlock`` warning kinds when
:meth:`finalize` runs (the CLI, harness, service and sharded replay all
call it at end-of-stream).
"""

from __future__ import annotations

from collections import deque

from repro.detectors.deadlock import canonical_cycle, cycle_gate, find_cycle
from repro.detectors.helgrind import HelgrindConfig, HelgrindDetector
from repro.detectors.report import Warning_, WarningKind
from repro.runtime.events import (
    AccessKind,
    ClientRequest,
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
)

__all__ = ["PredictiveDetector"]

#: Sentinels for the record-bounds fast path (``_forget_range``).
_NO_LO = 1 << 62
_NO_HI = -1


class PredictiveDetector(HelgrindDetector):
    """``hwlc+dr`` plus the offline prediction post-pass.

    Live behaviour (shadow states, segments, bus-lock model, destructor
    annotations, live warnings) is exactly the base detector's; the
    additional bookkeeping rides the same dispatch handlers.  Call
    :meth:`finalize` once the event stream is complete to emit the
    predicted findings; it is idempotent, and a detector that is never
    finalized simply reports the live findings only.

    ``predict_deadlocks`` exists for address-sharded replay
    (:mod:`repro.detectors.parallel`): deadlock prediction consumes only
    the replicated sync/lifecycle skeleton, so every shard would predict
    the identical cycles — the driver leaves it on for shard 0 only.
    """

    telemetry_name = "predictive"

    def __init__(
        self, config: HelgrindConfig | None = None, *, suppressions=None
    ) -> None:
        super().__init__(
            config or HelgrindConfig.hwlc_dr().with_(name="predictive"),
            suppressions=suppressions,
        )
        #: tid -> {lock_id: (step, stack, active_cell)} — own live holds.
        self._own: dict[int, dict[int, tuple]] = {}
        #: tid -> [(lock_id, step, stack, active_cell, src_tid)] —
        #: holds inherited across fork or queue/semaphore edges; the
        #: cell is *shared* with the original holder's entry, so the
        #: holder's release retires every inherited copy at once.
        self._inherited: dict[int, list[tuple]] = {}
        #: tid -> frozenset(lock ids) — memoized cross-thread lock set,
        #: cleared wholesale on every sync/lifecycle event (rare next to
        #: the access fire-hose it accelerates).
        self._ct_cache: dict[int, frozenset] = {}
        #: Multi-thread lock-order graph over cross-thread lock sets:
        #: lock -> {lock: [tid, stack, guards, step, src_tid|None]}
        #: (guards at index 2, the layout the shared
        #: :func:`~repro.detectors.deadlock.cycle_gate` helper expects).
        self._pedges: dict[int, dict[int, list]] = {}
        self._seen_cycles: set[tuple[int, ...]] = set()
        #: Predicted-deadlock warnings stashed until :meth:`finalize`.
        self._pending: list[Warning_] = []
        #: addr -> {(tid, is_write, lockset, bus): (step, stack, seg_id)}
        #: — earliest access per distinct (thread, direction,
        #: protection).  ``bus`` is the access's hardware bus-lock mode:
        #: 0 = not held, 1 = read mode (plain read under RWLOCK),
        #: 2 = write mode (``LOCK`` prefix).
        self._accesses: dict[int, dict[tuple, tuple]] = {}
        self._rec_lo = _NO_LO
        self._rec_hi = _NO_HI
        #: Words the live tier already reported — a predicted race there
        #: would be strictly weaker noise.
        self._live_racy: set[int] = set()
        #: Lock contexts attached to in-flight queue messages / sem
        #: tokens (mirrors the base class's happens-before tokens, but
        #: is maintained regardless of ``queue_hb``).
        self._queue_lockctx: dict[tuple[int, int], list] = {}
        self._sem_lockctx: dict[int, deque] = {}
        self.predict_deadlocks = True
        self._finalized = False
        self._stat_edges = 0
        self._stat_cycles_checked = 0
        self._stat_predictions = 0
        self._stat_feasibility_rejections = 0
        self._vm = None

    # ------------------------------------------------------------------
    # Cross-thread lock-set bookkeeping
    # ------------------------------------------------------------------

    def _active_entries(self, tid: int) -> list[tuple]:
        """Live cross-thread holds of ``tid``: ``(lock_id, step, stack,
        src_tid|None)`` — own holds first, then still-active inherited
        ones (dead inherited entries are pruned in place), deduplicated
        by lock id (an own hold shadows an inherited copy)."""
        out: list[tuple] = []
        seen: set[int] = set()
        own = self._own.get(tid)
        if own:
            for lock_id, (step, stack, _cell) in own.items():
                out.append((lock_id, step, stack, None))
                seen.add(lock_id)
        inherited = self._inherited.get(tid)
        if inherited:
            live = [entry for entry in inherited if entry[3][0]]
            if len(live) != len(inherited):
                self._inherited[tid] = live
            for lock_id, step, stack, _cell, src in live:
                if lock_id not in seen:
                    out.append((lock_id, step, stack, src))
                    seen.add(lock_id)
        return out

    def cross_thread_locks(self, tid: int) -> frozenset[int]:
        """The lock ids protecting ``tid`` right now, own + inherited."""
        cached = self._ct_cache.get(tid)
        if cached is None:
            cached = frozenset(e[0] for e in self._active_entries(tid))
            self._ct_cache[tid] = cached
        return cached

    def _context_snapshot(self, tid: int) -> list[tuple]:
        """The live holds of ``tid`` as inheritable entries
        ``(lock_id, step, stack, cell, src_tid)`` sharing the holder's
        active cells."""
        snapshot: list[tuple] = []
        seen: set[int] = set()
        own = self._own.get(tid)
        if own:
            for lock_id, (step, stack, cell) in own.items():
                snapshot.append((lock_id, step, stack, cell, tid))
                seen.add(lock_id)
        inherited = self._inherited.get(tid)
        if inherited:
            for entry in inherited:
                if entry[3][0] and entry[0] not in seen:
                    snapshot.append(entry)
                    seen.add(entry[0])
        return snapshot

    # ------------------------------------------------------------------
    # Event handlers (each defers to the base class first)
    # ------------------------------------------------------------------

    def handler_for(self, event_type):
        """Also subscribe queue/semaphore events when ``queue_hb`` is
        off: the *lock context* must ride the message either way.  The
        happens-before graph itself still honours the configuration —
        the overridden handlers only call the segment-edge bodies when
        ``queue_hb`` says so."""
        if event_type in (QueuePut, QueueGet, SemPost, SemWait):
            name = self._DISPATCH_NAMES.get(event_type)
            return getattr(self, name) if name is not None else None
        return super().handler_for(event_type)

    def _on_lock_acquire(self, event: LockAcquire, vm) -> None:
        super()._on_lock_acquire(event, vm)
        self._ct_cache.clear()
        tid, lock_id = event.tid, event.lock_id
        prior = self._active_entries(tid)
        own = self._own.setdefault(tid, {})
        old = own.get(lock_id)
        if old is not None:
            # Re-acquire: the previous hold's critical section is over
            # for anyone who inherited it.
            old[2][0] = False
        own[lock_id] = (event.step, event.stack, [True])
        held_ids = frozenset(e[0] for e in prior)
        if lock_id in held_ids:
            return  # recursive acquire draws no new edge
        for h, _h_step, _h_stack, src in prior:
            guards = held_ids - {h, lock_id}
            edges = self._pedges.setdefault(h, {})
            witness = edges.get(lock_id)
            if witness is None:
                self._stat_edges += 1
                edges[lock_id] = [tid, event.stack, guards, event.step, src]
                cycle = find_cycle(self._pedges, lock_id, h)
                if cycle is not None:
                    self._consider_predicted_cycle(cycle, event)
            else:
                # Only locks held on every traversal can gate the edge.
                witness[2] = witness[2] & guards

    def _on_lock_release(self, event: LockRelease, vm) -> None:
        super()._on_lock_release(event, vm)
        self._ct_cache.clear()
        own = self._own.get(event.tid)
        if own:
            entry = own.pop(event.lock_id, None)
            if entry is not None:
                entry[2][0] = False  # retires every inherited copy too

    def _on_thread_create(self, event: ThreadCreate, vm) -> None:
        super()._on_thread_create(event, vm)
        self._ct_cache.clear()
        snapshot = self._context_snapshot(event.tid)
        if snapshot:
            self._inherited.setdefault(event.child_tid, []).extend(snapshot)

    def _on_queue_put(self, event: QueuePut, vm) -> None:
        if self.config.queue_hb:
            super()._on_queue_put(event, vm)
        self._queue_lockctx[(event.queue_id, event.msg_id)] = (
            self._context_snapshot(event.tid)
        )

    def _on_queue_get(self, event: QueueGet, vm) -> None:
        if self.config.queue_hb:
            super()._on_queue_get(event, vm)
        self._ct_cache.clear()
        snapshot = self._queue_lockctx.pop(
            (event.queue_id, event.msg_id), None
        )
        if snapshot:
            self._inherited.setdefault(event.tid, []).extend(snapshot)

    def _on_sem_post(self, event: SemPost, vm) -> None:
        if self.config.queue_hb:
            super()._on_sem_post(event, vm)
        contexts = self._sem_lockctx.get(event.sem_id)
        if contexts is None:
            contexts = deque()
            self._sem_lockctx[event.sem_id] = contexts
        contexts.append(self._context_snapshot(event.tid))

    def _on_sem_wait(self, event: SemWait, vm) -> None:
        if self.config.queue_hb:
            super()._on_sem_wait(event, vm)
        self._ct_cache.clear()
        contexts = self._sem_lockctx.get(event.sem_id)
        if contexts:
            snapshot = contexts.popleft()
            if snapshot:
                self._inherited.setdefault(event.tid, []).extend(snapshot)

    def _on_alloc(self, event: MemAlloc, vm) -> None:
        super()._on_alloc(event, vm)
        self._forget_range(event.addr, event.size)

    def _on_free(self, event: MemFree, vm) -> None:
        super()._on_free(event, vm)
        self._forget_range(event.addr, event.size)

    def _on_client_request(self, event: ClientRequest, vm=None) -> None:
        super()._on_client_request(event, vm)
        if event.request == "hg_clean":
            self._forget_range(event.addr, event.size)

    def _forget_range(self, base: int, size: int) -> None:
        """Drop recorded accesses for a recycled address range (alloc /
        free / ``hg_clean``), mirroring the shadow machine's forget."""
        if not self._accesses:
            return
        lo, hi = base, base + size
        if hi <= self._rec_lo or lo > self._rec_hi:
            return
        if size <= 4096:
            for addr in range(lo, hi):
                self._accesses.pop(addr, None)
        else:
            for addr in [a for a in self._accesses if lo <= a < hi]:
                del self._accesses[addr]

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------

    def _on_access(self, event: MemoryAccess, vm) -> None:
        """Base hot path plus the prediction record (one dict probe per
        access in the steady state: the dedup key usually exists)."""
        super()._on_access(event, vm)
        addr = event.addr
        benign = self._benign
        if benign._starts and addr in benign:
            return
        if self._vm is None:
            self._vm = vm
        tid = event.tid
        lockset = self._ct_cache.get(tid)
        if lockset is None:
            lockset = frozenset(e[0] for e in self._active_entries(tid))
            self._ct_cache[tid] = lockset
        is_write = event.kind is AccessKind.WRITE
        if event.bus_locked:
            bus = 2  # LOCK prefix: bus held in write mode
        elif self._rwlock_bus and not is_write:
            bus = 1  # HWLC: every plain read holds the bus in read mode
        else:
            bus = 0  # plain write (or MUTEX model plain access)
        key = (tid, is_write, lockset, bus)
        records = self._accesses.get(addr)
        if records is None:
            records = {}
            self._accesses[addr] = records
            if addr < self._rec_lo:
                self._rec_lo = addr
            if addr > self._rec_hi:
                self._rec_hi = addr
        if key not in records:
            records[key] = (
                event.step,
                event.stack,
                self.segments.current(tid).seg_id,
            )

    def _report_race(self, event, outcome, vm) -> None:
        self._live_racy.add(event.addr)
        super()._report_race(event, outcome, vm)

    # ------------------------------------------------------------------
    # Deadlock prediction
    # ------------------------------------------------------------------

    def _consider_predicted_cycle(self, cycle: list[int], event) -> None:
        canon = canonical_cycle(cycle)
        if canon in self._seen_cycles:
            return
        self._seen_cycles.add(canon)
        self._stat_cycles_checked += 1
        ring = canon + (canon[0],)
        witnesses = [
            self._pedges.get(prior, {}).get(then)
            for prior, then in zip(ring, ring[1:])
        ]
        if any(w is None for w in witnesses):
            return  # unwitnessed edge: cannot substantiate a prediction
        # Feasibility: a single thread cannot deadlock with itself, and
        # a gate lock held across every edge serialises the paths.
        if len({w[0] for w in witnesses}) < 2:
            self._stat_feasibility_rejections += 1
            return
        if cycle_gate(self._pedges, canon) is not None:
            self._stat_feasibility_rejections += 1
            return
        names = " -> ".join(f"lock{l}" for l in ring)
        details = {
            "Cycle": names,
            "Note": "predicted from cross-thread lock sets: two threads "
            "can reach these acquisitions with no common gate lock, so "
            "an unlucky schedule deadlocks even though this run did not",
        }
        for (prior, then), witness in zip(zip(ring, ring[1:]), witnesses):
            tid, stack, _guards, step, src = witness
            where = str(stack[0]) if stack else "<no symbols>"
            line = f"thread {tid} at {where} (step {step})"
            if src is not None:
                line += f", lock{prior} inherited from thread {src}"
            details[f"Edge lock{prior} -> lock{then}"] = line
        self._pending.append(
            Warning_(
                kind=WarningKind.PREDICTED_DEADLOCK,
                message=f"Predicted deadlock: lock cycle {names}",
                tid=event.tid,
                step=event.step,
                stack=event.stack,
                addr=None,
                details=details,
            )
        )

    # ------------------------------------------------------------------
    # Race prediction (the finalize post-pass)
    # ------------------------------------------------------------------

    def _render_lockset(self, lockset: frozenset[int]) -> str:
        if not lockset:
            return "no locks"
        return "{" + ", ".join(sorted(f"lock{l}" for l in lockset)) + "}"

    def _race_warning(self, addr: int, earlier: tuple, later: tuple) -> Warning_:
        e_step, e_stack, _e_seg, e_tid, e_write, e_ls, _e_bus = earlier
        l_step, l_stack, _l_seg, l_tid, l_write, l_ls, _l_bus = later
        verb = "writing" if l_write else "reading"
        where_e = str(e_stack[0]) if e_stack else "<no symbols>"
        details = {
            "Conflicts with": (
                f"{'write' if e_write else 'read'} by thread {e_tid} "
                f"at {where_e} (step {e_step})"
            ),
            "Lock sets": (
                f"earlier {self._render_lockset(e_ls)}, "
                f"later {self._render_lockset(l_ls)} (disjoint)"
            ),
            "Note": "predicted: the accesses are unordered and no common "
            "lock protects both, so a different schedule overlaps them",
        }
        if self._vm is not None:
            block = self._vm.memory.find_block(addr)
            if block is not None:
                details["Address"] = block.describe(addr)
        return Warning_(
            kind=WarningKind.PREDICTED_RACE,
            message=f"Predicted data race {verb} variable",
            tid=l_tid,
            step=l_step,
            stack=l_stack,
            addr=addr,
            details=details,
        )

    def _drop_init_phase(self, addr: int, items: list[tuple]) -> list[tuple]:
        """Exempt the allocating thread's *init phase*: its accesses
        before any other thread ever touched the word.

        The C++ constructor idiom — allocate, fill in the fields, then
        publish the pointer under a lock — is ordered by the publishing
        hand-off, but that release/acquire edge is not in the segment
        graph (segments only carry fork/join and queue/semaphore edges),
        so without this exemption every constructed-then-shared object
        would surface as a predicted race.  The exemption mirrors what
        the live tier's EXCLUSIVE warm-up forgives, but keyed to the
        *allocating* thread rather than the first accessor — which is
        exactly why a warm-up write from a thread that did not allocate
        the word (T10's latent fault) is still predicted.

        Known blind spot (documented in docs/PREDICTIVE.md): a record is
        the *earliest* access of its dedup key, so an allocator access
        that first occurred during init and recurred identically after
        sharing is dropped wholly.
        """
        vm = self._vm
        if vm is None:
            return items
        block = vm.memory.find_block(addr)
        if block is None:
            return items
        alloc_tid = block.alloc_tid
        foreign = [it for it in items if it[3] != alloc_tid]
        if not foreign:
            return items
        first_foreign = foreign[0][0]  # items are step-sorted
        return [
            it
            for it in items
            if it[3] != alloc_tid or it[0] > first_foreign
        ]

    def _predict_races(self) -> list[Warning_]:
        warnings: list[Warning_] = []
        segments = self.segments
        for addr in sorted(self._accesses):
            if addr in self._live_racy:
                continue
            records = self._accesses[addr]
            if len(records) < 2:
                continue
            # Flatten to (step, stack, seg, tid, is_write, lockset, bus),
            # earliest first, so the reported pair is deterministic.
            items = sorted(
                (step, stack, seg, tid, is_write, lockset, bus)
                for (tid, is_write, lockset, bus), (step, stack, seg)
                in records.items()
            )
            items = self._drop_init_phase(addr, items)
            found = None
            for i, a in enumerate(items):
                for b in items[i + 1:]:
                    if a[3] == b[3]:
                        continue  # same thread
                    if not (a[4] or b[4]):
                        continue  # read/read pairs cannot race
                    if a[5] & b[5]:
                        continue  # a common mutex protects both sides
                    if a[6] and b[6] and (a[6] == 2 or b[6] == 2):
                        # Both hold the virtual bus lock, at least one
                        # in write mode: the hardware guards the pair
                        # (the HWLC refcount pattern).
                        continue
                    if segments.ordered(a[2], b[2]):
                        continue  # the graph orders them in every run
                    found = (a, b)
                    break
                if found:
                    break
            if found:
                warnings.append(self._race_warning(addr, *found))
        return warnings

    # ------------------------------------------------------------------
    # The offline post-pass
    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """Emit the predicted findings into :attr:`report` (idempotent).

        Ordering is deterministic — ``(step, kind, message)`` — and
        matches what sharded replay's merge reconstructs from per-shard
        finalize passes, keeping sequential and sharded reports
        byte-identical.
        """
        if self._finalized:
            return
        self._finalized = True
        predicted = list(self._pending) if self.predict_deadlocks else []
        predicted.extend(self._predict_races())
        predicted.sort(key=lambda w: (w.step, w.kind, w.message))
        self._stat_predictions = len(predicted)
        for warning in predicted:
            self.report.add(warning)

    def predict_stats(self) -> dict[str, int]:
        return {
            "edges": self._stat_edges,
            "cycles_checked": self._stat_cycles_checked,
            "predictions": self._stat_predictions,
            "feasibility_rejections": self._stat_feasibility_rejections,
        }
