"""The cooperative virtual machine and the guest programming API.

This module is the substitution for Valgrind described in ``DESIGN.md``:
a serialising VM that traps every guest-visible operation, shows it to
the registered detector hooks, and then lets a seeded scheduler decide
which guest thread runs next.

Execution model
---------------
* Guest programs are Python callables ``fn(api, *args)`` receiving a
  :class:`GuestAPI`.  All interaction with the simulated world — memory,
  locks, threads, client requests — goes through the API.
* Each guest thread runs on its own host ``threading.Thread`` (the
  *carrier*), but a baton protocol guarantees **exactly one carrier
  executes at any instant**.  Every carrier owns a pipe-backed
  :class:`~repro.runtime.thread.Baton` and parks in an ``os.read`` of
  it; handing control to another carrier is one ``os.write`` of a byte
  to its baton followed by a read of one's own.  Both calls drop the
  GIL before the system call, so the woken carrier runs at once instead
  of waiting for the waker to let the GIL go.  The host GIL therefore
  never influences interleaving; only the scheduler does.  This is the
  same arrangement as Valgrind's single-threaded core (paper §3.3: "the
  virtual machine in itself is single-threaded. Hence, adding more
  processors also will not help.").
* Every trap is a potential preemption point, so the scheduler can
  interleave guest threads at single-access granularity — finer than the
  real OS, which is what lets seed sweeps expose the §4.3 schedule-
  dependent false negatives on demand.
* A thread waiting on host state spins through :meth:`GuestAPI.spin`
  (the proxy's ``trylock`` watchdog, SIPp-style dialog pacing,
  ``sleep``).  When a pick lands on a spinning thread, the carrier that
  made the pick runs its failed tests and their traps itself, with the
  same trap count and scheduler decisions, and wakes the spinner's
  carrier only once its test passes or its tries run out: a pick that
  changes nothing in the guest costs no hand-off.

Races are *real* here: two guest threads doing ``load``/``store``
increments on the same word genuinely lose updates under the right
schedule, so tests can demonstrate the failure an undetected race causes,
not just the warning.

Detectors
---------
A detector is any object with ``handle(event, vm)``.  Detectors run
synchronously inside the trap (on-the-fly checking); recording the event
stream for later replay (post-mortem checking, §4.5) is just a detector
that appends to a list — see :mod:`repro.runtime.trace`.
"""

from __future__ import annotations

import threading
from operator import attrgetter
from typing import Callable

from repro._util.ids import IdAllocator
from repro.errors import DeadlockError, GuestFault, StepLimitExceeded, VMError
from repro.runtime.addrspace import AddressSpace
from repro.runtime.events import (
    AccessKind,
    BarrierWait,
    CallStack,
    ClientRequest,
    CondSignal,
    CondWait,
    Event,
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
    intern_guest_stack,
)
from repro.runtime.scheduler import RoundRobinScheduler, Scheduler
from repro.runtime.sync import (
    SimBarrier,
    SimCondVar,
    SimMutex,
    SimQueue,
    SimRWLock,
    SimSemaphore,
    _Waitable,
)
from repro.runtime.thread import Baton, SimThread, Spin, ThreadState

__all__ = ["VM", "GuestAPI", "VMStats"]

_BY_TID = attrgetter("tid")
_READ = AccessKind.READ
_WRITE = AccessKind.WRITE


class _GuestAbort(BaseException):
    """Internal: unwinds a carrier when the VM aborts the run.

    Derives from ``BaseException`` so ordinary ``except Exception`` in
    guest code cannot swallow it.  Guest code must never catch
    ``BaseException``.
    """


class VMStats:
    """Run statistics, cheap enough to always collect.

    ``events`` counts emitted events by type name; ``switches`` counts
    *actual* carrier hand-offs (the expensive part — the VM skips the
    hand-off when no other thread is runnable, and runs a picked
    spinning thread's failed tests on the carrier that picked it);
    ``traps`` counts scheduling opportunities, spun ones included.

    Counting happens on the per-event fast path, so the tally is keyed
    by event *class* internally (one dict operation, no ``__name__``
    string lookup per event); :attr:`events` materialises the
    name-keyed view on demand.
    """

    __slots__ = ("_by_type", "traps", "switches", "threads_created", "max_live_threads")

    def __init__(self) -> None:
        self._by_type: dict[type, int] = {}
        self.traps = 0
        self.switches = 0
        self.threads_created = 0
        self.max_live_threads = 0

    @property
    def events(self) -> dict[str, int]:
        """Event counts by type name (materialised view)."""
        return {cls.__name__: n for cls, n in self._by_type.items()}

    @property
    def total_events(self) -> int:
        return sum(self._by_type.values())


class VM:
    """The cooperative virtual machine.

    Parameters
    ----------
    scheduler:
        Interleaving policy; defaults to :class:`RoundRobinScheduler`.
    step_limit:
        Abort the run with :class:`StepLimitExceeded` after this many
        emitted events (a livelock backstop).
    detectors:
        Initial detector hooks; more can be added with
        :meth:`add_detector` before :meth:`run`.

    A ``VM`` instance performs exactly one :meth:`run`.
    """

    def __init__(
        self,
        *,
        scheduler: Scheduler | None = None,
        step_limit: int = 2_000_000,
        detectors: tuple = (),
        telemetry=None,
    ) -> None:
        self.scheduler = scheduler or RoundRobinScheduler()
        self.step_limit = step_limit
        self.memory = AddressSpace()
        self.stats = VMStats()
        #: Logical clock: one tick per emitted event.
        self.clock = 0
        self.threads: dict[int, SimThread] = {}

        self._hooks: list = list(detectors)
        #: Event-type → tuple of subscribed handler callables.  Built
        #: lazily per event type on first emission: detectors exposing
        #: the dispatch-table ABI (``handler_for(event_type)``, see
        #: :mod:`repro.detectors.dispatch`) subscribe only the handlers
        #: they registered for that type — detectors that don't care
        #: about an event type are skipped entirely, with zero per-event
        #: ``isinstance`` tests.  Plain detectors (anything with only a
        #: ``handle`` method, e.g. a trace recorder) subscribe to every
        #: type, preserving the original ABI.
        self._dispatch: dict[type, tuple] = {}
        #: Optional observability hook (:class:`repro.telemetry.probe
        #: .Telemetry`).  Consulted only at route-*build* time (once per
        #: event type per run), so a ``None`` here keeps the per-event
        #: emit path identical to the uninstrumented fast path — the
        #: telemetry subsystem's zero-overhead-when-disabled guarantee.
        self._telemetry = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )
        self._tid_ids = IdAllocator()
        self._lock_ids = IdAllocator()
        self._cond_ids = IdAllocator()
        self._sem_ids = IdAllocator()
        self._barrier_ids = IdAllocator()
        self._queue_ids = IdAllocator()

        #: The quiescence loop's baton, the same protocol as a carrier's
        #: ``SimThread.resume``: the loop parks in ``_control.wait()``
        #: and the carrier that hands it control releases it once.
        #: :meth:`run` opens it and closes it.
        self._control: Baton | None = None
        #: Guards the abort's teardown: carriers retiring while the VM
        #: aborts wait here until every carrier has retired.
        self._teardown = threading.Condition()
        self._torn_down = False
        #: Index of currently-runnable threads (tid -> thread).  The
        #: scheduler loop and the _switch fast path consult this instead
        #: of scanning every thread ever created — on a server workload
        #: most threads are finished workers, so the index keeps each
        #: trap O(live runnable) instead of O(all threads).
        self._runnable: dict[int, SimThread] = {}
        #: ``_runnable`` sorted by tid, as handed to the scheduler.  The
        #: set rarely changes between two traps, so the tuple is reused
        #: until ``_set_runnable``/``_set_not_runnable`` drop it.
        self._run_queue: tuple[SimThread, ...] | None = None
        #: Threads made and not yet finished or faulted, kept as a count
        #: so a spawn does not rescan every thread the run has made.
        self._live_threads = 0
        self._aborting = False
        self._started = False
        self._finished = False
        self._pending_error: BaseException | None = None

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    def add_detector(self, hook) -> None:
        """Register a detector (any object with ``handle(event, vm)``)."""
        if self._started:
            raise VMError("cannot add detectors after the run started")
        self._hooks.append(hook)
        self._dispatch.clear()  # routing tables are now stale

    def run(self, main: Callable, *args, main_name: str = "main"):
        """Execute ``main(api, *args)`` to completion and return its result.

        Returns when *every* guest thread has finished (threads not
        joined by the guest keep running after ``main`` returns, like a
        process whose initial thread called ``pthread_exit``).

        Raises
        ------
        GuestFault
            A guest thread performed an illegal operation.
        DeadlockError
            All live guest threads are blocked.
        StepLimitExceeded
            The event budget ran out.

        Whatever the error, including an interrupt, every carrier has
        stopped and closed its baton before it leaves ``run``.
        """
        if self._started:
            raise VMError("a VM instance can only run once")
        self._started = True
        self._control = Baton()
        try:
            main_thread = self._make_thread(main, args, name=main_name, parent=None)
            self._set_runnable(main_thread)
            self._start_carrier(main_thread)
            self._scheduler_loop()
        except BaseException:
            self._abort_carriers()
            raise
        finally:
            self._reap_carriers()
            self._control.close()
        self._finished = True
        if main_thread.error is not None:  # pragma: no cover - re-raise path
            raise main_thread.error
        return main_thread.result

    @property
    def finished(self) -> bool:
        return self._finished

    # ------------------------------------------------------------------
    # Event emission
    # ------------------------------------------------------------------

    def emit(self, event: Event) -> None:
        """Show ``event`` to every subscribed detector and advance the clock.

        Routing is per event *type*: the first event of each type builds
        the tuple of interested handlers once, and every later event of
        that type is a dict lookup plus direct calls — no ``isinstance``
        cascade runs anywhere on the hot path.
        """
        self.clock += 1
        etype = event.__class__
        # Count by event class: one dict op on the per-event path.
        by_type = self.stats._by_type
        by_type[etype] = by_type.get(etype, 0) + 1
        handlers = self._dispatch.get(etype)
        if handlers is None:
            handlers = self._build_routes(etype)
        for fn in handlers:
            fn(event, self)
        if self.clock >= self.step_limit:
            raise StepLimitExceeded(self.step_limit)

    def _build_routes(self, etype: type) -> tuple:
        """Resolve which hooks want ``etype`` (cached in ``_dispatch``).

        When a telemetry object is attached, every resolved handler is
        wrapped in its timing closure *here* — once per event type —
        so the per-event path never tests whether telemetry is on.
        """
        telemetry = self._telemetry
        handlers = []
        for hook in self._hooks:
            resolver = getattr(hook, "handler_for", None)
            if resolver is None:
                fn = hook.handle  # legacy ABI: sees everything
            else:
                fn = resolver(etype)
            if fn is not None:
                if telemetry is not None:
                    fn = telemetry.wrap_handler(hook, etype, fn)
                handlers.append(fn)
        routes = tuple(handlers)
        self._dispatch[etype] = routes
        return routes

    # ------------------------------------------------------------------
    # Scheduler loop (runs on the host thread that called run())
    # ------------------------------------------------------------------

    def _scheduler_loop(self) -> None:
        """Quiescence handler.

        Carriers hand control *directly* to each other (one pipe write
        to the chosen carrier's baton and one read of one's own per
        switch); this host-side loop only runs when the guest world goes
        quiet — at start, when the last runnable thread blocked or
        finished, and when a carrier reports an error — so it can
        dispatch, detect deadlock, or propagate the failure.  Whatever
        escapes it, :meth:`run` aborts the carriers before re-raising.
        """
        while True:
            if self._pending_error is not None:
                error = self._pending_error
                self._pending_error = None
                raise error
            if not self._runnable:
                blocked = [t for t in self.threads.values() if t.state is ThreadState.BLOCKED]
                if blocked:
                    raise DeadlockError([(t.tid, t.blocked_on) for t in blocked])
                return  # all threads finished
            chosen = self._pick(None)
            self.stats.switches += 1
            self._control.hand_to(chosen.resume)
            self._control.wait()

    def _choose(self, current: SimThread | None) -> SimThread:
        """Consult the scheduling policy over the runnable set."""
        run_queue = self._run_queue
        if run_queue is None:
            run_queue = tuple(sorted(self._runnable.values(), key=_BY_TID))
            self._run_queue = run_queue
        return self.scheduler.pick(run_queue, current)

    def _pick(self, current: SimThread | None) -> SimThread:
        """The thread that must run next: every decision point asks here.

        ``current`` is the thread whose carrier asks (``None`` for the
        quiescence loop and a finished thread).  A pick of another
        thread in :meth:`GuestAPI.spin` steps its spin on this carrier.
        """
        chosen = self._choose(current)
        if chosen is current or chosen.spin is None:
            return chosen
        return self._step_spins(chosen, current)

    def _step_spins(self, chosen: SimThread, current: SimThread | None) -> SimThread:
        """Run picked spins on this carrier until a pick lands on
        ``current`` or on a thread that must run, and return that thread.

        A failed test owes its spin's traps, and each is what
        ``_switch(chosen)`` would do short of the hand-off: count it,
        honour an abort, keep a lone runnable thread without asking the
        policy, else pick with ``chosen`` as the current thread.  A
        passing test, a spent last try or a test that raised decides the
        spin, and a decided spinner must run: its carrier returns the
        result (or raises the error) without testing again.
        """
        stats = self.stats
        runnable = self._runnable
        while chosen is not current:
            spin = chosen.spin
            if spin is None or spin.result is not None:
                break
            if spin.pending:
                spin.pending -= 1
                stats.traps += 1
                if self._aborting:
                    raise _GuestAbort()
                if len(runnable) > 1:  # a spinning thread is runnable
                    chosen = self._choose(chosen)
            elif spin.tries == 0:
                spin.result = False
            else:
                try:
                    passed = spin.ready()
                except Exception as exc:  # faults the spinner, on its carrier
                    spin.error = exc
                    spin.result = False
                    continue
                if passed:
                    spin.result = True
                    continue
                if spin.tries is not None:
                    spin.tries -= 1
                spin.pending = spin.traps
        return chosen

    def _spin(self, thread: SimThread, spin: Spin) -> bool:
        """:meth:`GuestAPI.spin` on the spinner's own carrier."""
        thread.spin = spin
        try:
            chosen = self._step_spins(thread, None)
            if chosen is not thread:
                self.stats.switches += 1
                thread.resume.hand_to(chosen.resume)
                self._wait_turn(thread)  # whoever wakes us decided the spin
        finally:
            thread.spin = None
        if spin.error is not None:
            raise spin.error
        return spin.result

    def _abort_carriers(self) -> None:
        """Stop the guest: every carrier unwinds via :class:`_GuestAbort`.

        After a guest error or a deadlock every carrier is parked, and
        one :meth:`Baton.wake` each starts them all unwinding.  After an
        interrupt one carrier may still be running, mid-hand-off or
        mid-``spawn``: it stops at its next trap, and a carrier it
        started meanwhile is woken on a later pass.  Until every carrier
        has retired, none closes its pipe, so neither these wakes nor
        that carrier's last hand-off can reach a closed one.
        """
        self._aborting = True
        woken = set()
        with self._teardown:
            while True:
                left = [t for t in list(self.threads.values()) if not t.retired]
                if not left:
                    break
                for thread in left:
                    if thread.tid not in woken:
                        woken.add(thread.tid)
                        thread.resume.wake()
                self._teardown.wait()
            self._torn_down = True
            self._teardown.notify_all()

    def _retire(self, thread: SimThread) -> None:
        """A carrier's last step: it writes to no baton again, so it
        closes its own (after the teardown, while the VM aborts)."""
        # Set before reading _aborting; the abort sets that before reading this.
        thread.retired = True
        if self._aborting:
            with self._teardown:
                self._teardown.notify_all()
                self._teardown.wait_for(lambda: self._torn_down)
        thread.resume.close()

    def _reap_carriers(self) -> None:
        for thread in self.threads.values():
            carrier = thread.carrier
            if carrier is not None and carrier.is_alive():
                carrier.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Thread plumbing (called from carriers via GuestAPI)
    # ------------------------------------------------------------------

    def _make_thread(
        self, target: Callable, args: tuple, *, name: str | None, parent: int | None
    ) -> SimThread:
        tid = self._tid_ids.next()
        thread = SimThread(
            tid=tid,
            name=name or f"thread-{tid}",
            target=target,
            args=args,
            parent_tid=parent,
        )
        thread.resume = Baton()  # before the thread is known: a failure leaks nothing
        self.threads[tid] = thread
        self.stats.threads_created += 1
        self._live_threads += 1
        self.stats.max_live_threads = max(self.stats.max_live_threads, self._live_threads)
        return thread

    def _start_carrier(self, thread: SimThread) -> None:
        carrier = threading.Thread(
            target=self._carrier_main,
            args=(thread,),
            name=f"carrier-{thread.tid}-{thread.name}",
            daemon=True,
        )
        thread.carrier = carrier
        try:
            carrier.start()
        except RuntimeError:  # no carrier: nothing else would retire it
            thread.retired = True
            thread.resume.close()
            raise

    def _carrier_main(self, thread: SimThread) -> None:
        api = GuestAPI(self, thread)
        try:
            self._wait_turn(thread)  # block until first scheduled
            thread.result = thread.target(api, *thread.args)
            self._end_thread(thread, ThreadState.FINISHED)
            api._emit(ThreadFinish(self.clock, thread.tid, stack=thread.snapshot_stack()))
        except _GuestAbort:
            pass  # VM is tearing down; exit silently, do not touch control
        except BaseException as exc:  # noqa: BLE001 - any guest failure halts the VM
            self._end_thread(thread, ThreadState.FAULTED)
            thread.error = exc
            if not self._aborting:  # else raised while unwinding: the loop is tearing down
                self._pending_error = exc
                self._wake_joiners(thread)
                # The loop aborts every carrier and re-raises.
                thread.resume.hand_to(self._control)
        else:
            self._wake_joiners(thread)
            try:
                self._hand_on(thread, None)
            except _GuestAbort:
                pass  # the run aborted while this carrier stepped a spin
        finally:
            self._retire(thread)

    def _wake_joiners(self, thread: SimThread) -> None:
        for waiter in thread.join_waiters:
            self._wake(waiter)
        thread.join_waiters.clear()

    def _wait_turn(self, thread: SimThread) -> None:
        """Block this carrier until the scheduler picks ``thread``."""
        thread.resume.wait()
        if self._aborting:
            raise _GuestAbort()

    def _set_runnable(self, thread: SimThread) -> None:
        thread.state = ThreadState.RUNNABLE
        self._runnable[thread.tid] = thread
        self._run_queue = None

    def _set_not_runnable(self, thread: SimThread, state: ThreadState) -> None:
        thread.state = state
        self._runnable.pop(thread.tid, None)
        self._run_queue = None

    def _end_thread(self, thread: SimThread, state: ThreadState) -> None:
        """The start routine returned (FINISHED) or raised (FAULTED); a
        thread whose ThreadFinish emission raised goes from the one to
        the other and is counted out once."""
        if thread.alive:
            self._live_threads -= 1
        self._set_not_runnable(thread, state)

    def _switch(self, thread: SimThread) -> None:
        """Scheduling decision point for a still-runnable thread."""
        self.stats.traps += 1
        if self._aborting:
            raise _GuestAbort()  # the run is over: unwind, do not run on
        # Fast path: if no other thread could run, a hand-off would be a
        # no-op round trip through the host scheduler — skip it.  Blocked
        # threads only become runnable through actions of *running*
        # threads, so skipping cannot starve anyone.
        runnable = self._runnable
        if len(runnable) == 1 and thread.tid in runnable:
            return
        chosen = self._pick(thread)
        if chosen is thread:
            return  # the policy kept us running: no host switch at all
        self.stats.switches += 1
        thread.resume.hand_to(chosen.resume)
        self._wait_turn(thread)

    def _park_and_dispatch(self, thread: SimThread) -> None:
        """``thread`` just became non-runnable: hand control onward."""
        if self._aborting:
            raise _GuestAbort()  # the run is over: unwind, hand control to no one
        self._hand_on(thread, thread)
        self._wait_turn(thread)

    def _hand_on(self, thread: SimThread, current: SimThread | None) -> None:
        """Hand control from ``thread``'s carrier directly to the next
        thread that must run, or to the quiescence loop (which detects
        deadlock or completion) if the guest world just went quiet."""
        if self._runnable:
            chosen = self._pick(current)
            self.stats.switches += 1
            thread.resume.hand_to(chosen.resume)
        else:
            thread.resume.hand_to(self._control)

    def _block(self, thread: SimThread, reason: str, waitable: _Waitable) -> None:
        """Park ``thread`` on ``waitable`` until another thread wakes it."""
        self._set_not_runnable(thread, ThreadState.BLOCKED)
        thread.blocked_on = reason
        waitable.add_waiter(thread)
        self.stats.traps += 1
        self._park_and_dispatch(thread)

    def _wake(self, thread: SimThread) -> None:
        """Mark a blocked thread runnable (the scheduler resumes it later)."""
        if thread.state is ThreadState.BLOCKED:
            self._set_runnable(thread)
            thread.blocked_on = ""

    def _wake_all(self, waitable: _Waitable) -> None:
        """Wake every waiter on ``waitable`` (Mesa semantics: they re-check)."""
        waiters, waitable.waiters = waitable.waiters, []
        for waiter in waiters:
            self._wake(waiter)


class GuestAPI:
    """The system-call surface of the simulated world, bound to one thread.

    Every method that touches shared state emits events and offers the
    scheduler a preemption point, so any two API calls by different
    threads may interleave — except the ``atomic_*`` operations, whose
    read and write are emitted back-to-back with no scheduling point
    between them (that is what the bus lock buys the real hardware).
    """

    __slots__ = ("vm", "thread", "_stack_cache")

    def __init__(self, vm: VM, thread: SimThread) -> None:
        self.vm = vm
        self.thread = thread
        self._stack_cache: CallStack | None = ()

    # ------------------------------------------------------------------
    # Identity & call stack
    # ------------------------------------------------------------------

    @property
    def tid(self) -> int:
        return self.thread.tid

    def frame(self, function: str, file: str = "<guest>", line: int = 0) -> "_FrameCtx":
        """Context manager pushing a guest stack frame.

        Warnings report the frame stack active at the access, so guest
        code wraps logical functions in ``with api.frame(...):`` blocks —
        the analogue of the debug symbols the paper says Helgrind needs
        "for convenience" (§3.2).
        """
        return _FrameCtx(self, function, file, line)

    def at(self, line: int) -> None:
        """Set the innermost frame's current line (a cheap site marker)."""
        frames = self.thread.frames
        if frames:
            frames[-1][2] = line
            self._stack_cache = None

    def _snap(self) -> CallStack:
        """Interned snapshot of the current guest call stack.

        Identical stacks — the overwhelmingly common case on a hot loop —
        are one canonical object (Valgrind's ExeContext interning), so
        report-location deduplication and trace comparison collapse to
        dictionary hits on a shared tuple instead of building and
        comparing fresh tuples per event.
        """
        cache = self._stack_cache
        if cache is None:
            cache = intern_guest_stack(self.thread.frames)
            self._stack_cache = cache
        return cache

    # ------------------------------------------------------------------
    # Internal emission helpers
    # ------------------------------------------------------------------

    def _emit(self, event: Event) -> None:
        self.thread.steps += 1
        self.vm.emit(event)

    def _emit_and_switch(self, event: Event) -> None:
        # ``_emit`` inlined: this runs once per guest operation.
        thread = self.thread
        thread.steps += 1
        vm = self.vm
        vm.emit(event)
        vm._switch(thread)

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------

    def malloc(self, size: int, tag: str = "") -> int:
        """Allocate ``size`` words; returns the base address."""
        vm = self.vm
        block = vm.memory.alloc(
            size, tag=tag, tid=self.tid, step=vm.clock, stack=self._snap()
        )
        self._emit_and_switch(
            MemAlloc(
                vm.clock,
                self.tid,
                stack=self._snap(),
                addr=block.base,
                size=size,
                block_id=block.block_id,
                tag=tag,
            )
        )
        return block.base

    def free(self, addr: int) -> None:
        """Release the block at ``addr`` (must be the allocation base)."""
        vm = self.vm
        block = vm.memory.free(addr, tid=self.tid, step=vm.clock, stack=self._snap())
        self._emit_and_switch(
            MemFree(
                vm.clock,
                self.tid,
                stack=self._snap(),
                addr=addr,
                size=block.size,
                block_id=block.block_id,
            )
        )

    def load(self, addr: int, *, locked: bool = False) -> object:
        """Load one word.  ``locked`` marks a ``LOCK``-prefixed read."""
        vm = self.vm
        tid = self.thread.tid
        value, block = vm.memory.load_block(addr, tid)
        self._emit_and_switch(
            MemoryAccess(
                vm.clock, tid, addr, _READ, locked, block.block_id,
                stack=self._snap(),
            )
        )
        return value

    def store(self, addr: int, value: object, *, locked: bool = False) -> None:
        """Store one word.  ``locked`` marks a ``LOCK``-prefixed write."""
        vm = self.vm
        tid = self.thread.tid
        block = vm.memory.store_block(addr, value, tid)
        self._emit_and_switch(
            MemoryAccess(
                vm.clock, tid, addr, _WRITE, locked, block.block_id,
                stack=self._snap(),
            )
        )

    def atomic_add(self, addr: int, delta: int) -> int:
        """Bus-locked fetch-and-add; returns the *old* value.

        Emits a locked read then a locked write with **no** scheduling
        point in between — the pair is indivisible, exactly like an x86
        ``lock add``.  This is the operation behind libstdc++'s string
        reference counter (paper Figure 8).
        """
        vm = self.vm
        old, block = vm.memory.load_block(addr, tid=self.tid)
        if not isinstance(old, int):
            raise GuestFault(
                f"atomic_add on non-integer word at {addr:#x} ({old!r})", tid=self.tid
            )
        block_id = block.block_id
        stack = self._snap()
        self._emit(
            MemoryAccess(
                vm.clock, self.tid, stack=stack, addr=addr,
                kind=_READ, bus_locked=True, block_id=block_id,
            )
        )
        vm.memory.store(addr, old + delta, tid=self.tid)
        self._emit_and_switch(
            MemoryAccess(
                vm.clock, self.tid, stack=stack, addr=addr,
                kind=_WRITE, bus_locked=True, block_id=block_id,
            )
        )
        return old

    def atomic_cas(self, addr: int, expected: object, new: object) -> bool:
        """Bus-locked compare-and-swap; returns True on success.

        A failed CAS emits only the locked read (no write happened).
        """
        vm = self.vm
        current, block = vm.memory.load_block(addr, tid=self.tid)
        block_id = block.block_id
        stack = self._snap()
        self._emit(
            MemoryAccess(
                vm.clock, self.tid, stack=stack, addr=addr,
                kind=_READ, bus_locked=True, block_id=block_id,
            )
        )
        if current != expected:
            self.vm._switch(self.thread)
            return False
        vm.memory.store(addr, new, tid=self.tid)
        self._emit_and_switch(
            MemoryAccess(
                vm.clock, self.tid, stack=stack, addr=addr,
                kind=_WRITE, bus_locked=True, block_id=block_id,
            )
        )
        return True

    # ------------------------------------------------------------------
    # Object factories
    # ------------------------------------------------------------------

    def mutex(self, name: str = "") -> SimMutex:
        return SimMutex(self.vm._lock_ids.next(), name)

    def rwlock(self, name: str = "") -> SimRWLock:
        return SimRWLock(self.vm._lock_ids.next(), name)

    def condvar(self, name: str = "") -> SimCondVar:
        return SimCondVar(self.vm._cond_ids.next(), name)

    def semaphore(self, initial: int = 0, name: str = "") -> SimSemaphore:
        return SimSemaphore(self.vm._sem_ids.next(), initial, name)

    def barrier(self, parties: int, name: str = "") -> SimBarrier:
        return SimBarrier(self.vm._barrier_ids.next(), parties, name)

    def queue(self, maxsize: int | None = None, name: str = "") -> SimQueue:
        return SimQueue(self.vm._queue_ids.next(), maxsize, name)

    # ------------------------------------------------------------------
    # Mutex
    # ------------------------------------------------------------------

    def lock(self, mutex: SimMutex) -> None:
        """``pthread_mutex_lock``; blocks while another thread holds it."""
        thread = self.thread
        if mutex.owner_tid == thread.tid:
            raise GuestFault(f"relock of non-recursive mutex {mutex.name}", tid=self.tid)
        contended = False
        while mutex.held:
            contended = True
            self.vm._block(thread, f"mutex {mutex.name}", mutex)
        mutex.owner_tid = thread.tid
        mutex.acquisitions += 1
        self._emit_and_switch(
            LockAcquire(
                self.vm.clock, self.tid, stack=self._snap(),
                lock_id=mutex.lock_id, mode=LockMode.EXCLUSIVE, contended=contended,
            )
        )

    def trylock(self, mutex: SimMutex) -> bool:
        """``pthread_mutex_trylock``; never blocks."""
        if mutex.held:
            self.vm._switch(self.thread)
            return False
        mutex.owner_tid = self.tid
        mutex.acquisitions += 1
        self._emit_and_switch(
            LockAcquire(
                self.vm.clock, self.tid, stack=self._snap(),
                lock_id=mutex.lock_id, mode=LockMode.EXCLUSIVE,
            )
        )
        return True

    def unlock(self, mutex: SimMutex) -> None:
        """``pthread_mutex_unlock``; faults if this thread is not the owner."""
        if mutex.owner_tid != self.tid:
            holder = f"t{mutex.owner_tid}" if mutex.held else "nobody"
            raise GuestFault(
                f"unlock of mutex {mutex.name} held by {holder}", tid=self.tid
            )
        mutex.owner_tid = None
        self.vm._wake_all(mutex)
        self._emit_and_switch(
            LockRelease(
                self.vm.clock, self.tid, stack=self._snap(),
                lock_id=mutex.lock_id, mode=LockMode.EXCLUSIVE,
            )
        )

    # ------------------------------------------------------------------
    # Read-write lock
    # ------------------------------------------------------------------

    def rdlock(self, rw: SimRWLock) -> None:
        """``pthread_rwlock_rdlock``."""
        thread = self.thread
        if rw.mode_held_by(self.tid) is not None:
            raise GuestFault(f"re-acquire of rwlock {rw.name}", tid=self.tid)
        contended = False
        while not rw.can_read():
            contended = True
            self.vm._block(thread, f"rwlock {rw.name} (read)", rw)
        rw.reader_tids.add(self.tid)
        self._emit_and_switch(
            LockAcquire(
                self.vm.clock, self.tid, stack=self._snap(),
                lock_id=rw.lock_id, mode=LockMode.READ, contended=contended,
            )
        )

    def wrlock(self, rw: SimRWLock) -> None:
        """``pthread_rwlock_wrlock``."""
        thread = self.thread
        if rw.mode_held_by(self.tid) is not None:
            raise GuestFault(f"re-acquire of rwlock {rw.name}", tid=self.tid)
        contended = False
        while not rw.can_write():
            contended = True
            self.vm._block(thread, f"rwlock {rw.name} (write)", rw)
        rw.writer_tid = self.tid
        self._emit_and_switch(
            LockAcquire(
                self.vm.clock, self.tid, stack=self._snap(),
                lock_id=rw.lock_id, mode=LockMode.WRITE, contended=contended,
            )
        )

    def rw_unlock(self, rw: SimRWLock) -> None:
        """``pthread_rwlock_unlock`` (whichever mode this thread holds)."""
        mode = rw.mode_held_by(self.tid)
        if mode is None:
            raise GuestFault(f"unlock of rwlock {rw.name} not held", tid=self.tid)
        if mode == "write":
            rw.writer_tid = None
            released = LockMode.WRITE
        else:
            rw.reader_tids.discard(self.tid)
            released = LockMode.READ
        self.vm._wake_all(rw)
        self._emit_and_switch(
            LockRelease(
                self.vm.clock, self.tid, stack=self._snap(),
                lock_id=rw.lock_id, mode=released,
            )
        )

    # ------------------------------------------------------------------
    # Condition variables
    # ------------------------------------------------------------------

    def cond_wait(self, cond: SimCondVar, mutex: SimMutex) -> None:
        """``pthread_cond_wait``: release, sleep until signalled, reacquire.

        The mutex release and reacquisition emit ordinary lock events —
        that is all the lock-set algorithm ever sees of a wait, which is
        why Figure 11's post/wait ordering is invisible to it.
        """
        thread = self.thread
        if mutex.owner_tid != self.tid:
            raise GuestFault(
                f"cond_wait on {cond.name} without holding {mutex.name}", tid=self.tid
            )
        self._emit(
            CondWait(
                self.vm.clock, self.tid, stack=self._snap(),
                cond_id=cond.cond_id, mutex_id=mutex.lock_id, phase="enter",
            )
        )
        # Atomically (w.r.t. guest interleaving) release the mutex and
        # register on the condition before any other thread can run.
        mutex.owner_tid = None
        self.vm._wake_all(mutex)
        self._emit(
            LockRelease(
                self.vm.clock, self.tid, stack=self._snap(),
                lock_id=mutex.lock_id, mode=LockMode.EXCLUSIVE,
            )
        )
        self.vm._block(thread, f"condvar {cond.name}", cond)
        cond.signalled.discard(self.tid)
        # Reacquire (contending like any other locker).
        contended = False
        while mutex.held:
            contended = True
            self.vm._block(thread, f"mutex {mutex.name}", mutex)
        mutex.owner_tid = self.tid
        mutex.acquisitions += 1
        self._emit(
            LockAcquire(
                self.vm.clock, self.tid, stack=self._snap(),
                lock_id=mutex.lock_id, mode=LockMode.EXCLUSIVE, contended=contended,
            )
        )
        self._emit_and_switch(
            CondWait(
                self.vm.clock, self.tid, stack=self._snap(),
                cond_id=cond.cond_id, mutex_id=mutex.lock_id, phase="leave",
            )
        )

    def cond_signal(self, cond: SimCondVar) -> None:
        """``pthread_cond_signal``: wake one waiter (lost if none)."""
        self._signal(cond, broadcast=False)

    def cond_broadcast(self, cond: SimCondVar) -> None:
        """``pthread_cond_broadcast``: wake every waiter."""
        self._signal(cond, broadcast=True)

    def _signal(self, cond: SimCondVar, *, broadcast: bool) -> None:
        woken = cond.waiters if broadcast else cond.waiters[:1]
        for waiter in list(woken):
            cond.remove_waiter(waiter)
            cond.signalled.add(waiter.tid)
            self.vm._wake(waiter)
        self._emit_and_switch(
            CondSignal(
                self.vm.clock, self.tid, stack=self._snap(),
                cond_id=cond.cond_id, broadcast=broadcast,
            )
        )

    # ------------------------------------------------------------------
    # Semaphores
    # ------------------------------------------------------------------

    def sem_post(self, sem: SimSemaphore) -> None:
        """``sem_post`` (V)."""
        sem.count += 1
        self.vm._wake_all(sem)
        self._emit_and_switch(
            SemPost(self.vm.clock, self.tid, stack=self._snap(), sem_id=sem.sem_id)
        )

    def sem_wait(self, sem: SimSemaphore) -> None:
        """``sem_wait`` (P); blocks while the count is zero."""
        thread = self.thread
        while sem.count == 0:
            self.vm._block(thread, f"semaphore {sem.name}", sem)
        sem.count -= 1
        self._emit_and_switch(
            SemWait(self.vm.clock, self.tid, stack=self._snap(), sem_id=sem.sem_id)
        )

    # ------------------------------------------------------------------
    # Barrier
    # ------------------------------------------------------------------

    def barrier_wait(self, barrier: SimBarrier) -> bool:
        """``pthread_barrier_wait``; True for the releasing arrival."""
        thread = self.thread
        barrier.arrived += 1
        generation = barrier.generation
        self._emit(
            BarrierWait(
                self.vm.clock, self.tid, stack=self._snap(),
                barrier_id=barrier.barrier_id, generation=generation,
                phase="arrive",
            )
        )
        releaser = barrier.arrived == barrier.parties
        if releaser:
            barrier.arrived = 0
            barrier.generation += 1
            self.vm._wake_all(barrier)
        else:
            while barrier.generation == generation:
                self.vm._block(thread, f"barrier {barrier.name}", barrier)
        self._emit_and_switch(
            BarrierWait(
                self.vm.clock, self.tid, stack=self._snap(),
                barrier_id=barrier.barrier_id, generation=generation,
                phase="leave",
            )
        )
        return releaser

    # ------------------------------------------------------------------
    # Message queue (the Figure-11 hand-off primitive)
    # ------------------------------------------------------------------

    def put(self, queue: SimQueue, payload: object) -> int:
        """Deposit ``payload``; blocks while a bounded queue is full.

        Returns the message id pairing this put with its eventual get.
        """
        thread = self.thread
        while queue.full:
            self.vm._block(thread, f"queue {queue.name} (full)", queue)
        msg_id = queue.push(payload)
        self.vm._wake_all(queue)
        self._emit_and_switch(
            QueuePut(
                self.vm.clock, self.tid, stack=self._snap(),
                queue_id=queue.queue_id, msg_id=msg_id,
            )
        )
        return msg_id

    def get(self, queue: SimQueue) -> object:
        """Remove and return the oldest message; blocks while empty."""
        thread = self.thread
        while queue.empty:
            self.vm._block(thread, f"queue {queue.name} (empty)", queue)
        msg_id, payload = queue.pop()
        self.vm._wake_all(queue)
        self._emit_and_switch(
            QueueGet(
                self.vm.clock, self.tid, stack=self._snap(),
                queue_id=queue.queue_id, msg_id=msg_id,
            )
        )
        return payload

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------

    def spawn(self, fn: Callable, *args, name: str | None = None) -> SimThread:
        """``pthread_create``: start ``fn(api, *args)`` on a new guest thread."""
        vm = self.vm
        child = vm._make_thread(fn, args, name=name, parent=self.tid)
        vm._set_runnable(child)
        vm._start_carrier(child)
        self._emit_and_switch(
            ThreadCreate(
                vm.clock, self.tid, stack=self._snap(), child_tid=child.tid
            )
        )
        return child

    def join(self, target: SimThread) -> object:
        """``pthread_join``: wait for ``target`` and return its result."""
        thread = self.thread
        if target is thread:
            raise GuestFault("thread join on itself", tid=self.tid)
        while target.alive:
            self.vm._set_not_runnable(thread, ThreadState.BLOCKED)
            thread.blocked_on = f"join t{target.tid}"
            target.join_waiters.append(thread)
            self.vm.stats.traps += 1
            self.vm._park_and_dispatch(thread)
        self._emit_and_switch(
            ThreadJoin(
                self.vm.clock, self.tid, stack=self._snap(), joined_tid=target.tid
            )
        )
        return target.result

    def yield_(self) -> None:
        """Voluntary preemption point (``sched_yield``)."""
        self.vm._switch(self.thread)

    def sleep(self, ticks: int) -> None:
        """Yield ``ticks`` times (there is no wall clock in the guest)."""
        self.spin(lambda: False, tries=ticks)

    def spin(
        self, ready: Callable[[], object], *, tries: int | None = None, traps: int = 1
    ) -> bool:
        """Spin until ``ready()`` is true; ``False`` once ``tries`` run out.

        The same traps and scheduling decisions as the loop ::

            for _ in range(tries):          # forever if tries is None
                if ready():
                    return True
                for _ in range(traps):
                    api.yield_()
            return False

        but a pick of a spinning thread runs its failed tests and their
        traps on whichever carrier made the pick, and wakes this
        thread's carrier only when the spin is decided.  So ``ready``
        must read host state only and call no ``GuestAPI`` method: it
        may run on another thread's carrier.  An exception it raises
        there still faults this thread, raised from ``spin``.
        """
        return self.vm._spin(self.thread, Spin(ready, tries, traps))

    # ------------------------------------------------------------------
    # Client requests (Valgrind's guest → tool channel)
    # ------------------------------------------------------------------

    def hg_destruct(self, addr: int, size: int) -> None:
        """``VALGRIND_HG_DESTRUCT(addr, size)`` — Figure 4's annotation.

        Tells race detectors the range is about to be destroyed and is
        now exclusively owned by the calling thread.  A no-op when no
        detector is registered (cheap enough for production builds).
        """
        self._client_request("hg_destruct", addr, size)

    def hg_clean(self, addr: int, size: int) -> None:
        """Forget all detector state for the range (allocator recycling)."""
        self._client_request("hg_clean", addr, size)

    def benign_race(self, addr: int, size: int) -> None:
        """Mark the range as intentionally racy; suppress reports on it."""
        self._client_request("benign_race", addr, size)

    def atomic_region(self, name: str = "atomic") -> "_AtomicRegionCtx":
        """Declare that the enclosed block is intended to be atomic.

        The Atomizer-style checker (:mod:`repro.detectors.atomizer`)
        verifies the intent via Lipton reduction; every other detector
        ignores the markers.  No-op without detectors, like all client
        requests.
        """
        return _AtomicRegionCtx(self, name)

    def _client_request(self, request: str, addr: int, size: int) -> None:
        if size <= 0:
            raise GuestFault(
                f"client request {request} with non-positive size {size}", tid=self.tid
            )
        self._emit_and_switch(
            ClientRequest(
                self.vm.clock, self.tid, stack=self._snap(),
                request=request, addr=addr, size=size,
            )
        )


class _AtomicRegionCtx:
    """Context manager for :meth:`GuestAPI.atomic_region`."""

    __slots__ = ("_api", "_frame")

    def __init__(self, api: GuestAPI, name: str) -> None:
        self._api = api
        self._frame = _FrameCtx(api, f"atomic:{name}", "<atomic-region>", 0)

    def __enter__(self) -> None:
        self._frame.__enter__()
        self._api._client_request("atomic_begin", 0, 1)

    def __exit__(self, *exc) -> None:
        self._api._client_request("atomic_end", 0, 1)
        self._frame.__exit__(*exc)
        return None


class _FrameCtx:
    """Context manager for :meth:`GuestAPI.frame`."""

    __slots__ = ("_api", "_entry")

    def __init__(self, api: GuestAPI, function: str, file: str, line: int) -> None:
        self._api = api
        self._entry = [function, file, line]

    def __enter__(self) -> None:
        self._api.thread.frames.append(self._entry)
        self._api._stack_cache = None

    def __exit__(self, *exc) -> None:
        popped = self._api.thread.frames.pop()
        assert popped is self._entry, "unbalanced guest frame push/pop"
        self._api._stack_cache = None
        return None
