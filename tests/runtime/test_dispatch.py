"""The dispatch-table event bus (fast-path layer 3).

``VM.emit`` routes each event by exact type through a per-type handler
tuple built lazily from every hook's ``handler_for``.  These tests pin
the ABI down:

* ``EventDispatcher`` subclasses register methods with ``@handles`` and
  expose them through ``handler_for`` / the legacy ``handle``;
* the VM never calls a detector for an event type it did not subscribe
  to, while legacy hooks (only ``handle``) still see everything;
* ``combine_handlers`` composes optional handlers for composite
  detectors (hybrid, racetrack, atomizer);
* ExeContext-style interning gives every emitted event a canonical
  (identity-shared) call stack.
"""

from __future__ import annotations

from repro.detectors import LockGraphDetector
from repro.detectors.dispatch import EventDispatcher, combine_handlers, handles
from repro.runtime import VM, RoundRobinScheduler
from repro.runtime.events import (
    Frame,
    LockAcquire,
    LockRelease,
    MemoryAccess,
    ThreadCreate,
    intern_frame,
    intern_guest_stack,
    intern_stack,
    intern_stats,
)


def _tiny_workload(api):
    """Two threads bumping a shared counter under a lock."""
    cell = api.malloc(1, tag="cell")
    api.store(cell, 0)
    m = api.mutex()

    def worker(a):
        for _ in range(3):
            a.lock(m)
            a.store(cell, a.load(cell) + 1)
            a.unlock(m)

    threads = [api.spawn(worker) for _ in range(2)]
    for t in threads:
        api.join(t)
    return api.load(cell)


class _LockCounter(EventDispatcher):
    """Subscribes to lock events only."""

    def __init__(self):
        self.seen: list[type] = []

    @handles(LockAcquire, LockRelease)
    def _on_lock(self, event, vm=None):
        self.seen.append(event.__class__)


class _LegacyHook:
    """Pre-dispatch ABI: a bare ``handle`` that sees every event."""

    def __init__(self):
        self.count = 0

    def handle(self, event, vm):
        self.count += 1


class TestEventDispatcher:
    def test_handles_registers_and_handler_for_resolves(self):
        det = _LockCounter()
        assert det.handler_for(LockAcquire) is not None
        assert det.handler_for(LockRelease) is not None
        assert det.handler_for(MemoryAccess) is None
        assert det.handler_for(ThreadCreate) is None

    def test_legacy_handle_routes_through_the_table(self):
        det = _LockCounter()
        det.handle(LockAcquire(step=1, tid=0, lock_id=1), None)
        det.handle(MemoryAccess(step=2, tid=0, addr=4), None)  # unsubscribed: no-op
        assert det.seen == [LockAcquire]

    def test_subclass_inherits_and_can_extend_the_table(self):
        class Extended(_LockCounter):
            @handles(MemoryAccess)
            def _on_access(self, event, vm=None):
                self.seen.append(event.__class__)

        det = Extended()
        assert det.handler_for(MemoryAccess) is not None
        # The base class table is untouched by the subclass.
        assert _LockCounter().handler_for(MemoryAccess) is None

    def test_combine_handlers(self):
        order = []
        one = lambda e, vm: order.append("one")  # noqa: E731
        two = lambda e, vm: order.append("two")  # noqa: E731
        assert combine_handlers() is None
        assert combine_handlers(None, None) is None
        assert combine_handlers(None, one) is one
        fan = combine_handlers(one, None, two)
        fan(None, None)
        assert order == ["one", "two"]


class TestVMRouting:
    def test_uninterested_detectors_are_skipped(self):
        det = _LockCounter()
        vm = VM(scheduler=RoundRobinScheduler(), detectors=(det,))
        vm.run(_tiny_workload)
        # Lock traffic was seen...
        n_locks = vm.stats.events["LockAcquire"] + vm.stats.events["LockRelease"]
        assert len(det.seen) == n_locks > 0
        # ...and nothing else ever reached the detector.
        assert set(det.seen) == {LockAcquire, LockRelease}
        # The route cache holds an *empty* tuple for unsubscribed types:
        # later MemoryAccess events cost one dict hit and no calls.
        assert vm._dispatch[MemoryAccess] == ()

    def test_legacy_hooks_see_every_event(self):
        legacy = _LegacyHook()
        vm = VM(scheduler=RoundRobinScheduler(), detectors=(legacy,))
        vm.run(_tiny_workload)
        assert legacy.count == vm.stats.total_events > 0

    def test_stock_detector_routes_only_its_events(self):
        det = LockGraphDetector()
        vm = VM(scheduler=RoundRobinScheduler(), detectors=(det,))
        vm.run(_tiny_workload)
        # The lock-graph detector never subscribed to memory traffic.
        assert vm._dispatch[MemoryAccess] == ()
        assert len(vm._dispatch[LockAcquire]) == 1


class TestStackInterning:
    def test_intern_frame_and_stack_are_idempotent_identities(self):
        f1 = intern_frame(Frame("mod.fn", "mod.py", 12))
        f2 = intern_frame(Frame("mod.fn", "mod.py", 12))
        assert f1 is f2
        s1 = intern_stack((Frame("mod.fn", "mod.py", 12), Frame("x", "y.py", 1)))
        s2 = intern_stack((Frame("mod.fn", "mod.py", 12), Frame("x", "y.py", 1)))
        assert s1 is s2
        assert s1[0] is f1
        assert intern_stack(s1) is s1  # already-canonical fast path

    def test_guest_stack_is_the_object_intern_stack_returns(self):
        frames = [["outer", "s.cpp", 3], ["inner", "s.cpp", 9]]
        stack = intern_guest_stack(frames)
        assert stack is intern_stack((Frame("inner", "s.cpp", 9), Frame("outer", "s.cpp", 3)))
        assert intern_guest_stack(frames) is stack
        assert all(type(frame) is Frame for frame in stack)
        assert intern_guest_stack([]) == ()

    def test_plain_tuples_find_the_canonical_stack(self):
        """A frame hashes and compares as its plain tuple, so a stack
        of plain tuples finds the canonical stack; a new one is built
        of interned :class:`Frame` objects."""
        stack = intern_stack((Frame("plain", "s.cpp", 1),))
        assert intern_stack((("plain", "s.cpp", 1),)) is stack
        fresh = intern_stack((("plain", "s.cpp", 2), ("plain", "s.cpp", 1)))
        assert type(fresh[0]) is Frame and fresh[1] is stack[0]

    def test_a_line_change_is_a_new_stack(self):
        frames = [["moved", "s.cpp", 1]]
        first = intern_guest_stack(frames)
        frames[-1][2] = 2
        second = intern_guest_stack(frames)
        assert first != second and second == (Frame("moved", "s.cpp", 2),)

    def test_one_hit_or_one_miss_per_lookup(self):
        frames = [["counted", "s.cpp", 1]]
        before = intern_stats()
        intern_guest_stack(frames)
        intern_guest_stack(frames)
        after = intern_stats()
        assert after["stack_misses"] - before["stack_misses"] == 1
        assert after["stack_hits"] - before["stack_hits"] == 1

    def test_emitted_events_carry_interned_stacks(self):
        class Recorder:
            def __init__(self):
                self.stacks = []

            def handle(self, event, vm):
                self.stacks.append(event.stack)

        rec = Recorder()
        vm = VM(scheduler=RoundRobinScheduler(), detectors=(rec,))
        vm.run(_tiny_workload)
        assert rec.stacks
        for stack in rec.stacks:
            assert intern_stack(stack) is stack
        # Repeated events from the same call site share one tuple object.
        by_value = {}
        for stack in rec.stacks:
            assert by_value.setdefault(stack, stack) is stack
        assert len(by_value) < len(rec.stacks)
