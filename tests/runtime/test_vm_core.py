"""Tests for the VM core: threads, memory traps, faults, limits."""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.errors import DeadlockError, GuestFault, StepLimitExceeded, VMError
from repro.runtime import VM, FixedOrderScheduler, RandomScheduler, RoundRobinScheduler
from repro.runtime.events import MemAlloc, MemoryAccess, ThreadCreate, ThreadFinish, ThreadJoin
from repro.runtime.thread import Baton, ThreadState
from tests.conftest import record_trace, run_program


def _open_fds() -> int | None:
    """Open file descriptors of this process, or None without ``/proc``."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


class TestBasicExecution:
    def test_run_returns_main_result(self):
        result, _ = run_program(lambda api: 42)
        assert result == 42

    def test_run_passes_args(self):
        result, _ = run_program(lambda api, a, b: a + b, 3, 4)
        assert result == 7

    def test_vm_is_single_use(self):
        vm = VM()
        vm.run(lambda api: None)
        with pytest.raises(VMError, match="only run once"):
            vm.run(lambda api: None)

    def test_cannot_add_detector_after_start(self):
        vm = VM()
        vm.run(lambda api: None)
        with pytest.raises(VMError):
            vm.add_detector(object())

    def test_finished_flag(self):
        vm = VM()
        assert not vm.finished
        vm.run(lambda api: None)
        assert vm.finished


class TestMemoryTraps:
    def test_malloc_store_load(self):
        def prog(api):
            addr = api.malloc(4, tag="x")
            api.store(addr + 1, "v")
            return api.load(addr + 1)

        result, vm = run_program(prog)
        assert result == "v"
        assert vm.stats.events["MemAlloc"] == 1
        assert vm.stats.events["MemoryAccess"] == 2

    def test_memory_events_carry_block_and_stack(self):
        def prog(api):
            with api.frame("init", "main.cpp", 7):
                addr = api.malloc(1, tag="x")
                api.store(addr, 1)

        events, _ = record_trace(prog)
        store = [e for e in events if isinstance(e, MemoryAccess)][0]
        assert store.block_id >= 0
        assert store.site.function == "init"
        assert store.site.file == "main.cpp"

    def test_at_updates_site_line(self):
        def prog(api):
            addr = api.malloc(1)
            with api.frame("f", "a.cpp", 1):
                api.at(10)
                api.store(addr, 0)
                api.at(20)
                api.store(addr, 1)

        events, _ = record_trace(prog)
        lines = [e.site.line for e in events if isinstance(e, MemoryAccess)]
        assert lines == [10, 20]

    def test_guest_fault_propagates(self):
        with pytest.raises(GuestFault, match="wild"):
            run_program(lambda api: api.store(0xBAD, 1))

    def test_fault_in_child_halts_vm(self):
        def prog(api):
            def bad(a):
                a.load(0xBAD)

            t = api.spawn(bad)
            api.join(t)

        with pytest.raises(GuestFault):
            run_program(prog)

    def test_free_emits_event_and_invalidates(self):
        def prog(api):
            addr = api.malloc(2)
            api.store(addr, 1)
            api.free(addr)
            api.load(addr)

        with pytest.raises(GuestFault, match="freed"):
            run_program(prog)


class TestAtomics:
    def test_atomic_add_returns_old(self):
        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 10)
            old = api.atomic_add(addr, 5)
            return old, api.load(addr)

        result, _ = run_program(prog)
        assert result == (10, 15)

    def test_atomic_add_is_indivisible(self):
        """Concurrent atomic_adds never lose updates, unlike load+store."""

        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 0)

            def worker(a):
                for _ in range(50):
                    a.atomic_add(addr, 1)

            ts = [api.spawn(worker) for _ in range(4)]
            for t in ts:
                api.join(t)
            return api.load(addr)

        for seed in range(3):
            result, _ = run_program(prog, scheduler=RandomScheduler(seed))
            assert result == 200

    def test_plain_increment_loses_updates_under_some_schedule(self):
        """The racy version genuinely corrupts data for at least one seed."""

        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 0)

            def worker(a):
                for _ in range(20):
                    a.store(addr, a.load(addr) + 1)

            ts = [api.spawn(worker) for _ in range(3)]
            for t in ts:
                api.join(t)
            return api.load(addr)

        results = {run_program(prog, scheduler=RandomScheduler(s))[0] for s in range(5)}
        assert any(r < 60 for r in results), results

    def test_atomic_events_are_bus_locked(self):
        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 0)
            api.atomic_add(addr, 1)

        events, _ = record_trace(prog)
        locked = [e for e in events if isinstance(e, MemoryAccess) and e.bus_locked]
        assert len(locked) == 2  # the RMW's read + write
        assert locked[0].kind.value == "read"
        assert locked[1].kind.value == "write"

    def test_cas_success_and_failure(self):
        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 5)
            ok1 = api.atomic_cas(addr, 5, 6)
            ok2 = api.atomic_cas(addr, 5, 7)
            return ok1, ok2, api.load(addr)

        result, _ = run_program(prog)
        assert result == (True, False, 6)

    def test_atomic_add_on_non_integer_faults(self):
        def prog(api):
            addr = api.malloc(1)
            api.store(addr, "not an int")
            api.atomic_add(addr, 1)

        with pytest.raises(GuestFault, match="non-integer"):
            run_program(prog)


class TestThreads:
    def test_spawn_join_returns_child_result(self):
        def prog(api):
            t = api.spawn(lambda a: "child-value")
            return api.join(t)

        result, _ = run_program(prog)
        assert result == "child-value"

    def test_thread_lifecycle_events(self):
        def prog(api):
            t = api.spawn(lambda a: None, name="w")
            api.join(t)

        events, _ = record_trace(prog)
        kinds = [type(e).__name__ for e in events]
        assert "ThreadCreate" in kinds
        assert "ThreadFinish" in kinds
        assert "ThreadJoin" in kinds
        create = next(e for e in events if isinstance(e, ThreadCreate))
        join = next(e for e in events if isinstance(e, ThreadJoin))
        assert create.child_tid == join.joined_tid

    def test_join_already_finished_thread(self):
        def prog(api):
            t = api.spawn(lambda a: 9)
            api.sleep(10)  # let the child definitely finish
            return api.join(t)

        result, _ = run_program(prog)
        assert result == 9

    def test_join_self_faults(self):
        def prog(api):
            api.join(api.thread)

        with pytest.raises(GuestFault, match="itself"):
            run_program(prog)

    def test_unjoined_threads_still_complete(self):
        """Main returning early does not kill detached children."""
        box = []

        def prog(api):
            def child(a):
                a.sleep(5)
                box.append("done")

            api.spawn(child)
            return "main-done"

        result, _ = run_program(prog)
        assert result == "main-done"
        assert box == ["done"]

    def test_nested_spawn(self):
        def prog(api):
            def middle(a):
                t = a.spawn(lambda b: 3)
                return a.join(t) + 1

            t = api.spawn(middle)
            return api.join(t) + 1

        result, _ = run_program(prog)
        assert result == 5

    def test_many_threads(self):
        fds = _open_fds()

        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 0)
            m = api.mutex()

            def worker(a):
                a.lock(m)
                a.store(addr, a.load(addr) + 1)
                a.unlock(m)

            ts = [api.spawn(worker) for _ in range(30)]
            for t in ts:
                api.join(t)
            return api.load(addr)

        result, vm = run_program(prog)
        assert result == 30
        assert vm.stats.threads_created == 31
        assert vm.stats.max_live_threads >= 2
        assert _open_fds() == fds  # every carrier closed its baton's pipe


class TestLimitsAndDeadlock:
    def test_step_limit(self):
        def spin(api):
            addr = api.malloc(1)
            api.store(addr, 0)
            while True:
                api.load(addr)

        with pytest.raises(StepLimitExceeded):
            run_program(spin, step_limit=500)

    def test_deadlock_two_mutexes(self):
        def prog(api):
            m1, m2 = api.mutex("A"), api.mutex("B")

            def w1(a):
                a.lock(m1)
                a.yield_()
                a.lock(m2)

            def w2(a):
                a.lock(m2)
                a.yield_()
                a.lock(m1)

            t1, t2 = api.spawn(w1), api.spawn(w2)
            api.join(t1)
            api.join(t2)

        with pytest.raises(DeadlockError) as exc_info:
            run_program(prog)
        blocked_tids = {tid for tid, _ in exc_info.value.blocked}
        assert len(blocked_tids) == 3  # the two workers + joining main

    def test_starved_queue_get_is_deadlock(self):
        def prog(api):
            q = api.queue()
            api.get(q)  # nobody will ever put

        with pytest.raises(DeadlockError):
            run_program(prog)

    def test_self_join_like_wait_detected(self):
        def prog(api):
            cv, m = api.condvar(), api.mutex()
            api.lock(m)
            api.cond_wait(cv, m)  # nobody signals

        with pytest.raises(DeadlockError):
            run_program(prog)


def _live_carriers() -> list[threading.Thread]:
    return [
        t for t in threading.enumerate()
        if t.name.startswith("carrier-") and t.is_alive()
    ]


class TestCarrierTeardown:
    """However a run aborts, ``vm.run`` raises only after every carrier
    it started has exited and closed its baton's pipe.  A parked or
    not-yet-started carrier waits in a read of its own pipe; the abort
    writes one byte to each carrier not yet retired, the carrier unwinds
    from there, and no pipe is closed before every carrier has retired."""

    def _abort(self, prog, error, *, scheduler=None, step_limit=2_000_000):
        fds = _open_fds()
        vm = VM(scheduler=scheduler or RoundRobinScheduler(), step_limit=step_limit)
        with pytest.raises(error) as exc_info:
            vm.run(prog)
        assert [t.name for t in vm.threads.values() if t.carrier.is_alive()] == []
        assert _live_carriers() == []
        assert _open_fds() == fds
        return vm, exc_info.value

    def test_guest_fault_with_parked_siblings(self):
        def prog(api):
            m = api.mutex("held")
            api.lock(m)  # never unlocked: the waiter stays parked

            def waiter(a):
                a.lock(m)

            def spinner(a):
                while True:
                    a.yield_()

            def bad(a):
                for _ in range(3):
                    a.yield_()
                a.load(0xBAD)

            api.spawn(waiter, name="waiter")
            api.spawn(spinner, name="spinner")
            api.join(api.spawn(bad, name="bad"))

        vm, _ = self._abort(prog, GuestFault)
        states = {t.name: t.state for t in vm.threads.values()}
        assert states["waiter"] is ThreadState.BLOCKED
        assert states["spinner"] is ThreadState.RUNNABLE
        assert states["bad"] is ThreadState.FAULTED

    def test_guest_fault_before_children_start(self):
        def prog(api):
            for _ in range(3):
                api.spawn(lambda a: None)
            api.store(0xBAD, 1)

        # Always the lowest runnable tid: main runs until it faults.
        vm, _ = self._abort(prog, GuestFault, scheduler=FixedOrderScheduler([]))
        assert [t.steps for t in vm.threads.values()] == [3, 0, 0, 0]

    def test_deadlock_on_empty_queue(self):
        def prog(api):
            q = api.queue(name="empty")

            def consumer(a):
                a.get(q)

            api.spawn(consumer)
            api.spawn(consumer)
            api.get(q)

        vm, err = self._abort(prog, DeadlockError)
        assert len(err.blocked) == 3
        assert len(vm.threads) == 3

    def test_step_limit_with_spinning_threads(self):
        def spin(api, addr):
            while True:
                api.load(addr)

        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 0)
            for _ in range(3):
                api.spawn(spin, addr)
            spin(api, addr)

        vm, _ = self._abort(prog, StepLimitExceeded, step_limit=500)
        assert len(vm.threads) == 4

    def test_unwinding_guest_code_does_not_hand_off(self):
        """A carrier woken by the abort unwinds through guest ``finally``
        blocks, which may call the API again.  Those calls must not hand
        control to another carrier: every other baton is spent."""

        def prog(api):
            m = api.mutex("m")

            def holder(a):
                a.lock(m)
                try:
                    while True:
                        a.yield_()
                finally:
                    a.unlock(m)
                    a.yield_()

            def bad(a):
                for _ in range(3):
                    a.yield_()
                a.load(0xBAD)

            api.spawn(holder, name="holder")
            api.join(api.spawn(bad, name="bad"))

        self._abort(prog, GuestFault)

    def test_carrier_that_cannot_start(self, monkeypatch):
        """A spawn whose host thread cannot start fails the run; the
        abort does not wait for a carrier that never ran."""
        started = []

        class Refusing(threading.Thread):
            def start(self):
                if len(started) == 2:
                    raise RuntimeError("can't start new thread")
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Refusing)

        def prog(api):
            api.spawn(lambda a: a.yield_())
            api.spawn(lambda a: None)

        vm, err = self._abort(prog, RuntimeError)
        assert "can't start" in str(err)
        assert len(vm.threads) == 3


#: Shared head of the scripts run in a fresh interpreter: each prints
#: one JSON line.
_ISOLATED_PRELUDE = """
import json, os, resource, signal, sys, threading, time
from repro.runtime import VM

def open_fds():
    return len(os.listdir("/proc/self/fd"))

def carriers():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("carrier-") and t.is_alive()]
"""

_FD_LIMIT_SCRIPT = _ISOLATED_PRELUDE + """
resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
shape, n = sys.argv[1], int(sys.argv[2])

def one_after_another(api):
    for i in range(n):
        api.join(api.spawn(lambda a, i: i, i))
    return n

def all_at_once(api):
    q = api.queue(name="never")
    workers = [api.spawn(lambda a: a.get(q)) for _ in range(n)]
    for t in workers:
        api.join(t)

fds = open_fds()
vm = VM()
try:
    out = {"result": vm.run(one_after_another if shape == "sequential" else all_at_once)}
except BaseException as exc:
    cause = exc if isinstance(exc, OSError) else exc.__cause__
    out = {"raised": type(exc).__name__, "errno": getattr(cause, "errno", None)}
out.update(threads=len(vm.threads), carriers=carriers(), fds=[fds, open_fds()])
print(json.dumps(out))
"""

_INTERRUPT_SCRIPT = _ISOLATED_PRELUDE + """
spinners = int(sys.argv[1])

def spin(api, addr):
    while True:
        api.load(addr)

def prog(api):
    addr = api.malloc(1)
    api.store(addr, 0)
    for _ in range(spinners - 1):
        api.spawn(spin, addr)
    spin(api, addr)

fds = open_fds()
vm = VM(step_limit=10**9)
main = threading.main_thread().ident
threading.Timer(0.5, signal.pthread_kill, (main, signal.SIGINT)).start()
start = time.monotonic()
try:
    vm.run(prog)
    raised = None
except BaseException as exc:
    raised = type(exc).__name__
elapsed = time.monotonic() - start
clock = vm.clock
time.sleep(0.5)
print(json.dumps({
    "raised": raised, "elapsed": elapsed, "threads": len(vm.threads),
    "advanced": vm.clock - clock, "carriers": carriers(),
    "fds": [fds, open_fds()],
}))
"""


def _run_isolated(script: str, *args) -> dict:
    """Run ``script`` in a fresh interpreter, bounded to 15 s."""
    if _open_fds() is None:
        pytest.skip("needs /proc/self/fd")
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, timeout=15,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestCarrierFileDescriptors:
    """Each carrier closes its baton's pipe as it exits, so a VM's open
    descriptors follow its live threads, not every thread it ever ran."""

    def test_sequential_threads_fit_a_low_descriptor_limit(self):
        out = _run_isolated(_FD_LIMIT_SCRIPT, "sequential", 300)
        assert out["result"] == 300
        assert out["threads"] == 301
        assert out["carriers"] == []
        assert out["fds"][0] == out["fds"][1]

    def test_too_many_live_threads_fail_the_run_cleanly(self):
        out = _run_isolated(_FD_LIMIT_SCRIPT, "concurrent", 40)
        assert out["raised"] in ("OSError", "VMError")
        assert out["errno"] == errno.EMFILE
        assert 1 < out["threads"] <= 40
        assert out["carriers"] == []
        assert out["fds"][0] == out["fds"][1]


class TestInterruptedRun:
    """An interrupt that reaches ``vm.run`` stops the guest: every
    carrier unwinds and closes its pipe before the interrupt leaves
    ``run``, and the guest clock stops.  Run in a fresh interpreter, so
    a stray ``KeyboardInterrupt`` cannot end the test session."""

    @pytest.mark.parametrize("spinners", [1, 4])
    def test_interrupt_stops_every_carrier(self, spinners):
        out = _run_isolated(_INTERRUPT_SCRIPT, spinners)
        assert out["raised"] == "KeyboardInterrupt"
        assert out["elapsed"] < 2.0
        assert out["threads"] == spinners
        assert out["advanced"] == 0
        assert out["carriers"] == []
        assert out["fds"][0] == out["fds"][1]


class TestBatonHandOff:
    def test_no_lost_host_update_under_preemption_pressure(self):
        """Eight guest threads on two cores hand off through yields, a
        contended mutex, a queue and thread exit, with the host switch
        interval cut to a microsecond.  Each does a host-side
        read-modify-write between two traps; if two carriers ever ran at
        once, updates would be lost."""
        box = [0]
        rounds = 150

        def prog(api):
            m = api.mutex("m")
            q = api.queue(name="q")

            def worker(a):
                for i in range(rounds):
                    value = box[0]
                    sum(range(50))  # widen the window between read and write
                    box[0] = value + 1
                    if i % 3 == 0:
                        a.lock(m)
                        a.yield_()
                        a.unlock(m)
                    elif i % 3 == 1:
                        a.put(q, i)
                        a.get(q)
                    else:
                        a.yield_()

            threads = [api.spawn(worker) for _ in range(8)]
            for t in threads:
                api.join(t)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            vm = VM(scheduler=RandomScheduler(11))
            vm.run(prog)
        finally:
            sys.setswitchinterval(interval)
        assert box[0] == 8 * rounds
        assert vm.stats.switches > 8 * rounds
        assert _live_carriers() == []

    def test_second_release_raises_until_the_owner_hands_on(self):
        """A pipe would queue a second byte and later wake its owner
        while another carrier runs, so the baton refuses it instead:
        parking does not clear the release, only the owner's own
        hand-off does."""
        owner, other = Baton(), Baton()
        try:
            owner.release()
            with pytest.raises(RuntimeError, match="released twice"):
                owner.release()
            owner.wait()  # the owner wakes and runs ...
            with pytest.raises(RuntimeError, match="released twice"):
                owner.release()  # ... and still holds that release
            owner.hand_to(other)
            assert other.released and not owner.released
            owner.release()  # control may come straight back
            owner.wait()
        finally:
            owner.close()
            other.close()

    def test_abort_wakes_past_a_pending_release(self):
        baton = Baton()
        try:
            baton.release()
            baton.wake()
            baton.wait()
            baton.wait()  # two bytes: the release and the wake
        finally:
            baton.close()


class TestStats:
    def test_stats_event_counts(self):
        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 0)
            api.load(addr)

        _, vm = run_program(prog)
        assert vm.stats.events["MemAlloc"] == 1
        assert vm.stats.events["MemoryAccess"] == 2
        assert vm.stats.total_events == vm.clock

    def test_single_thread_avoids_host_switches(self):
        """With one runnable thread the fast path skips carrier hand-offs."""

        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 0)
            for _ in range(100):
                api.load(addr)

        _, vm = run_program(prog)
        # Only the initial dispatch of main should count as a switch.
        assert vm.stats.switches <= 2


class _LiveRecount:
    """Recounts the live threads by brute force at every ThreadCreate;
    ``peak`` starts at 1, the main thread."""

    def __init__(self) -> None:
        self.peak = 1

    def handle(self, event, vm) -> None:
        if isinstance(event, ThreadCreate):
            live = sum(1 for t in vm.threads.values() if t.alive)
            self.peak = max(self.peak, live)


class TestMaxLiveThreads:
    """``max_live_threads`` comes from a running count of live threads,
    so a spawn does not rescan every thread the run has made."""

    @staticmethod
    def _run(prog, *, raises=None):
        recount = _LiveRecount()
        vm = VM(scheduler=RoundRobinScheduler(), detectors=(recount,))
        if raises is None:
            vm.run(prog)
        else:
            with pytest.raises(raises):
                vm.run(prog)
        assert vm.stats.max_live_threads == recount.peak
        assert vm._live_threads == sum(1 for t in vm.threads.values() if t.alive)
        return vm

    def test_spawn_and_join_one_at_a_time(self):
        def prog(api):
            for _ in range(6):
                api.join(api.spawn(lambda a: a.yield_()))

        vm = self._run(prog)
        assert vm.stats.max_live_threads == 2

    def test_spawn_all_then_join(self):
        def prog(api):
            children = [api.spawn(lambda a: a.yield_()) for _ in range(6)]
            for child in children:
                api.join(child)

        vm = self._run(prog)
        assert vm.stats.max_live_threads > 2

    def test_a_child_that_faults(self):
        def faulting(api):
            api.yield_()
            api.free(0x10)  # never allocated: a guest fault

        def prog(api):
            api.join(api.spawn(lambda a: None))
            waiters = [api.spawn(lambda a: a.yield_()) for _ in range(3)]
            api.spawn(faulting)
            for child in waiters:
                api.join(child)

        vm = self._run(prog, raises=GuestFault)
        assert vm.threads[5].state is ThreadState.FAULTED


class TestApiDetails:
    def test_spawn_names_threads(self):
        def prog(api):
            t = api.spawn(lambda a: None, name="worker-7")
            api.join(t)
            return t.name

        result, _ = run_program(prog)
        assert result == "worker-7"

    def test_default_thread_names(self):
        def prog(api):
            t = api.spawn(lambda a: None)
            api.join(t)
            return t.name

        result, _ = run_program(prog)
        assert result == "thread-1"

    def test_sleep_zero_is_noop(self):
        def prog(api):
            api.sleep(0)
            return "done"

        result, _ = run_program(prog)
        assert result == "done"

    def test_frames_unwound_on_guest_fault(self):
        """The frame context manager pops even when the body raises."""
        from repro.errors import GuestFault

        def prog(api):
            try_depths = []
            with api.frame("outer", "x.cpp", 1):
                try_depths.append(len(api.thread.frames))
            try_depths.append(len(api.thread.frames))
            return try_depths

        result, _ = run_program(prog)
        assert result == [1, 0]

    def test_guest_fault_carries_tid(self):
        from repro.errors import GuestFault

        def prog(api):
            def child(a):
                a.load(0xBAD)

            t = api.spawn(child)
            api.join(t)

        try:
            run_program(prog)
        except GuestFault as fault:
            assert fault.tid == 1
        else:  # pragma: no cover
            raise AssertionError("expected GuestFault")

    def test_client_request_rejects_empty_range(self):
        from repro.errors import GuestFault

        def prog(api):
            addr = api.malloc(1)
            api.hg_destruct(addr, 0)

        import pytest

        with pytest.raises(GuestFault, match="non-positive"):
            run_program(prog)

    def test_benign_range_spans_multiple_words(self):
        from repro.detectors import HelgrindConfig, HelgrindDetector

        def prog(api):
            block = api.malloc(4, tag="stats")
            for i in range(4):
                api.store(block + i, 0)
            api.benign_race(block, 4)

            def w(a):
                for i in range(4):
                    a.store(block + i, a.load(block + i) + 1)

            t1, t2 = api.spawn(w), api.spawn(w)
            api.join(t1)
            api.join(t2)

        det = HelgrindDetector(HelgrindConfig.original())
        run_program(prog, detectors=(det,))
        assert det.report.location_count == 0

    def test_sync_object_reprs(self):
        def prog(api):
            m = api.mutex("guard")
            rw = api.rwlock("cache")
            q = api.queue(maxsize=2, name="jobs")
            sem = api.semaphore(1, name="slots")
            bar = api.barrier(2, name="sync")
            cv = api.condvar("ready")
            api.lock(m)
            reprs = [repr(m), repr(rw), repr(q), repr(sem), repr(bar), repr(cv)]
            api.unlock(m)
            return reprs

        result, _ = run_program(prog)
        assert "guard" in result[0] and "t0" in result[0]
        assert "free" in result[1]
        assert "0/2" in result[2]
        assert "count=1" in result[3]
        assert "0/2" in result[4]
        assert "waiters=0" in result[5]
