"""``GuestAPI.spin`` against the loop it stands for.

``api.spin(ready, tries=n, traps=k)`` must keep the schedule of the
explicit loop in :class:`Loops` — every event, trap and scheduler
decision — while a pick of a spinning thread runs its failed tests and
their traps on whichever carrier made the pick.  Each comparison below
runs one generated guest twice, once through :class:`Loops` and once
through :class:`Spins`, and requires the same events, traps, decisions,
per-thread steps and return values, with no more carrier switches.
"""

from __future__ import annotations

import itertools
import random
import sys
import threading

import pytest

from repro.errors import GuestFault
from repro.runtime import VM, FixedOrderScheduler, RandomScheduler, RoundRobinScheduler
from repro.runtime.scheduler import StickyScheduler
from repro.runtime.thread import ThreadState
from tests.runtime.test_live_stream import StreamDigest
from tests.runtime.test_vm_core import _ISOLATED_PRELUDE, _live_carriers, _run_isolated


class Loops:
    """The reference: the loops ``spin``, ``sleep`` and the proxy's
    ``trylock`` watchdog stand for, written out."""

    @staticmethod
    def spin(api, ready, *, tries=None, traps=1) -> bool:
        for _ in itertools.count() if tries is None else range(tries):
            if ready():
                return True
            for _ in range(traps):
                api.yield_()
        return False

    @staticmethod
    def sleep(api, ticks) -> None:
        for _ in range(ticks):
            api.yield_()

    @staticmethod
    def lock(api, mutex, tries) -> bool:
        for _ in range(tries):
            if api.trylock(mutex):
                return True
            api.yield_()
        api.lock(mutex)
        return False


class Spins:
    """The same three through ``api.spin``."""

    @staticmethod
    def spin(api, ready, *, tries=None, traps=1) -> bool:
        return api.spin(ready, tries=tries, traps=traps)

    @staticmethod
    def sleep(api, ticks) -> None:
        api.sleep(ticks)

    @staticmethod
    def lock(api, mutex, tries) -> bool:
        if api.spin(lambda: not mutex.held, tries=tries, traps=2):
            api.trylock(mutex)
            return True
        api.lock(mutex)
        return False


# ----------------------------------------------------------------------
# Generated guests
# ----------------------------------------------------------------------


def _plans(rng: random.Random, workers: int) -> list[list[tuple]]:
    """One op list per worker.  Worker ``i`` waits without bound only
    for a count that a lower-numbered worker bumps before its first
    lock, so some runnable thread can always make progress, even under
    a policy that always picks the lowest runnable tid."""
    plans, bumps = [], []
    for i in range(workers):
        ops = [("bump",)]
        for _ in range(rng.randint(3, 7)):
            kind = rng.choice(["store", "load", "bump", "wait", "bounded", "sleep", "yield"])
            if kind == "wait" and not (i and any(bumps[:i])):
                kind = "bump"
            ops.append(_op(rng, kind, i, workers, bumps))
        rng.shuffle(ops)
        bumps.append(sum(op[0] == "bump" for op in ops))
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(["lock", "lock", "store", "sleep", "bounded", "wait"])
            if kind == "wait" and not (i and any(bumps[:i])):
                kind = "lock"
            ops.append(_op(rng, kind, i, workers, bumps))
        plans.append(ops)
    return plans


def _op(rng: random.Random, kind: str, i: int, workers: int, bumps: list) -> tuple:
    if kind in ("store", "load"):
        return (kind, rng.randrange(4))
    if kind == "wait":
        j = rng.choice([j for j in range(i) if bumps[j]])
        return ("wait", j, rng.randint(1, bumps[j]))
    if kind == "bounded":
        return ("bounded", rng.randrange(workers), rng.randint(1, 3),
                rng.randint(0, 4), rng.randint(1, 2))
    if kind == "sleep":
        return ("sleep", rng.randint(0, 3))
    if kind == "lock":
        body = [
            _op(rng, rng.choice(["store", "load", "sleep", "yield"]), i, workers, bumps)
            for _ in range(rng.randint(1, 3))
        ]
        return ("lock", rng.randrange(2), rng.randint(1, 6), body)
    return (kind,)


def generated_guest(seed: int, impl):
    """Three to five workers bumping host counters, spinning on each
    other's counts (without bound and with a few tries), sleeping, and
    taking two mutexes through the bounded ``trylock`` watchdog."""
    rng = random.Random(seed)
    workers = rng.randint(3, 5)
    plans = _plans(rng, workers)

    def prog(api):
        words = api.malloc(4, tag="shared")
        for k in range(4):
            api.store(words + k, 0)
        mutexes = [api.mutex(f"m{k}") for k in range(2)]
        progress = [0] * workers

        def reached(j, count):
            return lambda: progress[j] >= count

        def step(a, op, i, results):
            kind = op[0]
            if kind == "store":
                a.store(words + op[1], i)
            elif kind == "load":
                a.load(words + op[1])
            elif kind == "bump":
                progress[i] += 1
            elif kind == "wait":
                results.append(impl.spin(a, reached(op[1], op[2])))
            elif kind == "bounded":
                _, j, count, tries, traps = op
                results.append(impl.spin(a, reached(j, count), tries=tries, traps=traps))
            elif kind == "sleep":
                impl.sleep(a, op[1])
            elif kind == "yield":
                a.yield_()
            else:
                _, m, tries, body = op
                results.append(impl.lock(a, mutexes[m], tries))
                for inner in body:
                    step(a, inner, i, results)
                a.unlock(mutexes[m])

        def worker(a, i):
            results = []
            for op in plans[i]:
                step(a, op, i, results)
            return results

        threads = [api.spawn(worker, i, name=f"w{i}") for i in range(workers)]
        results = [impl.spin(api, reached(workers - 1, 1), tries=3)]
        results += [api.join(t) for t in threads]
        return results

    return prog


def observe(prog, scheduler) -> dict:
    """Run ``prog`` and return everything a spin must keep, plus the
    switches it may lower."""
    digest = StreamDigest()
    vm = VM(scheduler=scheduler, detectors=(digest,))
    result = vm.run(prog)
    return {
        "events": (digest.sha.hexdigest(), digest.events, vm.clock),
        "traps": vm.stats.traps,
        "decisions": scheduler.record(),
        "steps": {tid: t.steps for tid, t in vm.threads.items()},
        "result": result,
        "switches": vm.stats.switches,
    }


POLICIES = {
    "random": lambda seed: RandomScheduler(seed),
    "sticky": lambda seed: StickyScheduler(seed, switch_prob=0.2),
    "round-robin": lambda seed: RoundRobinScheduler(),
    "fixed-order": lambda seed: FixedOrderScheduler(
        random.Random(seed).choices(range(1, 7), k=300)
    ),
}


def _same_schedule(make_prog, make_scheduler) -> tuple[dict, dict]:
    """Run the reference and the spun guest; assert they agree."""
    scheduler = make_scheduler()
    reference = observe(make_prog(Loops), scheduler)
    spun_scheduler = make_scheduler()
    spun = observe(make_prog(Spins), spun_scheduler)
    if isinstance(scheduler, FixedOrderScheduler):
        assert spun_scheduler._pos == scheduler._pos
    assert {**spun, "switches": 0} == {**reference, "switches": 0}
    assert spun["switches"] <= reference["switches"]
    return reference, spun


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("seed", range(8))
def test_generated_guest_keeps_the_loops_schedule(policy, seed):
    _same_schedule(
        lambda impl: generated_guest(seed, impl), lambda: POLICIES[policy](seed)
    )


# ----------------------------------------------------------------------
# The loop's edges, on one thread and on another carrier
# ----------------------------------------------------------------------


class TestLoopEdges:
    def test_tries_bound_the_tests(self):
        """Two tries test twice: a test that would pass third is never made."""
        calls = []

        def prog(api):
            helper = api.spawn(lambda a: [a.yield_() for _ in range(6)])
            got = api.spin(lambda: calls.append(1) or len(calls) > 2, tries=2, traps=2)
            api.join(helper)
            return got

        vm = VM(scheduler=RandomScheduler(5))
        assert vm.run(prog) is False
        assert len(calls) == 2

    @pytest.mark.parametrize("tries", [0, -3])
    def test_no_tries_no_test(self, tries):
        calls = []

        def prog(api):
            return api.spin(lambda: calls.append(1) or True, tries=tries)

        vm = VM()
        assert vm.run(prog) is False
        assert calls == [] and vm.stats.traps == 0

    def test_a_passing_test_costs_no_trap(self):
        vm = VM()
        assert vm.run(lambda api: api.spin(lambda: 1)) is True
        assert vm.stats.traps == 0

    def test_non_integer_tries_fail_like_range(self):
        with pytest.raises(TypeError):
            VM().run(lambda api: api.spin(lambda: False, tries=2.5))

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_a_lone_sleeper_asks_the_policy_nothing(self, policy):
        """A lone runnable thread's traps take the fast path, spun or not."""

        def make_prog(impl):
            def prog(api):
                impl.sleep(api, 5)
                child = api.spawn(lambda a: impl.sleep(a, 4))
                impl.sleep(api, 3)
                api.join(child)
                impl.sleep(api, 5)

            return prog

        _same_schedule(make_prog, lambda: POLICIES[policy](3))

    @pytest.mark.parametrize("seed", range(4))
    def test_watchdog_expiry_keeps_its_schedule(self, seed):
        """A holder that keeps the mutex past the spinner's tries: the
        watchdog expires on whichever carrier steps the last test."""

        def make_prog(impl):
            def prog(api):
                m = api.mutex("m")

                def holder(a, ticks):
                    a.lock(m)
                    impl.sleep(a, ticks)
                    a.unlock(m)

                def waiter(a, tries):
                    got = impl.lock(a, m, tries)
                    a.unlock(m)
                    return got

                h = api.spawn(holder, 12)
                waiters = [api.spawn(waiter, tries) for tries in (1, 3, 5, 7)]
                return [api.join(t) for t in waiters] + [api.join(h)]

            return prog

        _same_schedule(make_prog, lambda: RandomScheduler(seed))


# ----------------------------------------------------------------------
# Faults and aborts
# ----------------------------------------------------------------------


class TestFaults:
    def _raising_guest(self, impl, where):
        def prog(api):
            calls = [0]

            def ready():
                calls[0] += 1
                where.append(threading.current_thread().name)
                if calls[0] == 4:
                    raise ValueError("flag read failed")
                return False

            def worker(a):
                addr = a.malloc(1)
                a.store(addr, 0)
                for _ in range(40):
                    a.load(addr)

            spinner = api.spawn(lambda a: impl.spin(a, ready), name="spinner")
            helper = api.spawn(worker, name="worker")
            api.join(helper)
            api.join(spinner)

        return prog

    def test_a_raising_test_faults_the_spinning_thread(self):
        outcomes = {}
        for impl in (Loops, Spins):
            where = []
            vm = VM(scheduler=RoundRobinScheduler())
            with pytest.raises(ValueError, match="flag read failed") as info:
                vm.run(self._raising_guest(impl, where))
            spinner = next(t for t in vm.threads.values() if t.name == "spinner")
            assert spinner.state is ThreadState.FAULTED
            assert spinner.error is info.value
            assert [t.name for t in vm.threads.values() if t.state is ThreadState.FAULTED] == [
                "spinner"
            ]
            assert _live_carriers() == []
            outcomes[impl] = (vm.clock, vm.stats.traps, vm.scheduler.record(), where)
        assert outcomes[Spins][:3] == outcomes[Loops][:3]
        # The raising test ran on the worker's carrier, not the spinner's.
        assert outcomes[Loops][3][3].endswith("-spinner")
        assert outcomes[Spins][3][3].endswith("-worker")

    def test_a_guest_fault_while_others_spin_stops_every_carrier(self):
        flags = {}

        def prog(api):
            for i in range(4):
                api.spawn(lambda a, i=i: a.spin(lambda: flags.get(i)), name=f"spin-{i}")
            api.sleep(20)
            api.load(0xBAD)

        vm = VM(scheduler=RandomScheduler(9))
        with pytest.raises(GuestFault):
            vm.run(prog)
        assert _live_carriers() == []
        assert all(t.retired for t in vm.threads.values())

    @pytest.mark.parametrize("spinners", [1, 4])
    def test_an_interrupt_stops_threads_spinning_forever(self, spinners):
        """Spinners that never pass run on one carrier without end; the
        abort reaches that carrier through the spun traps."""
        out = _run_isolated(_INTERRUPT_SCRIPT, spinners)
        assert out["raised"] == "KeyboardInterrupt"
        assert out["elapsed"] < 2.0
        assert out["threads"] == spinners
        assert out["carriers"] == []
        assert out["fds"][0] == out["fds"][1]


_INTERRUPT_SCRIPT = _ISOLATED_PRELUDE + """
spinners = int(sys.argv[1])

def prog(api):
    for _ in range(spinners - 1):
        api.spawn(lambda a: a.spin(lambda: False))
    api.spin(lambda: False)

fds = open_fds()
vm = VM()
main = threading.main_thread().ident
threading.Timer(0.5, signal.pthread_kill, (main, signal.SIGINT)).start()
start = time.monotonic()
try:
    vm.run(prog)
    raised = None
except BaseException as exc:
    raised = type(exc).__name__
elapsed = time.monotonic() - start
print(json.dumps({
    "raised": raised, "elapsed": elapsed, "threads": len(vm.threads),
    "carriers": carriers(), "fds": [fds, open_fds()],
}))
"""


# ----------------------------------------------------------------------
# Stress
# ----------------------------------------------------------------------


def test_token_ring_under_host_preemption():
    """Eight threads pass a token round a ring, each spinning on the
    count its predecessor bumps, with the host switch interval cut to a
    microsecond.  Each test and each turn does a host read-modify-write
    across a widened window: if two carriers ever ran at once, counts
    would be lost."""
    members, rounds = 8, 25

    def make_prog(impl):
        turn, tests, done = [0], [0], [0]

        def ready_for(i):
            def ready():
                seen = tests[0]
                sum(range(30))
                tests[0] = seen + 1
                return turn[0] % members == i

            return ready

        def member(a, i):
            ready = ready_for(i)
            for _ in range(rounds):
                impl.spin(a, ready)
                value = done[0]
                sum(range(30))
                done[0] = value + 1
                turn[0] += 1
                a.yield_()

        def prog(api):
            ring = [api.spawn(member, i, name=f"ring-{i}") for i in range(members)]
            for t in ring:
                api.join(t)
            return done[0], turn[0], tests[0]

        return prog

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reference, spun = _same_schedule(make_prog, lambda: RandomScheduler(17))
    finally:
        sys.setswitchinterval(interval)
    done, turns, tests = spun["result"]
    assert done == turns == members * rounds
    assert tests > turns
    assert spun["switches"] < reference["switches"]
    assert _live_carriers() == []
