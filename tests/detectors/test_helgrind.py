"""Scenario tests for the full Helgrind detector and its configurations.

Each scenario is a guest program reproducing one of the paper's access
patterns; assertions check which configurations warn and which stay
silent — the qualitative content of §3.1 and §4.2.
"""

from __future__ import annotations

import pytest

from repro.api.profiles import profile
from repro.detectors import (
    BUS_LOCK_ID,
    BusLockModel,
    HelgrindConfig,
    HelgrindDetector,
)
from repro.runtime import VM, RandomScheduler


def run_with(config, program, *, scheduler=None, suppressions=None):
    det = HelgrindDetector(config, suppressions=suppressions)
    vm = VM(detectors=(det,), scheduler=scheduler)
    vm.run(program)
    return det


# ----------------------------------------------------------------------
# Guest scenarios
# ----------------------------------------------------------------------


def plain_race(api):
    addr = api.malloc(1, tag="shared")
    api.store(addr, 0)

    def w(a):
        with a.frame("increment", "counter.cpp", 12):
            a.store(addr, a.load(addr) + 1)

    t1, t2 = api.spawn(w), api.spawn(w)
    api.join(t1)
    api.join(t2)


def mutex_protected(api):
    addr = api.malloc(1)
    api.store(addr, 0)
    m = api.mutex()

    def w(a):
        for _ in range(5):
            a.lock(m)
            a.store(addr, a.load(addr) + 1)
            a.unlock(m)

    ts = [api.spawn(w) for _ in range(3)]
    for t in ts:
        api.join(t)


def refcount_string(api):
    """Figure 8's stringtest: plain read + LOCKed increment of a refcount."""
    rc = api.malloc(1, tag="string.rep")
    api.store(rc, 1)

    def copier(a):
        with a.frame("_M_grab", "basic_string.h", 183):
            a.load(rc)  # plain is-shared check (no LOCK prefix)
            a.atomic_add(rc, 1)  # LOCK add

    t1, t2 = api.spawn(copier), api.spawn(copier)
    api.join(t1)
    api.join(t2)


def destructor_pattern(api):
    """§4.2.1: a shared object is deleted while its users are still alive.

    Two worker threads use the object (virtual calls read the vptr at
    ``obj+0``) under a mutex and then move on to other work *without
    being joined* — the server situation.  The deleting thread knows by
    protocol that the users are done, but Helgrind cannot see that, so
    the header stays SHARED and the compiler-generated vptr rewrites in
    the destructor chain drain the candidate set.
    """
    obj = api.malloc(4, tag="Derived")
    api.store(obj, "vptr-Derived")
    for i in range(1, 4):
        api.store(obj + i, 0)
    m = api.mutex()

    def user(a):
        a.lock(m)
        a.load(obj)  # virtual dispatch reads the vptr
        a.load(obj + 1)
        a.unlock(m)
        a.sleep(30)  # stays alive, serving other requests

    api.spawn(user)
    api.spawn(user)
    api.sleep(10)  # protocol: by now the users are done with obj
    # delete: annotated (HG_DESTRUCT) then destructor chain writes header.
    api.hg_destruct(obj, 4)
    with api.frame("Derived::~Derived", "msg.cpp", 40):
        api.store(obj, "vptr-Base")  # compiler-generated vptr rewrite
    with api.frame("Base::~Base", "msg.cpp", 10):
        api.store(obj, "vptr-dead")
    api.free(obj)


def rwlock_discipline(api):
    rw = api.rwlock()
    addr = api.malloc(1)
    api.store(addr, 0)

    def writer(a):
        for _ in range(3):
            a.wrlock(rw)
            a.store(addr, a.load(addr) + 1)
            a.rw_unlock(rw)

    def reader(a):
        for _ in range(3):
            a.rdlock(rw)
            a.load(addr)
            a.rw_unlock(rw)

    ts = [api.spawn(writer), api.spawn(reader), api.spawn(reader)]
    for t in ts:
        api.join(t)


def rwlock_read_mode_write(api):
    """Writing while holding the rwlock only in read mode is a race."""
    rw = api.rwlock()
    addr = api.malloc(1)
    api.store(addr, 0)

    def bad(a):
        with a.frame("bad_writer", "cache.cpp", 77):
            a.rdlock(rw)
            a.store(addr, a.load(addr) + 1)
            a.rw_unlock(rw)

    t1, t2 = api.spawn(bad), api.spawn(bad)
    api.join(t1)
    api.join(t2)


def thread_pool(api):
    q = api.queue()

    def worker(a):
        while True:
            msg = a.get(q)
            if msg is None:
                break
            with a.frame("process", "pool.cpp", 30):
                a.store(msg, a.load(msg) + 1)

    t = api.spawn(worker)
    for i in range(3):
        data = api.malloc(1, tag="job")
        with api.frame("setup", "pool.cpp", 10):
            api.store(data, i)
        api.put(q, data)
    api.put(q, None)
    api.join(t)


# ----------------------------------------------------------------------


class TestPlainRaces:
    @pytest.mark.parametrize(
        "config",
        [
            HelgrindConfig.original(),
            HelgrindConfig.hwlc(),
            HelgrindConfig.hwlc_dr(),
            HelgrindConfig.extended(),
        ],
        ids=lambda c: c.name,
    )
    def test_every_config_finds_the_real_race(self, config):
        det = run_with(config, plain_race)
        assert det.report.location_count == 1
        warning = det.report.warnings[0]
        assert warning.site.function == "increment"

    @pytest.mark.parametrize(
        "config",
        [HelgrindConfig.original(), HelgrindConfig.hwlc_dr()],
        ids=lambda c: c.name,
    )
    def test_mutex_discipline_is_silent(self, config):
        det = run_with(config, mutex_protected)
        assert det.report.location_count == 0

    def test_race_warning_contents(self):
        det = run_with(HelgrindConfig.original(), plain_race)
        w = det.report.warnings[0]
        assert w.kind == "possible-data-race"
        assert "Possible data race" in w.message
        assert "Previous state" in w.details
        text = w.format()
        assert "increment (counter.cpp:12)" in text


class TestHardwareBusLock:
    """§3.1 improvement 1 / §4.2.2 — the HWLC experiments."""

    def test_original_model_warns_on_refcount(self):
        det = run_with(HelgrindConfig.original(), refcount_string)
        assert det.report.location_count == 1
        assert det.report.warnings[0].site.function == "_M_grab"

    def test_hwlc_model_is_silent_on_refcount(self):
        det = run_with(HelgrindConfig.hwlc(), refcount_string)
        assert det.report.location_count == 0

    def test_hwlc_still_catches_plain_races(self):
        det = run_with(HelgrindConfig.hwlc(), plain_race)
        assert det.report.location_count == 1

    def test_rwlock_discipline_silent_both_models(self):
        for config in (HelgrindConfig.original(), HelgrindConfig.hwlc()):
            det = run_with(config, rwlock_discipline)
            assert det.report.location_count == 0, config.name

    def test_write_under_read_mode_caught(self):
        det = run_with(HelgrindConfig.hwlc(), rwlock_read_mode_write)
        assert det.report.location_count == 1

    def test_bus_lock_id_in_prev_state_rendering(self):
        det = run_with(HelgrindConfig.original(), refcount_string)
        text = det.report.warnings[0].format()
        assert "Previous state" in text


class TestDestructorAnnotation:
    """§3.1 improvement 2 / §4.2.1 — the DR experiments."""

    def test_unannotated_configs_warn_on_destructor(self):
        for config in (HelgrindConfig.original(), HelgrindConfig.hwlc()):
            det = run_with(config, destructor_pattern)
            # One location per destructor-chain frame that rewrites the
            # header (~Derived's explicit write and ~Base's rewrite).
            assert det.report.location_count >= 1, config.name
            assert all("~" in w.site.function for w in det.report.warnings)

    def test_dr_config_is_silent(self):
        det = run_with(HelgrindConfig.hwlc_dr(), destructor_pattern)
        assert det.report.location_count == 0

    def test_other_thread_during_destruction_still_caught(self):
        """The annotation must not mask true cross-thread touches (§3.1)."""

        def program(api):
            obj = api.malloc(2, tag="Victim")
            api.store(obj, "vptr")
            api.store(obj + 1, 0)
            m = api.mutex()

            def user(a):
                a.sleep(5)
                with a.frame("late_user", "bad.cpp", 9):
                    a.store(obj + 1, 42)  # touches during destruction!

            t = api.spawn(user)
            api.lock(m)
            api.load(obj + 1)
            api.unlock(m)
            # destroy while the other thread is still around
            api.hg_destruct(obj, 2)
            with api.frame("Victim::~Victim", "bad.cpp", 20):
                api.store(obj, "vptr-dead")
            api.sleep(10)
            api.join(t)

        det = run_with(HelgrindConfig.hwlc_dr(), program)
        assert det.report.location_count >= 1
        assert any(w.site.function == "late_user" for w in det.report.warnings)

    def test_ignored_when_config_does_not_honor(self):
        """ORIGINAL treats HG_DESTRUCT as an unknown no-op request."""
        det = run_with(HelgrindConfig.original(), destructor_pattern)
        assert det.report.location_count >= 1
        assert all("~" in w.site.function for w in det.report.warnings)


class TestOwnershipTransfer:
    def test_thread_per_request_silent_with_segments(self):
        def handoff(api):
            data = api.malloc(4, tag="msg")
            for i in range(4):
                api.store(data + i, i)

            def worker(a):
                for i in range(4):
                    a.store(data + i, a.load(data + i) + 1)

            t = api.spawn(worker)
            api.join(t)
            for i in range(4):
                api.load(data + i)

        det = run_with(HelgrindConfig.original(), handoff)
        assert det.report.location_count == 0

    def test_thread_pool_warns_without_queue_hb(self):
        """Figure 11: the lock-set algorithm is unaware of put/get order."""
        det = run_with(HelgrindConfig.hwlc_dr(), thread_pool)
        assert det.report.location_count >= 1

    def test_thread_pool_silent_with_queue_hb(self):
        """The future-work extension closes the Figure 11 class."""
        det = run_with(HelgrindConfig.extended(), thread_pool)
        assert det.report.location_count == 0

    def test_extended_still_catches_real_races(self):
        det = run_with(HelgrindConfig.extended(), plain_race)
        assert det.report.location_count == 1

    def test_semaphore_hb_in_extended(self):
        def sem_handoff(api):
            data = api.malloc(1, tag="boxed")
            sem = api.semaphore(0)

            def worker(a):
                a.sem_wait(sem)
                a.store(data, a.load(data) + 1)

            t = api.spawn(worker)
            api.yield_()
            api.store(data, 1)  # initialise...
            api.sem_post(sem)  # ...then publish
            api.join(t)

        assert run_with(HelgrindConfig.extended(), sem_handoff).report.location_count == 0
        # Plain hwlc+dr does not know sem ordering. The data was written
        # by main *after* spawning, so segment transfer cannot apply.
        assert run_with(HelgrindConfig.hwlc_dr(), sem_handoff).report.location_count >= 1


class TestClientRequests:
    def test_benign_race_suppresses(self):
        def program(api):
            addr = api.malloc(1, tag="stats")
            api.store(addr, 0)
            api.benign_race(addr, 1)

            def w(a):
                a.store(addr, a.load(addr) + 1)

            t1, t2 = api.spawn(w), api.spawn(w)
            api.join(t1)
            api.join(t2)

        det = run_with(HelgrindConfig.original(), program)
        assert det.report.location_count == 0

    @pytest.mark.parametrize("name", ["hwlc+dr", "djit", "predictive"])
    def test_benign_range_silences_only_itself(self, name):
        """Each per-event access path gates on the declared ranges: the
        declared word is silent, its undeclared twin still races."""

        def program(api):
            words = api.malloc(2, tag="stats")
            api.store(words, 0)
            api.store(words + 1, 0)
            api.benign_race(words, 1)

            def w(a):
                for addr in (words, words + 1):
                    a.store(addr, a.load(addr) + 1)

            t1, t2 = api.spawn(w), api.spawn(w)
            api.join(t1)
            api.join(t2)
            return words

        det = profile(name).detector()
        words = VM(detectors=(det,)).run(program)
        raced = {w.addr for w in det.report.warnings}
        assert words + 1 in raced and words not in raced

    def test_hg_clean_forgets_state(self):
        def program(api):
            addr = api.malloc(1, tag="pooled")
            api.store(addr, 0)

            def w(a):
                a.load(addr)

            t = api.spawn(w)
            api.join(t)
            # Logical free + realloc inside a guest pool:
            api.hg_clean(addr, 1)
            # New owner initialises without locks — fine after clean.
            def w2(a):
                a.store(addr, 7)

            t2 = api.spawn(w2)
            api.join(t2)

        det = run_with(HelgrindConfig.original(), program)
        assert det.report.location_count == 0


class TestConfigs:
    def test_config_factories_names(self):
        assert HelgrindConfig.original().name == "original"
        assert HelgrindConfig.hwlc().name == "hwlc"
        assert HelgrindConfig.hwlc_dr().name == "hwlc+dr"
        assert HelgrindConfig.extended().queue_hb
        assert not HelgrindConfig.raw_eraser().use_states

    def test_with_override(self):
        cfg = HelgrindConfig.hwlc().with_(honor_destruct=True)
        assert cfg.bus_lock_model is BusLockModel.RWLOCK
        assert cfg.honor_destruct

    def test_locks_held_introspection(self):
        def program(api):
            m = api.mutex()
            api.lock(m)
            api.store(api.malloc(1), 0)
            api.unlock(m)

        det = run_with(HelgrindConfig.original(), program)
        assert det.locks_held(0) == frozenset()

    def test_access_checks_counted(self):
        det = run_with(HelgrindConfig.original(), mutex_protected)
        assert det.access_checks > 0

    def test_bus_lock_id_reserved(self):
        assert BUS_LOCK_ID == -1


class TestDedup:
    def test_same_site_reported_once(self):
        def program(api):
            addr = api.malloc(1)
            api.store(addr, 0)

            def w(a):
                with a.frame("hot", "loop.cpp", 3):
                    for _ in range(10):
                        a.store(addr, a.load(addr) + 1)

            ts = [api.spawn(w) for _ in range(3)]
            for t in ts:
                api.join(t)

        det = run_with(
            HelgrindConfig.original(), program, scheduler=RandomScheduler(5)
        )
        assert det.report.location_count <= 2  # read site + write site max
        assert det.report.dynamic_count >= det.report.location_count


class TestAccessHistory:
    """The --history-level-style conflict history (opt-in extension)."""

    def test_warning_names_the_other_side(self):
        config = HelgrindConfig.hwlc().with_(access_history=True)
        det = run_with(config, plain_race)
        assert det.report.location_count >= 1
        conflict_lines = [
            w.details.get("Conflicts with", "") for w in det.report.warnings
        ]
        assert any("previous" in line and "thread" in line for line in conflict_lines)
        # Both sides of the race are in the same function here.
        assert any("increment" in line for line in conflict_lines)

    def test_off_by_default(self):
        det = run_with(HelgrindConfig.hwlc(), plain_race)
        assert all("Conflicts with" not in w.details for w in det.report.warnings)

    def test_history_does_not_change_counts(self):
        plain = run_with(HelgrindConfig.original(), refcount_string)
        history = run_with(
            HelgrindConfig.original().with_(access_history=True), refcount_string
        )
        assert plain.report.location_count == history.report.location_count
