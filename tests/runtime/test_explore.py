"""Tests for bounded systematic schedule exploration."""

from __future__ import annotations

from repro.detectors import HelgrindConfig, HelgrindDetector
from repro.runtime.explore import explore


def tiny_race(api):
    addr = api.malloc(1)
    api.store(addr, 0)

    def w(a):
        a.store(addr, a.load(addr) + 1)

    t1, t2 = api.spawn(w), api.spawn(w)
    api.join(t1)
    api.join(t2)
    return api.load(addr)


class TestExploration:
    def test_sequential_program_has_one_schedule(self):
        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 41)
            return api.load(addr) + 1

        result = explore(prog)
        assert result.schedules_run == 1
        assert result.exhausted
        assert result.distinct_results() == {42}

    def test_race_produces_multiple_results(self):
        """Exhaustive exploration PROVES the lost-update corruption:
        some schedule yields 2, some schedule yields 1."""
        result = explore(tiny_race, max_schedules=1024)
        assert result.exhausted
        assert result.distinct_results() == {1, 2}

    def test_lockset_detects_under_every_schedule(self):
        """The unlocked-unlocked race has no hiding schedule."""
        result = explore(
            tiny_race,
            detector_factories=(lambda: HelgrindDetector(HelgrindConfig.hwlc()),),
            max_schedules=1024,
        )
        assert result.exhausted
        assert result.races_found == result.schedules_run

    def test_delayed_init_false_negative_is_schedule_dependent(self):
        """The §4.3 claim, verified by enumeration instead of sampling:
        the unlocked/locked writer race is reported under some schedules
        and provably missed under others."""

        def prog(api):
            addr = api.malloc(1)
            api.store(addr, 0)
            m = api.mutex()

            def unlocked(a):
                a.store(addr, 1)

            def locked(a):
                a.lock(m)
                a.store(addr, 2)
                a.unlock(m)

            t1, t2 = api.spawn(unlocked), api.spawn(locked)
            api.join(t1)
            api.join(t2)

        result = explore(
            prog,
            detector_factories=(lambda: HelgrindDetector(HelgrindConfig.hwlc()),),
            max_schedules=2048,
        )
        assert result.exhausted
        assert 0 < result.races_found < result.schedules_run

    def test_deadlock_discovered_by_enumeration(self):
        def prog(api):
            m1, m2 = api.mutex(), api.mutex()

            def w1(a):
                a.lock(m1)
                a.lock(m2)
                a.unlock(m2)
                a.unlock(m1)

            def w2(a):
                a.lock(m2)
                a.lock(m1)
                a.unlock(m1)
                a.unlock(m2)

            t1, t2 = api.spawn(w1), api.spawn(w2)
            api.join(t1)
            api.join(t2)

        result = explore(prog, max_schedules=10_000)
        assert result.exhausted
        assert result.deadlocks_found > 0
        assert len(result.with_status("ok")) > 0  # and some runs survive

    def test_torn_record_found(self):
        """§2.1's dob/age example: enumeration finds the torn read."""

        def prog(api):
            dob = api.malloc(1)
            age = api.malloc(1)
            api.store(dob, 1970)
            api.store(age, 37)
            m = api.mutex()
            seen = []

            def writer(a):
                a.lock(m)
                a.store(dob, 1980)
                a.unlock(m)
                a.lock(m)
                a.store(age, 27)
                a.unlock(m)

            def reader(a):
                a.lock(m)
                seen.append((a.load(dob), a.load(age)))
                a.unlock(m)

            t1, t2 = api.spawn(writer), api.spawn(reader)
            api.join(t1)
            api.join(t2)
            return seen[0]

        # ~20k schedules exhaustively is ~13s; a bounded sweep of a few
        # thousand already surfaces both outcomes deterministically.
        result = explore(prog, max_schedules=4000)
        assert (1980, 37) in result.distinct_results()  # the torn record
        assert (1980, 27) in result.distinct_results()  # and the clean one

    def test_predictive_tier_reports_under_every_schedule(self):
        """Each run's detectors are finalized, so the predictive tier's
        post-pass predicts the §4.3 race wherever the live lock-set
        analysis forgot it; ``hwlc`` alone stays schedule-dependent."""
        from repro.api.profiles import profile
        from repro.experiments.studies import _delayed_init_program

        def sweep(name):
            return explore(
                _delayed_init_program,
                detector_factories=(lambda: profile(name).detector(),),
                max_schedules=64,
            )

        predictive = sweep("predictive")
        assert predictive.schedules_run == 64
        assert predictive.races_found == predictive.schedules_run
        hwlc = sweep("hwlc")
        assert hwlc.schedules_run == 64
        assert 0 < hwlc.races_found < hwlc.schedules_run

    def test_budget_bounding(self):
        result = explore(tiny_race, max_schedules=3)
        assert result.schedules_run == 3
        assert not result.exhausted

    def test_outcomes_are_reproducible(self):
        """Re-running any explored prefix reproduces its result."""
        from repro.runtime.explore import _ExploringScheduler
        from repro.runtime.vm import VM

        result = explore(tiny_race, max_schedules=64)
        sample = [o for o in result.outcomes if o.status == "ok"][:5]
        for outcome in sample:
            vm = VM(scheduler=_ExploringScheduler(list(outcome.choices)))
            assert vm.run(tiny_race) == outcome.result

    def test_format(self):
        result = explore(tiny_race, max_schedules=16)
        text = result.format()
        assert "explored" in text and "schedules" in text
