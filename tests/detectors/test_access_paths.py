"""Property-based equivalence: per-event access path ≡ batched replay pump.

:class:`~repro.detectors.helgrind.HelgrindDetector` reaches the Figure 1
machine two ways: the per-event ``_on_access`` handler, and
``bulk_access``, which replay hands whole ``MemoryAccess`` blocks and
which inlines the memo probe, the EXCLUSIVE-same-owner fast path and
a run-length elision of identical adjacent rows.  Both read the
virtual bus lock from each thread's ``_HeldLocks.ids`` table, indexed
``[is_write][bus_locked]``; with the MUTEX/RWLOCK model that makes
eight cells: LOCK prefix on/off × read/write × model.

Hypothesis generates event streams over four threads and a few words
on two shadow pages — runs of reads and writes with and without the
LOCK prefix, critical sections, and bare lock acquire/release in every
:class:`LockMode`, plus thread creation — and steps are sparse or
dense, so blocks come in both row layouts.  Each stream is analysed
under ``original``, ``hwlc`` and ``hwlc+dr`` three ways:

* per-event ``handle`` (memo on),
* cached ``replay_trace`` (whole blocks through ``bulk_access``),
* uncached ``replay_trace`` (the per-event reference path),

and the three must agree on ``Report.to_json()``, the shadow pages
and the access count.  Every access gets its own call stack, so each
race outcome is a distinct report location and a lost or extra race
shows up in the report.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api.profiles import profile
from repro.detectors import HelgrindDetector
from repro.detectors.lockset import PAGE_SIZE
from repro.runtime.codec import TraceWriter
from repro.runtime.events import (
    AccessKind,
    Frame,
    LockAcquire,
    LockMode,
    LockRelease,
    MemoryAccess,
    ThreadCreate,
    intern_stack,
)
from repro.runtime.trace import replay_trace

CONFIGS = ("original", "hwlc", "hwlc+dr")

_BASE = 4 * PAGE_SIZE
_WORDS = (_BASE, _BASE + 1, _BASE + 2, _BASE + PAGE_SIZE, _BASE + PAGE_SIZE + 1)
_TIDS = st.integers(0, 3)
_LOCK = st.tuples(_TIDS, st.integers(1, 2), st.sampled_from(LockMode))
# One access: (addr, is_write, bus_locked).
_TOUCH = st.tuples(st.sampled_from(_WORDS), st.booleans(), st.booleans())
_OPS = st.lists(
    st.one_of(
        # Accesses by any threads; adjacent rows often repeat.
        st.tuples(
            st.just("run"),
            st.lists(st.tuples(_TIDS, _TOUCH), min_size=1, max_size=8),
        ),
        # acquire, accesses by the holder, release.
        st.tuples(
            st.just("section"), _LOCK, st.lists(_TOUCH, min_size=1, max_size=6)
        ),
        st.tuples(st.just("acquire"), _LOCK),
        st.tuples(st.just("release"), _TIDS, st.integers(1, 2)),
        st.tuples(st.just("create"), _TIDS, _TIDS).filter(lambda op: op[1] != op[2]),
    ),
    max_size=25,
)


def _events(ops, sparse: bool) -> list:
    steps = itertools.count(0, 2 if sparse else 1)
    events = []

    def access(tid, addr, is_write, bus):
        step = next(steps)
        events.append(MemoryAccess(
            step, tid, addr=addr,
            kind=AccessKind.WRITE if is_write else AccessKind.READ,
            bus_locked=bus,
            stack=intern_stack((Frame("access", "paths.cpp", step),)),
        ))

    for op in ops:
        if op[0] == "run":
            for tid, touch in op[1]:
                access(tid, *touch)
        elif op[0] in ("section", "acquire"):
            tid, lock_id, mode = op[1]
            events.append(LockAcquire(next(steps), tid, lock_id=lock_id, mode=mode))
            if op[0] == "section":
                for touch in op[2]:
                    access(tid, *touch)
                events.append(LockRelease(next(steps), tid, lock_id=lock_id))
        elif op[0] == "release":
            _, tid, lock_id = op
            events.append(LockRelease(next(steps), tid, lock_id=lock_id))
        else:
            _, parent, child = op
            events.append(ThreadCreate(next(steps), parent, child_tid=child))
    return events


def _detector(config: str, cache: bool) -> HelgrindDetector:
    return HelgrindDetector(
        dataclasses.replace(profile(config).config(), transition_cache=cache)
    )


def _observed(det: HelgrindDetector) -> tuple:
    return (
        det.report.to_json(),
        det.machine.dump_pages()["pages"],
        det.access_checks,
    )


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("access-paths") / "stream.rptr"


# Writes under a READ-mode hold must race on a word whose candidate set
# is {lock 1}, even though the memo already holds that word's transition
# for a write-mode holder of the same lock: a pump that probed the memo
# with the any-mode set would miss the race.  The last section has two
# rows because replay sends single-row blocks to the per-event handler.
_READ_MODE_WRITE = [
    ("section", (0, 1, LockMode.WRITE), [(_BASE, True, False)]),
    ("section", (1, 1, LockMode.EXCLUSIVE), [(_BASE, True, False)]),
    ("section", (1, 1, LockMode.EXCLUSIVE), [(_BASE, True, False)]),
    ("section", (2, 1, LockMode.READ), [(_BASE, True, False)] * 2),
]


@pytest.mark.parametrize("config", CONFIGS)
@given(ops=_OPS, sparse=st.booleans())
@example(ops=_READ_MODE_WRITE, sparse=False)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_per_event_and_bulk_paths_agree(trace_path, config, ops, sparse):
    events = _events(ops, sparse)
    with open(trace_path, "wb") as fh:
        writer = TraceWriter(fh)
        for event in events:
            writer.write(event)
        writer.close()

    per_event = _detector(config, cache=True)
    for event in events:
        per_event.handle(event, None)

    cached = _detector(config, cache=True)
    assert cached.bulk_access_ready()
    replay_trace(trace_path, cached)

    uncached = _detector(config, cache=False)
    assert not uncached.bulk_access_ready()
    replay_trace(trace_path, uncached)

    reference = _observed(uncached)
    assert _observed(per_event) == reference
    assert _observed(cached) == reference
