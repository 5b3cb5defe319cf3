"""Every registered profile gives one report, whichever path runs it.

For T1 and T9 (seed 42) under every name in ``profile_names()``, the
profile records its trace in its own live run, and then each execution
path must render the live report byte for byte — ``render()`` and
``to_json()`` alike:

* the live :func:`~repro.experiments.harness.run_proxy_case` run;
* ``Pipeline(p).replay(trace)``;
* per-event replay with the transition cache off;
* a ``Session(p)`` fed the encoded trace in 4 KiB chunks;
* a ``Session(p)`` snapshotted mid-stream, restored and resumed at
  ``bytes_fed``;
* a ``Session(p)`` fed event objects through ``feed_events``,
  snapshotted half-way, restored and fed the rest.

The snapshots are real pickles, so a detector that holds anything
unpicklable (a composed handler closure, say) fails here rather than
in a served session's checkpoint.
"""

from __future__ import annotations

import pytest

from repro.api import Pipeline, Session, _case_by_id
from repro.api.profiles import profile, profile_names
from repro.experiments.harness import run_proxy_case
from repro.runtime.trace import TraceRecorder, load_trace, replay_trace

CASES = ("T1", "T9")
CHUNK = 4096


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """``(case, profile) -> (trace path, live report)``, recorded lazily."""
    root = tmp_path_factory.mktemp("differential")
    cache: dict = {}

    def get(case_id: str, name: str):
        key = (case_id, name)
        if key not in cache:
            path = root / f"{case_id}-{name.replace('+', '_')}.rptr"
            det = profile(name).detector()
            with TraceRecorder(path) as recorder:
                run_proxy_case(
                    _case_by_id(case_id), name, seed=42, detector=det,
                    extra_hooks=(recorder,),
                )
            cache[key] = (path, det.report)
        return cache[key]

    return get


def _feed(session: Session, data: bytes) -> Session:
    for pos in range(0, len(data), CHUNK):
        session.feed(data[pos:pos + CHUNK])
    return session


def _finished(session: Session):
    session.finalize()
    return session.report


def _uncached(path, name: str):
    prof = profile(name)
    det = prof.detector(prof.config().with_(transition_cache=False))
    replay_trace(path, det)
    det.finalize()
    return det.report


def _chunked(path, name: str):
    return _finished(_feed(Session(name), path.read_bytes()))


def _resumed(path, name: str):
    data = path.read_bytes()
    first = _feed(Session(name), data[: len(data) // 2])
    resumed = Session.restore(first.snapshot())
    assert resumed.bytes_fed == first.bytes_fed
    return _finished(_feed(resumed, data[resumed.bytes_fed:]))


def _events_resumed(path, name: str):
    events = list(load_trace(path))
    half = len(events) // 2
    first = Session(name)
    first.feed_events(events[:half])
    resumed = Session.restore(first.snapshot())
    assert resumed.events_seen == half
    resumed.feed_events(events[half:])
    return _finished(resumed)


PATHS = {
    "pipeline-replay": lambda path, name: Pipeline(name).replay(path),
    "per-event-uncached": _uncached,
    "session-4k": _chunked,
    "session-snapshot-resume": _resumed,
    "feed-events-snapshot-resume": _events_resumed,
}


@pytest.mark.parametrize("path_name", sorted(PATHS))
@pytest.mark.parametrize("name", profile_names())
@pytest.mark.parametrize("case_id", CASES)
def test_every_path_reports_the_live_run(recorded, case_id, name, path_name):
    trace, live = recorded(case_id, name)
    report = PATHS[path_name](trace, name)
    assert report.render() == live.render()
    assert report.to_json() == live.to_json()
